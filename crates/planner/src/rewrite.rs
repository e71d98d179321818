//! Answering queries using views: rewrite federated subtrees into local
//! materialized-view scans when the cost model prefers them.
//!
//! "The problem of answering queries using views ... is to rewrite a query
//! over the virtual schema into one that refers to a set of previously
//! materialized views" — the classic EII optimization this pass implements
//! in its practical form: the planner is handed the definitions of every
//! *servable* materialized view (fresh enough under its refresh policy) as
//! plain data, matches query subtrees against them, and substitutes a
//! [`LogicalPlan::MatViewScan`] wherever reading the local materialization
//! is predicted to beat shipping the data from the sources again.
//!
//! Two matching strategies, applied top-down so the largest subtree wins:
//!
//! 1. **Equivalence** — the subtree is structurally identical to a view's
//!    optimized definition. The view answers it outright.
//! 2. **Containment** — the subtree is a single [`LogicalPlan::SourceScan`]
//!    whose pushed filters *imply* the view's (superset of conjuncts) and
//!    whose projection the view covers. The scan is answered from the view;
//!    the filters the query pushed beyond the view's travel *on* the
//!    `MatViewScan` node and are re-applied by the executor against the
//!    full materialization (which still holds filter columns the query
//!    projects away), along with any compensating `LIMIT`.
//!
//! Every substitution is cost-gated: the pass estimates both alternatives
//! and keeps whichever is cheaper, recording the rejected federated cost on
//! the `MatViewScan` node so `EXPLAIN` can show the decision.

use std::sync::Arc;

use eii_expr::{referenced_columns, Expr};
use eii_federation::Federation;

use eii_data::{Result, Schema, SchemaRef};

use crate::cost::{CostModel, PlanEstimate};
use crate::logical::LogicalPlan;

/// Simulated milliseconds to open a local materialization (no network).
const MATVIEW_OPEN_MS: f64 = 0.05;

/// A materialized view's definition, exported by the matview manager for
/// the planner's rewrite pass. Carries only plain data so the planner does
/// not depend on the matview crate.
#[derive(Debug, Clone)]
pub struct MatViewDef {
    /// Registered view name (the executor's store key).
    pub name: String,
    /// The view's *optimized* logical definition (same optimizer config as
    /// queries, so equivalent SQL produces a structurally identical tree).
    /// Shared with the view's owner: the rewrite pass only reads it.
    pub plan: Arc<LogicalPlan>,
    /// Schema of the materialized rows.
    pub schema: SchemaRef,
    /// Row count of the current materialization.
    pub rows: usize,
}

/// Rewrite `plan` against `views`, substituting [`LogicalPlan::MatViewScan`]
/// nodes where a view answers a subtree more cheaply than the federation.
/// With no matching view (or when federated execution is estimated cheaper)
/// the plan comes back unchanged.
pub fn rewrite_matviews(
    plan: LogicalPlan,
    views: &[MatViewDef],
    federation: &Federation,
) -> Result<LogicalPlan> {
    rewrite_matviews_with_budget(plan, views, federation, None)
}

/// Deadline-aware [`rewrite_matviews`]: `budget_ms` is the query's remaining
/// virtual-time budget. The cost gate relaxes — a view that would lose the
/// plain cost race is still substituted when the federated alternative is
/// estimated to blow the budget while the local read fits inside it. A stale
/// (but servable) local answer inside the deadline beats a fresh one that
/// arrives too late to be seen.
pub fn rewrite_matviews_with_budget(
    plan: LogicalPlan,
    views: &[MatViewDef],
    federation: &Federation,
    budget_ms: Option<f64>,
) -> Result<LogicalPlan> {
    if views.is_empty() {
        return Ok(plan);
    }
    let model = CostModel::new(federation);
    rewrite_node(plan, views, &model, budget_ms)
}

/// Top-down traversal: try to answer this subtree from a view; otherwise
/// recurse into the children.
fn rewrite_node(
    plan: LogicalPlan,
    views: &[MatViewDef],
    model: &CostModel<'_>,
    budget_ms: Option<f64>,
) -> Result<LogicalPlan> {
    match try_substitute(&plan, views, model, budget_ms)? {
        Some(replacement) => Ok(replacement),
        None => plan.map_children(|child| rewrite_node(child, views, model, budget_ms)),
    }
}

/// Try every view against this subtree; return the substituted plan for the
/// first match the cost gate accepts.
fn try_substitute(
    plan: &LogicalPlan,
    views: &[MatViewDef],
    model: &CostModel<'_>,
    budget_ms: Option<f64>,
) -> Result<Option<LogicalPlan>> {
    // Nothing federated to save on these.
    if matches!(
        plan,
        LogicalPlan::Values { .. } | LogicalPlan::MatViewScan { .. }
    ) {
        return Ok(None);
    }
    for def in views {
        // Strategy 1: structural equivalence with the view's definition.
        if *plan == *def.plan {
            if let Some(scan) =
                gated_scan(plan, def, plan.schema()?, Vec::new(), None, model, budget_ms)?
            {
                return Ok(Some(scan));
            }
            continue;
        }
        // Strategy 2: single-scan containment with compensation.
        if let Some(rewritten) = try_scan_containment(plan, def, model, budget_ms)? {
            return Ok(Some(rewritten));
        }
    }
    Ok(None)
}

/// Build the `MatViewScan` for `def` replacing `subtree`, but only when the
/// cost model predicts the local read beats federated execution.
#[allow(clippy::too_many_arguments)]
fn gated_scan(
    subtree: &LogicalPlan,
    def: &MatViewDef,
    schema: SchemaRef,
    filters: Vec<Expr>,
    limit: Option<usize>,
    model: &CostModel<'_>,
    budget_ms: Option<f64>,
) -> Result<Option<LogicalPlan>> {
    let federated = model.estimate(subtree)?;
    let rows = def.rows as f64;
    let local = PlanEstimate {
        rows,
        bytes: 0.0,
        sim_ms: MATVIEW_OPEN_MS + rows * model.hub_ms_per_row,
    };
    // The plain cost race — or, under a deadline, the budget rescue: a
    // federated fetch predicted to outlast the remaining budget loses to a
    // local read that fits inside it, whatever the raw costs say.
    let beats_federated = local.sim_ms < federated.sim_ms;
    let rescued_by_budget =
        budget_ms.is_some_and(|b| federated.sim_ms > b && local.sim_ms <= b);
    if !beats_federated && !rescued_by_budget {
        return Ok(None);
    }
    Ok(Some(LogicalPlan::MatViewScan {
        name: def.name.clone(),
        schema,
        filters,
        limit,
        local,
        federated,
        saved: per_source_bytes(subtree, model),
    }))
}

/// Estimated bytes each source would have shipped for `subtree`, for the
/// federation's bytes-saved ledger.
fn per_source_bytes(subtree: &LogicalPlan, model: &CostModel<'_>) -> Vec<(String, f64)> {
    let mut acc: Vec<(String, f64)> = Vec::new();
    collect_scans(subtree, model, &mut acc);
    acc
}

fn collect_scans(plan: &LogicalPlan, model: &CostModel<'_>, acc: &mut Vec<(String, f64)>) {
    if let LogicalPlan::SourceScan { source, .. } = plan {
        let bytes = model.estimate(plan).map(|e| e.bytes).unwrap_or(0.0);
        match acc.iter_mut().find(|(s, _)| s == source) {
            Some((_, b)) => *b += bytes,
            None => acc.push((source.clone(), bytes)),
        }
        return;
    }
    for child in plan.children() {
        collect_scans(child, model, acc);
    }
}

/// Containment matching for a single scan: the view materializes a superset
/// of what the scan requests, so answer it locally and compensate with hub
/// `Filter`/`Limit` operators.
fn try_scan_containment(
    plan: &LogicalPlan,
    def: &MatViewDef,
    model: &CostModel<'_>,
    budget_ms: Option<f64>,
) -> Result<Option<LogicalPlan>> {
    let LogicalPlan::SourceScan {
        source: q_source,
        table: q_table,
        alias: q_alias,
        base_schema,
        pushed_filters: q_filters,
        projection: q_proj,
        limit: q_limit,
    } = plan
    else {
        return Ok(None);
    };
    let Some(LogicalPlan::SourceScan {
        source: v_source,
        table: v_table,
        pushed_filters: v_filters,
        projection: v_proj,
        limit: v_limit,
        ..
    }) = view_as_scan(&def.plan)
    else {
        return Ok(None);
    };
    // Same base table; the view must not have truncated rows.
    if v_source != q_source || v_table != q_table || v_limit.is_some() {
        return Ok(None);
    }
    // Every filter the view applied must also be applied by the query, or
    // the view is missing rows the query needs.
    if !v_filters.iter().all(|f| q_filters.contains(f)) {
        return Ok(None);
    }
    // The view must materialize every column the query returns.
    let covered = |col: &String| match v_proj {
        None => true,
        Some(cols) => cols.iter().any(|c| c.eq_ignore_ascii_case(col)),
    };
    match (q_proj, v_proj) {
        (_, None) => {}
        (Some(q_cols), Some(_)) => {
            if !q_cols.iter().all(covered) {
                return Ok(None);
            }
        }
        (None, Some(v_cols)) => {
            // The query wants every base column; the view must have them all.
            if v_cols.len() < base_schema.len() {
                return Ok(None);
            }
        }
    }
    // Filters the query pushed beyond the view's are re-applied by the
    // executor over the full materialization, so their (table-local)
    // references need only be columns the view materialized — they may be
    // absent from the scan's own projected output.
    let extra: Vec<Expr> = q_filters
        .iter()
        .filter(|f| !v_filters.contains(f))
        .cloned()
        .collect();
    let filterable = extra.iter().all(|f| {
        referenced_columns(f)
            .iter()
            .all(|c| c.relation.is_none() && covered(&c.name))
    });
    if !filterable {
        return Ok(None);
    }
    // The MatViewScan adopts the scan's own output schema; the executor
    // filters the stored rows, then adapts them to it by column name.
    let requalified = Schema::new(
        plan.schema()?
            .fields()
            .iter()
            .map(|f| f.clone().with_relation(q_alias.clone()))
            .collect(),
    );
    gated_scan(
        plan,
        def,
        std::sync::Arc::new(requalified),
        extra,
        *q_limit,
        model,
        budget_ms,
    )
}

/// Unwrap a view definition down to its `SourceScan`, tolerating an
/// *identity* projection the optimizer may have left for output naming
/// (every expression a bare column matching the input field in position and
/// name — so the materialized rows are the scan's rows unchanged).
fn view_as_scan(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        scan @ LogicalPlan::SourceScan { .. } => Some(scan),
        LogicalPlan::Project { input, exprs } => {
            let scan = view_as_scan(input)?;
            let schema = scan.schema().ok()?;
            if exprs.len() != schema.len() {
                return None;
            }
            let identity = exprs.iter().enumerate().all(|(i, (e, name))| {
                matches!(e, Expr::Column { name: n, .. }
                    if n.eq_ignore_ascii_case(&schema.field(i).name))
                    && name.eq_ignore_ascii_case(&schema.field(i).name)
            });
            identity.then_some(scan)
        }
        _ => None,
    }
}
