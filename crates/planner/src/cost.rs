//! Cardinality estimation and cost prediction.
//!
//! The cost model drives join ordering, bind-join and assembly-site
//! decisions, and produces the *execution-time predictions* whose calibration
//! experiment E12 measures (Sikka §8: "query optimization and query
//! execution-time prediction ... continue to be underserved issues").

use eii_data::{Result, Value};
use eii_expr::{BinaryOp, Expr};
use eii_federation::{Federation, SourceQuery};
use eii_sql::JoinKind;
use eii_storage::TableStats;

use std::sync::Arc;

use crate::feedback::CardinalityFeedback;
use crate::logical::LogicalPlan;
use crate::physical::PhysicalPlan;

/// Default selectivity guesses (System R heritage) for predicates the model
/// cannot analyze.
const DEFAULT_EQ_SEL: f64 = 0.1;
const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
const DEFAULT_LIKE_SEL: f64 = 0.25;
const DEFAULT_OTHER_SEL: f64 = 0.5;

/// Predicted execution profile of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEstimate {
    /// Output rows.
    pub rows: f64,
    /// Bytes expected to cross the network.
    pub bytes: f64,
    /// Predicted simulated elapsed milliseconds.
    pub sim_ms: f64,
}

/// Estimates over a federation's statistics.
pub struct CostModel<'a> {
    federation: &'a Federation,
    /// Hub-side per-row processing cost (join/aggregate work), sim ms.
    pub hub_ms_per_row: f64,
    /// Cross-query cardinality corrections ([`CardinalityFeedback`]); when
    /// absent the model estimates from statistics alone.
    feedback: Option<Arc<CardinalityFeedback>>,
}

impl<'a> CostModel<'a> {
    /// New model with default hub speed.
    pub fn new(federation: &'a Federation) -> Self {
        CostModel {
            federation,
            hub_ms_per_row: 0.0005,
            feedback: None,
        }
    }

    /// Attach a cardinality-feedback store: physical estimates for subtrees
    /// the store has observed are scaled by the learned actual/estimated
    /// ratio. An empty store leaves every estimate unchanged.
    pub fn with_feedback(mut self, feedback: Arc<CardinalityFeedback>) -> Self {
        self.feedback = Some(feedback);
        self
    }

    fn stats(&self, source: &str, table: &str) -> Arc<TableStats> {
        self.federation
            .table_stats(&format!("{source}.{table}"))
            .unwrap_or_default()
    }

    /// Selectivity of a predicate against a table's statistics
    /// (`schema_col` resolves an unqualified column name to its position).
    pub fn selectivity(
        &self,
        pred: &Expr,
        stats: &TableStats,
        col_index: &dyn Fn(&str) -> Option<usize>,
    ) -> f64 {
        match pred {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                let col = match (&**left, &**right) {
                    (Expr::Column { name, .. }, Expr::Literal(_)) => Some(name),
                    (Expr::Literal(_), Expr::Column { name, .. }) => Some(name),
                    _ => None,
                };
                let Some(col) = col.and_then(|c| col_index(c)) else {
                    return if *op == BinaryOp::Eq {
                        DEFAULT_EQ_SEL
                    } else {
                        DEFAULT_RANGE_SEL
                    };
                };
                match op {
                    BinaryOp::Eq => stats.eq_selectivity(col),
                    BinaryOp::NotEq => 1.0 - stats.eq_selectivity(col),
                    BinaryOp::Lt | BinaryOp::LtEq => {
                        let lit = literal_of(left, right);
                        stats.range_selectivity(col, None, lit.as_ref())
                    }
                    BinaryOp::Gt | BinaryOp::GtEq => {
                        let lit = literal_of(left, right);
                        stats.range_selectivity(col, lit.as_ref(), None)
                    }
                    _ => DEFAULT_OTHER_SEL,
                }
            }
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                self.selectivity(left, stats, col_index) * self.selectivity(right, stats, col_index)
            }
            Expr::Binary {
                left,
                op: BinaryOp::Or,
                right,
            } => {
                let a = self.selectivity(left, stats, col_index);
                let b = self.selectivity(right, stats, col_index);
                (a + b - a * b).min(1.0)
            }
            Expr::Like { .. } => DEFAULT_LIKE_SEL,
            Expr::InList { expr, list, .. } => {
                if let Expr::Column { name, .. } = &**expr {
                    if let Some(col) = col_index(name) {
                        return (stats.eq_selectivity(col) * list.len() as f64).min(1.0);
                    }
                }
                (DEFAULT_EQ_SEL * list.len() as f64).min(1.0)
            }
            Expr::Between { expr, low, high, .. } => {
                if let Expr::Column { name, .. } = &**expr {
                    if let Some(col) = col_index(name) {
                        let lo = expr_literal(low);
                        let hi = expr_literal(high);
                        return stats.range_selectivity(col, lo.as_ref(), hi.as_ref());
                    }
                }
                DEFAULT_RANGE_SEL
            }
            Expr::IsNull { .. } => DEFAULT_EQ_SEL,
            _ => DEFAULT_OTHER_SEL,
        }
    }

    /// Estimated output cardinality of a logical plan.
    pub fn rows(&self, plan: &LogicalPlan) -> Result<f64> {
        Ok(match plan {
            LogicalPlan::SourceScan {
                source,
                table,
                base_schema,
                pushed_filters,
                ..
            } => {
                let stats = self.stats(source, table);
                let lookup = |name: &str| base_schema.index_of(None, name).ok();
                let mut rows = stats.row_count as f64;
                for f in pushed_filters {
                    rows *= self.selectivity(f, &stats, &lookup);
                }
                rows
            }
            LogicalPlan::Values { rows, .. } => rows.len() as f64,
            LogicalPlan::MatViewScan { local, .. } => local.rows,
            LogicalPlan::Filter { input, predicate } => {
                // Generic filter: use default selectivities (no stats for
                // derived relations).
                let stats = TableStats::default();
                let sel = self.selectivity(predicate, &stats, &|_| None);
                self.rows(input)? * sel
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Alias { input, .. } => self.rows(input)?,
            LogicalPlan::Limit { input, n } => self.rows(input)?.min(*n as f64),
            LogicalPlan::Distinct { input } => self.rows(input)? * 0.9,
            LogicalPlan::Join {
                left, right, kind, on,
            } => {
                let l = self.rows(left)?;
                let r = self.rows(right)?;
                match kind {
                    JoinKind::Cross if on.is_none() => l * r,
                    JoinKind::Left => (l * r / r.max(1.0)).max(l),
                    // Semi/anti joins only ever shrink the left side.
                    JoinKind::Semi | JoinKind::Anti => (l * 0.5).max(1.0).min(l),
                    _ => {
                        // Equi-join heuristic: |L|*|R| / max(|L|,|R|).
                        if on.is_some() {
                            (l * r / l.max(r).max(1.0)).max(1.0)
                        } else {
                            l * r
                        }
                    }
                }
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                let n = self.rows(input)?;
                if group_by.is_empty() {
                    1.0
                } else {
                    // Groups grow sublinearly with input.
                    n.sqrt().max(1.0).min(n)
                }
            }
            LogicalPlan::UnionAll { inputs } => {
                let mut total = 0.0;
                for i in inputs {
                    total += self.rows(i)?;
                }
                total
            }
        })
    }

    /// Estimated average row width (bytes) of a plan's output.
    pub fn row_width(&self, plan: &LogicalPlan) -> Result<f64> {
        Ok(match plan {
            LogicalPlan::SourceScan {
                source,
                table,
                base_schema,
                projection,
                ..
            } => {
                let stats = self.stats(source, table);
                match projection {
                    None => {
                        if stats.columns.is_empty() {
                            base_schema.len() as f64 * 12.0
                        } else {
                            stats.avg_row_width()
                        }
                    }
                    Some(cols) => cols
                        .iter()
                        .map(|c| {
                            base_schema
                                .index_of(None, c)
                                .ok()
                                .and_then(|i| stats.columns.get(i))
                                .map_or(12.0, |cs| cs.avg_width)
                        })
                        .sum(),
                }
            }
            other => {
                // Derived relations: 12 bytes per column as a crude default.
                other.schema().map(|s| s.len() as f64 * 12.0)?
            }
        })
    }

    /// Predict the execution profile of a logical plan executed with all
    /// data assembled at the hub (the baseline the executor refines).
    pub fn estimate(&self, plan: &LogicalPlan) -> Result<PlanEstimate> {
        Ok(match plan {
            LogicalPlan::SourceScan { source, table, .. } => {
                let rows = self.rows(plan)?;
                let width = self.row_width(plan)?;
                let bytes = rows * width;
                let stats = self.stats(source, table);
                let link = self
                    .federation
                    .source(source)
                    .map(|h| h.link())
                    .unwrap_or(eii_federation::LinkProfile::local());
                let sim_ms = link.transfer_ms(bytes as usize)
                    + stats.row_count as f64 * 0.001;
                PlanEstimate { rows, bytes, sim_ms }
            }
            // The rewrite pass froze this node's estimate when it chose it.
            LogicalPlan::MatViewScan { local, .. } => *local,
            LogicalPlan::Join { left, right, .. } => {
                // Access-limited sides execute as bind joins: one service
                // call per probe key, and only matching rows ship back.
                for (scan_side, other_side) in [(right, left), (left, right)] {
                    if let LogicalPlan::SourceScan { source, table, .. } = &**scan_side {
                        let Ok(handle) = self.federation.source(source) else {
                            continue;
                        };
                        if handle
                            .connector()
                            .capabilities()
                            .pattern_for(table)
                            .is_none()
                        {
                            continue;
                        }
                        let probe = self.estimate(other_side)?;
                        let rows = self.rows(plan)?;
                        let width = self.row_width(scan_side)?;
                        let match_bytes = rows * width;
                        let link = handle.link();
                        let calls = probe.rows.max(1.0);
                        let transfer = if link.bandwidth_bytes_per_ms.is_infinite() {
                            0.0
                        } else {
                            match_bytes / link.bandwidth_bytes_per_ms
                        };
                        return Ok(PlanEstimate {
                            rows,
                            bytes: probe.bytes + match_bytes,
                            sim_ms: probe.sim_ms
                                + calls * link.latency_ms
                                + transfer
                                + (probe.rows + rows) * self.hub_ms_per_row,
                        });
                    }
                }
                let l = self.estimate(left)?;
                let r = self.estimate(right)?;
                let rows = self.rows(plan)?;
                PlanEstimate {
                    rows,
                    bytes: l.bytes + r.bytes,
                    sim_ms: l.sim_ms.max(r.sim_ms)
                        + (l.rows + r.rows + rows) * self.hub_ms_per_row,
                }
            }
            LogicalPlan::UnionAll { inputs } => {
                let mut est = PlanEstimate::default();
                for i in inputs {
                    let e = self.estimate(i)?;
                    est.rows += e.rows;
                    est.bytes += e.bytes;
                    est.sim_ms = est.sim_ms.max(e.sim_ms);
                }
                est
            }
            other => {
                let children = other.children();
                let mut est = PlanEstimate::default();
                for c in children {
                    let e = self.estimate(c)?;
                    est.rows += e.rows;
                    est.bytes += e.bytes;
                    est.sim_ms += e.sim_ms;
                }
                let out_rows = self.rows(other)?;
                PlanEstimate {
                    rows: out_rows,
                    bytes: est.bytes,
                    sim_ms: est.sim_ms + est.rows * self.hub_ms_per_row,
                }
            }
        })
    }

    /// Predicted profile of one component query: rows surviving the pushed
    /// filters (and limit), the bytes they occupy on the wire, and source
    /// scan + transfer time.
    fn estimate_component(&self, source: &str, query: &SourceQuery) -> PlanEstimate {
        let stats = self.stats(source, &query.table);
        let base_schema = self
            .federation
            .table_schema(&format!("{source}.{}", query.table))
            .ok();
        let lookup = |name: &str| {
            base_schema
                .as_ref()
                .and_then(|s| s.index_of(None, name).ok())
        };
        let mut rows = stats.row_count as f64;
        for f in &query.filters {
            rows *= self.selectivity(f, &stats, &lookup);
        }
        if let Some(n) = query.limit {
            rows = rows.min(n as f64);
        }
        let width = match &query.projection {
            None if !stats.columns.is_empty() => stats.avg_row_width(),
            None => 48.0,
            Some(cols) => cols
                .iter()
                .map(|c| {
                    lookup(c)
                        .and_then(|i| stats.columns.get(i))
                        .map_or(12.0, |cs| cs.avg_width)
                })
                .sum(),
        };
        let bytes = rows * width;
        let link = self
            .federation
            .source(source)
            .map(|h| h.link())
            .unwrap_or(eii_federation::LinkProfile::local());
        PlanEstimate {
            rows,
            bytes,
            sim_ms: link.transfer_ms(bytes as usize) + stats.row_count as f64 * 0.001,
        }
    }

    /// Predict the execution profile of one physical operator's subtree.
    /// `EXPLAIN ANALYZE` prints this next to each operator's actuals; unlike
    /// [`CostModel::estimate`] it follows the *physical* shape the planner
    /// chose (bind joins, pushed component queries, parallel unions).
    pub fn estimate_physical(&self, plan: &PhysicalPlan) -> PlanEstimate {
        let kids: Vec<PlanEstimate> =
            plan.children().into_iter().map(|c| self.estimate_physical(c)).collect();
        self.estimate_from_children(plan, &kids)
    }

    /// One operator's estimate derived from its children's already-computed
    /// estimates (in [`PhysicalPlan::children`] order) — the per-node core
    /// of [`CostModel::estimate_physical`]. Exposed so tree walkers (the
    /// facade's walk over an executed plan and its profile) can estimate
    /// every node of a plan in one bottom-up pass instead of re-estimating
    /// each subtree, which looks source table statistics up O(depth) times
    /// per scan.
    pub fn estimate_from_children(
        &self,
        plan: &PhysicalPlan,
        kids: &[PlanEstimate],
    ) -> PlanEstimate {
        let est = match plan {
            PhysicalPlan::Source { source, query, .. } => self.estimate_component(source, query),
            PhysicalPlan::Values { rows, .. } => PlanEstimate {
                rows: rows.len() as f64,
                bytes: 0.0,
                sim_ms: 0.0,
            },
            // Frozen by the rewrite pass when it chose the view over the
            // federated alternative.
            PhysicalPlan::MatViewScan { local, .. } => *local,
            PhysicalPlan::Filter { predicate, .. } => {
                let e = kids[0];
                let sel = self.selectivity(predicate, &TableStats::default(), &|_| None);
                PlanEstimate {
                    rows: e.rows * sel,
                    bytes: e.bytes,
                    sim_ms: e.sim_ms + e.rows * self.hub_ms_per_row,
                }
            }
            PhysicalPlan::Project { .. }
            | PhysicalPlan::Sort { .. }
            | PhysicalPlan::Rename { .. } => {
                let e = kids[0];
                PlanEstimate {
                    sim_ms: e.sim_ms + e.rows * self.hub_ms_per_row,
                    ..e
                }
            }
            PhysicalPlan::Limit { n, .. } => {
                let e = kids[0];
                PlanEstimate {
                    rows: e.rows.min(*n as f64),
                    ..e
                }
            }
            PhysicalPlan::Distinct { .. } => {
                let e = kids[0];
                PlanEstimate {
                    rows: e.rows * 0.9,
                    bytes: e.bytes,
                    sim_ms: e.sim_ms + e.rows * self.hub_ms_per_row,
                }
            }
            PhysicalPlan::HashJoin { kind, parallel, .. }
            | PhysicalPlan::NestedLoopJoin { kind, parallel, .. } => {
                let (l, r) = (kids[0], kids[1]);
                let rows = join_rows(l.rows, r.rows, *kind, plan.join_condition_present());
                let input_sim = if *parallel {
                    l.sim_ms.max(r.sim_ms)
                } else {
                    l.sim_ms + r.sim_ms
                };
                PlanEstimate {
                    rows,
                    bytes: l.bytes + r.bytes,
                    sim_ms: input_sim + (l.rows + r.rows + rows) * self.hub_ms_per_row,
                }
            }
            PhysicalPlan::BindJoin {
                source, template, ..
            } => {
                let l = kids[0];
                let right = self.estimate_component(source, template);
                // One round trip per distinct probe key; only matching rows
                // ship back.
                let rows = join_rows(l.rows, right.rows, JoinKind::Inner, true);
                let width = if right.rows > 0.0 {
                    right.bytes / right.rows
                } else {
                    0.0
                };
                let match_bytes = rows * width;
                let link = self
                    .federation
                    .source(source)
                    .map(|h| h.link())
                    .unwrap_or(eii_federation::LinkProfile::local());
                PlanEstimate {
                    rows,
                    bytes: l.bytes + match_bytes,
                    sim_ms: l.sim_ms
                        + l.rows.max(1.0) * link.latency_ms
                        + link.transfer_ms(match_bytes as usize)
                        + (l.rows + rows) * self.hub_ms_per_row,
                }
            }
            PhysicalPlan::Aggregate { group_by, .. } => {
                let e = kids[0];
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    e.rows.sqrt().max(1.0).min(e.rows)
                };
                PlanEstimate {
                    rows,
                    bytes: e.bytes,
                    sim_ms: e.sim_ms + e.rows * self.hub_ms_per_row,
                }
            }
            PhysicalPlan::UnionAll { parallel, .. } => {
                let mut est = PlanEstimate::default();
                for e in kids {
                    est.rows += e.rows;
                    est.bytes += e.bytes;
                    est.sim_ms = if *parallel {
                        est.sim_ms.max(e.sim_ms)
                    } else {
                        est.sim_ms + e.sim_ms
                    };
                }
                est
            }
        };
        // Fold in learned cardinality corrections last so feedback composes
        // with (rather than replaces) the statistics-based estimate; an
        // absent or empty store leaves `est` untouched.
        match &self.feedback {
            Some(fb) if !fb.is_empty() => PlanEstimate {
                rows: fb.corrected_rows(CardinalityFeedback::node_key(plan), est.rows),
                ..est
            },
            _ => est,
        }
    }
}

/// Shared equi-join cardinality heuristic: `|L|*|R| / max(|L|,|R|)` with a
/// condition, the full cross product without one; outer joins keep at least
/// the left side.
fn join_rows(l: f64, r: f64, kind: JoinKind, has_condition: bool) -> f64 {
    match kind {
        JoinKind::Left => (l * r / r.max(1.0)).max(l),
        JoinKind::Semi | JoinKind::Anti => (l * 0.5).max(1.0).min(l),
        _ if has_condition => (l * r / l.max(r).max(1.0)).max(1.0),
        _ => l * r,
    }
}

fn literal_of(left: &Expr, right: &Expr) -> Option<Value> {
    match (left, right) {
        (_, Expr::Literal(v)) => Some(v.clone()),
        (Expr::Literal(v), _) => Some(v.clone()),
        _ => None,
    }
}

fn expr_literal(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, DataType, Field, Schema, SimClock};
    use eii_federation::{LinkProfile, RelationalConnector, WireFormat};
    use eii_storage::{Database, TableDef};
    use std::sync::Arc;

    fn fed_with_customers(n: i64) -> Federation {
        let db = Database::new("crm", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("region", DataType::Str),
        ]));
        let t = db
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        for i in 0..n {
            t.write()
                .insert(row![i, format!("region{}", i % 4)])
                .unwrap();
        }
        let fed = Federation::new();
        fed.register(
            Arc::new(RelationalConnector::new(db)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        fed
    }

    fn scan(fed: &Federation, filters: Vec<Expr>) -> LogicalPlan {
        LogicalPlan::SourceScan {
            source: "crm".into(),
            table: "customers".into(),
            alias: "c".into(),
            base_schema: fed.table_schema("crm.customers").unwrap(),
            pushed_filters: filters,
            projection: None,
            limit: None,
        }
    }

    #[test]
    fn scan_estimate_uses_stats() {
        let fed = fed_with_customers(100);
        let model = CostModel::new(&fed);
        assert!((model.rows(&scan(&fed, vec![])).unwrap() - 100.0).abs() < 1e-9);
        // region = 'region0' has ndv 4 -> 25 rows.
        let filtered = scan(&fed, vec![Expr::col("region").eq(Expr::lit("region0"))]);
        assert!((model.rows(&filtered).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_is_submultiplicative() {
        let fed = fed_with_customers(100);
        let model = CostModel::new(&fed);
        let j = LogicalPlan::Join {
            left: Box::new(scan(&fed, vec![])),
            right: Box::new(scan(&fed, vec![])),
            kind: eii_sql::JoinKind::Inner,
            on: Some(Expr::qcol("c", "id").eq(Expr::qcol("c", "id"))),
        };
        let rows = model.rows(&j).unwrap();
        assert!(rows <= 100.0 * 100.0);
        assert!(rows >= 1.0);
    }

    #[test]
    fn estimate_includes_network_latency() {
        let fed = fed_with_customers(10);
        let model = CostModel::new(&fed);
        let e = model.estimate(&scan(&fed, vec![])).unwrap();
        assert!(e.sim_ms >= LinkProfile::lan().latency_ms);
        assert!(e.bytes > 0.0);
    }

    #[test]
    fn range_selectivity_from_minmax() {
        let fed = fed_with_customers(100);
        let model = CostModel::new(&fed);
        // id < 50 covers about half of [0, 99].
        let filtered = scan(&fed, vec![Expr::col("id").lt(Expr::lit(50i64))]);
        let rows = model.rows(&filtered).unwrap();
        assert!((40.0..=60.0).contains(&rows), "rows={rows}");
    }

    #[test]
    fn feedback_corrects_physical_estimates() {
        use crate::feedback::CardinalityFeedback;

        let fed = fed_with_customers(100);
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int)]));
        let plan = PhysicalPlan::Values {
            schema,
            rows: vec![row![1i64], row![2i64]],
        };
        // Without feedback (and with an empty store) the estimate is the
        // literal row count.
        let base = CostModel::new(&fed).estimate_physical(&plan);
        assert!((base.rows - 2.0).abs() < 1e-9);
        let fb = Arc::new(CardinalityFeedback::new());
        let model = CostModel::new(&fed).with_feedback(fb.clone());
        assert!((model.estimate_physical(&plan).rows - 2.0).abs() < 1e-9);
        // After observing that this exact subtree actually produced 8 rows,
        // the corrected estimate follows the learned ratio.
        fb.observe(CardinalityFeedback::node_key(&plan), base.rows, 8.0);
        let corrected = model.estimate_physical(&plan);
        assert!((corrected.rows - 8.0).abs() < 1e-9, "rows={}", corrected.rows);
    }

    #[test]
    fn aggregate_rows_shrink() {
        let fed = fed_with_customers(100);
        let model = CostModel::new(&fed);
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan(&fed, vec![])),
            group_by: vec![Expr::qcol("c", "region")],
            aggs: vec![],
        };
        let rows = model.rows(&agg).unwrap();
        assert!(rows < 100.0);
        let global = LogicalPlan::Aggregate {
            input: Box::new(scan(&fed, vec![])),
            group_by: vec![],
            aggs: vec![],
        };
        assert!((model.rows(&global).unwrap() - 1.0).abs() < 1e-9);
    }
}
