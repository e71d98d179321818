//! Rewrite rules: constant folding, predicate pushdown, projection pruning.
//!
//! Predicate pushdown is *the* EII optimization — "the more work the
//! component queries can do, the less work will remain to be done at the
//! assembly site" (Bitton §3). Predicates travel through projections,
//! aliases, joins, unions, and aggregates until they either reach a source
//! scan whose dialect accepts them (becoming part of the component query) or
//! get stuck and stay at the assembly site.

use std::cell::Cell;
use std::collections::BTreeSet;

use eii_data::{Result, Schema, Value};
use eii_expr::{conjoin, conjuncts, fold_constants, referenced_columns, Expr};
use eii_federation::{Dialect, Federation};
use eii_sql::JoinKind;

use crate::config::PlannerConfig;
use crate::join_order::reorder_joins;
use crate::logical::LogicalPlan;
use crate::util::{resolves_in, rewrite_through_project};

/// Run the full rewrite pipeline.
pub fn optimize(
    plan: LogicalPlan,
    federation: &Federation,
    config: &PlannerConfig,
) -> Result<LogicalPlan> {
    let plan = fold_plan_constants(plan);
    let mut plan = push_down(plan, Vec::new(), federation, config)?;
    if config.reorder_joins {
        plan = reorder_joins(plan, federation)?;
    }
    if config.pushdown_projection {
        plan = prune_scan_projections(plan, federation);
    }
    if config.pushdown_limits {
        plan = push_limits(plan, federation);
    }
    Ok(plan)
}

/// Bottom-up structural edit: `f` sees every node after its children.
fn map_plan(plan: LogicalPlan, f: &impl Fn(&mut LogicalPlan)) -> LogicalPlan {
    let mut plan = plan
        .map_children(|child| Ok(map_plan(child, f)))
        .expect("the closure never fails");
    f(&mut plan);
    plan
}

/// Push LIMIT caps into source component queries. Only row-preserving
/// nodes (Project, Alias) may sit between the Limit and the scan; the scan's
/// own pushed filters are fine because sources apply filters before limits.
/// The Limit node itself stays (the cap at the source makes it a no-op).
fn push_limits(plan: LogicalPlan, fed: &Federation) -> LogicalPlan {
    map_plan(plan, &|node| {
        if let LogicalPlan::Limit { input, n } = node {
            annotate_limit(input, *n, fed);
        }
    })
}

fn annotate_limit(plan: &mut LogicalPlan, n: usize, fed: &Federation) {
    match plan {
        LogicalPlan::Project { input, .. } | LogicalPlan::Alias { input, .. } => {
            annotate_limit(input, n, fed)
        }
        LogicalPlan::Limit { input, n: inner } => annotate_limit(input, n.min(*inner), fed),
        LogicalPlan::SourceScan { source, limit, .. }
            if fed
                .source(source)
                .is_ok_and(|h| h.connector().capabilities().limit) =>
        {
            *limit = Some(limit.map_or(n, |prev| prev.min(n)));
        }
        _ => {}
    }
}

/// Fold constants in every expression of the plan.
pub fn fold_plan_constants(plan: LogicalPlan) -> LogicalPlan {
    let fold = |e: &mut Expr| *e = fold_constants(std::mem::replace(e, Expr::Literal(Value::Null)));
    map_plan(plan, &|node| match node {
        LogicalPlan::Filter { predicate, .. } => fold(predicate),
        LogicalPlan::Project { exprs, .. } => exprs.iter_mut().for_each(|(e, _)| fold(e)),
        LogicalPlan::Join { on: Some(on), .. } => fold(on),
        _ => {}
    })
}

/// Remove relation qualifiers (predicate addressed to a single table).
fn strip_qualifiers(expr: Expr) -> Expr {
    expr.transform(|e| match e {
        Expr::Column { name, .. } => Expr::Column {
            relation: None,
            name,
        },
        other => other,
    })
}

/// Rewrite a predicate across a boundary that renames columns but keeps
/// their positions — an Alias (`from` the aliased schema, `to` its input's)
/// or a UnionAll into one branch (`from` the union's, `to` the branch's):
/// each reference that resolves in `from` becomes the field of `to` at the
/// same index. `None` when any reference fails to resolve.
fn rewrite_by_position(expr: &Expr, from: &Schema, to: &Schema) -> Option<Expr> {
    let ok = Cell::new(true);
    let rewritten = expr.clone().transform(|e| match e {
        Expr::Column { relation, name } => match from.index_of(relation.as_deref(), &name) {
            Ok(i) => {
                let f = to.field(i);
                Expr::Column {
                    relation: f.relation.clone(),
                    name: f.name.clone(),
                }
            }
            Err(_) => {
                ok.set(false);
                Expr::Column { relation, name }
            }
        },
        other => other,
    });
    ok.get().then_some(rewritten)
}

/// Rewrite a predicate across an Aggregate: references to group-key output
/// names become the grouping expressions; references to aggregate outputs
/// block the rewrite.
fn rewrite_through_aggregate(
    expr: &Expr,
    group_by: &[Expr],
    agg_names: &[String],
) -> Option<Expr> {
    let ok = Cell::new(true);
    let rewritten = expr.clone().transform(|e| match e {
        Expr::Column { relation, name } => {
            if relation.is_none() {
                if agg_names.iter().any(|a| a.eq_ignore_ascii_case(&name)) {
                    ok.set(false);
                    return Expr::Column { relation, name };
                }
                if let Some(g) = group_by
                    .iter()
                    .find(|g| g.output_name().eq_ignore_ascii_case(&name))
                {
                    return g.clone();
                }
            }
            ok.set(false);
            Expr::Column { relation, name }
        }
        other => other,
    });
    ok.get().then_some(rewritten)
}

/// Wrap residual conjuncts above a node.
fn wrap_residual(plan: LogicalPlan, residual: Vec<Expr>) -> LogicalPlan {
    match conjoin(residual) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        },
        None => plan,
    }
}

/// Split `pending` at a single-input node: the conjuncts `through` can
/// re-express over the node's input (to push on down), and the ones it
/// cannot (to stay above the node).
fn split(
    pending: Vec<Expr>,
    through: impl Fn(&Expr) -> Option<Expr>,
) -> (Vec<Expr>, Vec<Expr>) {
    let (mut below, mut residual) = (Vec::new(), Vec::new());
    for p in pending {
        match through(&p) {
            Some(r) => below.push(r),
            None => residual.push(p),
        }
    }
    (below, residual)
}

/// Keep pushing below `plan`: its i-th child takes `below[i]` as pending,
/// and `residual` stays above it as a Filter.
fn sink(
    plan: LogicalPlan,
    below: impl IntoIterator<Item = Vec<Expr>>,
    residual: Vec<Expr>,
    fed: &Federation,
    config: &PlannerConfig,
) -> Result<LogicalPlan> {
    let mut below = below.into_iter();
    let plan = plan.map_children(|child| {
        let pending = below.next().expect("one pending list per child");
        push_down(child, pending, fed, config)
    })?;
    Ok(wrap_residual(plan, residual))
}

/// The pushdown driver: `pending` conjuncts are looking for the deepest
/// node that can evaluate them.
fn push_down(
    mut plan: LogicalPlan,
    mut pending: Vec<Expr>,
    fed: &Federation,
    config: &PlannerConfig,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            pending.extend(conjuncts(&fold_constants(predicate)));
            push_down(*input, pending, fed, config)
        }
        LogicalPlan::SourceScan {
            ref source,
            ref alias,
            ref base_schema,
            ref mut pushed_filters,
            ..
        } => {
            let handle = fed.source(source)?;
            let caps = handle.connector().capabilities();
            let dialect: Dialect = config
                .dialect_override
                .clone()
                .unwrap_or_else(|| handle.connector().dialect());
            let qualified = base_schema.qualified(alias);
            let mut residual = Vec::new();
            for p in pending {
                let can_push = config.pushdown_filters
                    && caps.filters
                    && resolves_in(&p, &qualified)
                    && dialect.supports(&strip_qualifiers(p.clone()));
                if can_push {
                    pushed_filters.push(strip_qualifiers(p));
                } else {
                    residual.push(p);
                }
            }
            Ok(wrap_residual(plan, residual))
        }
        LogicalPlan::Alias { ref input, .. } => {
            let (aliased, inner) = (plan.schema()?, input.schema()?);
            let (below, residual) = split(pending, |p| rewrite_by_position(p, &aliased, &inner));
            sink(plan, [below], residual, fed, config)
        }
        LogicalPlan::Project { ref exprs, .. } => {
            let (below, residual) = split(pending, |p| rewrite_through_project(p, exprs));
            sink(plan, [below], residual, fed, config)
        }
        LogicalPlan::Aggregate {
            ref group_by,
            ref aggs,
            ..
        } => {
            let agg_names: Vec<String> = aggs.iter().map(|a| a.name.clone()).collect();
            let (below, residual) = split(pending, |p| {
                rewrite_through_aggregate(p, group_by, &agg_names)
            });
            sink(plan, [below], residual, fed, config)
        }
        LogicalPlan::Distinct { .. } | LogicalPlan::Sort { .. } => {
            sink(plan, [pending], Vec::new(), fed, config)
        }
        // Filters cannot cross a LIMIT.
        LogicalPlan::Limit { .. } => sink(plan, [Vec::new()], pending, fed, config),
        LogicalPlan::Join {
            ref left,
            ref right,
            ref mut kind,
            ref mut on,
        } => {
            let left_schema = left.schema()?;
            let right_schema = right.schema()?;
            let (mut left_pending, mut right_pending) = (Vec::new(), Vec::new());
            let mut residual = Vec::new();
            match *kind {
                JoinKind::Inner | JoinKind::Cross => {
                    // ON conjuncts join the pending pool; what neither side
                    // can evaluate alone is the new join condition.
                    let mut pool = pending;
                    pool.extend(on.iter().flat_map(conjuncts));
                    let mut join_preds = Vec::new();
                    for p in pool {
                        if resolves_in(&p, &left_schema) {
                            left_pending.push(p);
                        } else if resolves_in(&p, &right_schema) {
                            right_pending.push(p);
                        } else {
                            join_preds.push(p);
                        }
                    }
                    if !join_preds.is_empty() {
                        *kind = JoinKind::Inner;
                    }
                    *on = conjoin(join_preds);
                }
                JoinKind::Left | JoinKind::Semi | JoinKind::Anti => {
                    // Pending predicates on the preserved side sink; right-
                    // side or mixed ones from above must stay above a LEFT
                    // join (null-extension semantics), and a SEMI/ANTI join
                    // shows them left columns only (filters on L commute
                    // with it).
                    for p in pending {
                        if resolves_in(&p, &left_schema) {
                            left_pending.push(p);
                        } else {
                            residual.push(p);
                        }
                    }
                    // A LEFT join's ON stays whole. SEMI/ANTI: right-only
                    // conjuncts restrict which right rows can match and sink
                    // right for both kinds. Left-only ones sink left for
                    // SEMI (a left row failing the condition has no match
                    // and is dropped either way) but must stay in the ON for
                    // ANTI (failing rows have no match and must be KEPT).
                    if *kind != JoinKind::Left {
                        let mut kept = Vec::new();
                        for c in on.iter().flat_map(conjuncts) {
                            let in_left = resolves_in(&c, &left_schema);
                            let in_right = resolves_in(&c, &right_schema);
                            if in_right && !in_left {
                                right_pending.push(c);
                            } else if *kind == JoinKind::Semi && in_left && !in_right {
                                left_pending.push(c);
                            } else {
                                // Cross-side, or ambiguous enough to resolve
                                // on both sides: keep it as the join
                                // condition.
                                kept.push(c);
                            }
                        }
                        *on = conjoin(kept);
                    }
                }
            }
            sink(plan, [left_pending, right_pending], residual, fed, config)
        }
        LogicalPlan::UnionAll { ref inputs } => {
            let union_schema = plan.schema()?;
            let branch_schemas = inputs
                .iter()
                .map(LogicalPlan::schema)
                .collect::<Result<Vec<_>>>()?;
            // A pending conjunct pushes only if it rewrites into *every*
            // branch.
            let mut below = vec![Vec::new(); inputs.len()];
            let mut residual = Vec::new();
            for p in pending {
                let per_branch: Option<Vec<Expr>> = branch_schemas
                    .iter()
                    .map(|bs| rewrite_by_position(&p, &union_schema, bs))
                    .collect();
                match per_branch {
                    Some(rewritten) => {
                        for (branch, r) in below.iter_mut().zip(rewritten) {
                            branch.push(r);
                        }
                    }
                    None => residual.push(p),
                }
            }
            sink(plan, below, residual, fed, config)
        }
        LogicalPlan::Values { .. } | LogicalPlan::MatViewScan { .. } => {
            Ok(wrap_residual(plan, pending))
        }
    }
}

/// Collect every column reference appearing in any expression of the plan.
fn collect_all_refs(plan: &LogicalPlan, out: &mut BTreeSet<(Option<String>, String)>) {
    let mut add = |e: &Expr| {
        for c in referenced_columns(e) {
            out.insert((c.relation, c.name));
        }
    };
    match plan {
        LogicalPlan::Filter { predicate, .. } => add(predicate),
        LogicalPlan::Project { exprs, .. } => {
            for (e, _) in exprs {
                add(e);
            }
        }
        LogicalPlan::Join { on: Some(on), .. } => add(on),
        LogicalPlan::Aggregate {
            group_by, aggs, ..
        } => {
            for g in group_by {
                add(g);
            }
            for a in aggs {
                if let Some(arg) = &a.arg {
                    add(arg);
                }
            }
        }
        LogicalPlan::Sort { keys, .. } => {
            for (e, _) in keys {
                add(e);
            }
        }
        _ => {}
    }
    for c in plan.children() {
        collect_all_refs(c, out);
    }
}

/// Set each scan's projection to the columns the rest of the plan actually
/// references (network-volume reduction; Bitton's "local reduction").
fn prune_scan_projections(plan: LogicalPlan, fed: &Federation) -> LogicalPlan {
    let mut refs = BTreeSet::new();
    collect_all_refs(&plan, &mut refs);
    map_plan(plan, &|node| {
        let LogicalPlan::SourceScan {
            source,
            alias,
            base_schema,
            projection,
            ..
        } = node
        else {
            return;
        };
        let prunes = fed
            .source(source)
            .is_ok_and(|h| h.connector().capabilities().projection);
        if !prunes || projection.is_some() {
            return;
        }
        let mut needed: Vec<String> = Vec::new();
        for f in base_schema.fields() {
            let used = refs.iter().any(|(rel, name)| {
                name.eq_ignore_ascii_case(&f.name)
                    && match rel {
                        Some(r) => r.eq_ignore_ascii_case(alias),
                        None => true, // conservative: unqualified matches
                    }
            });
            if used {
                needed.push(f.name.clone());
            }
        }
        if needed.is_empty() {
            // e.g. COUNT(*): ship the narrowest thing we can, one column.
            needed.push(base_schema.field(0).name.clone());
        }
        if needed.len() < base_schema.len() {
            *projection = Some(needed);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PlanBuilder;
    use eii_catalog::Catalog;
    use eii_data::{row, DataType, Field, Schema, SimClock};
    use eii_federation::{
        CsvConnector, LinkProfile, RelationalConnector, WireFormat,
    };
    use eii_sql::parse_query;
    use eii_storage::{Database, TableDef};
    use std::sync::Arc;

    fn setup() -> (Catalog, Federation) {
        let crm = Database::new("crm", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("region", DataType::Str),
        ]));
        let t = crm
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        for i in 0..20i64 {
            t.write()
                .insert(row![i, format!("c{i}"), format!("r{}", i % 4)])
                .unwrap();
        }
        let orders = Database::new("orders", SimClock::new());
        let oschema = Arc::new(Schema::new(vec![
            Field::new("order_id", DataType::Int).not_null(),
            Field::new("customer_id", DataType::Int),
            Field::new("total", DataType::Float),
        ]));
        let ot = orders
            .create_table(TableDef::new("orders", oschema).with_primary_key(0))
            .unwrap();
        for i in 0..50i64 {
            ot.write().insert(row![i, i % 20, i as f64]).unwrap();
        }
        let files = CsvConnector::new("files")
            .add_file(
                "notes",
                "id,note\n1,hello\n2,world\n",
                ',',
                &[DataType::Int, DataType::Str],
            )
            .unwrap();
        let fed = Federation::new();
        fed.register(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        fed.register(
            Arc::new(RelationalConnector::new(orders)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        fed.register(Arc::new(files), LinkProfile::lan(), WireFormat::Native)
            .unwrap();
        (Catalog::new(), fed)
    }

    fn optimized(sql: &str, cat: &Catalog, fed: &Federation, cfg: &PlannerConfig) -> LogicalPlan {
        let plan = PlanBuilder::new(cat, fed)
            .build(&parse_query(sql).unwrap())
            .unwrap();
        optimize(plan, fed, cfg).unwrap()
    }

    fn find_scans(plan: &LogicalPlan, out: &mut Vec<LogicalPlan>) {
        if matches!(plan, LogicalPlan::SourceScan { .. }) {
            out.push(plan.clone());
        }
        for c in plan.children() {
            find_scans(c, out);
        }
    }

    #[test]
    fn filter_reaches_the_scan() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT name FROM crm.customers WHERE region = 'r1' AND id > 5",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { pushed_filters, .. } => {
                assert_eq!(pushed_filters.len(), 2, "{}", p.display());
            }
            _ => unreachable!(),
        }
        // No residual filter remains.
        assert!(!p.display().contains("Filter"), "{}", p.display());
    }

    #[test]
    fn naive_config_pushes_nothing() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT name FROM crm.customers WHERE region = 'r1'",
            &cat,
            &fed,
            &PlannerConfig::naive(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan {
                pushed_filters,
                projection,
                ..
            } => {
                assert!(pushed_filters.is_empty());
                assert!(projection.is_none());
            }
            _ => unreachable!(),
        }
        assert!(p.display().contains("Filter"));
    }

    #[test]
    fn join_splits_predicates_by_side() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT c.name, o.total FROM crm.customers c JOIN orders.orders o \
             ON c.id = o.customer_id WHERE c.region = 'r1' AND o.total > 10",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        assert_eq!(scans.len(), 2);
        for s in &scans {
            match s {
                LogicalPlan::SourceScan {
                    source,
                    pushed_filters,
                    ..
                } => {
                    assert_eq!(pushed_filters.len(), 1, "source {source}");
                }
                _ => unreachable!(),
            }
        }
        // The cross-source equi predicate stays as the join condition.
        assert!(p.display().contains("INNER JOIN ON"), "{}", p.display());
    }

    #[test]
    fn flat_file_cannot_accept_pushdown() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT note FROM files.notes WHERE id = 1",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan {
                pushed_filters,
                projection,
                ..
            } => {
                assert!(pushed_filters.is_empty(), "flat files evaluate nothing");
                assert!(projection.is_none());
            }
            _ => unreachable!(),
        }
        assert!(p.display().contains("Filter"));
    }

    #[test]
    fn dialect_override_blocks_pushdown() {
        let (cat, fed) = setup();
        let mut cfg = PlannerConfig::optimized();
        cfg.dialect_override = Some(Dialect::lowest_common_denominator());
        let p = optimized(
            "SELECT name FROM crm.customers WHERE id > 5",
            &cat,
            &fed,
            &cfg,
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { pushed_filters, .. } => {
                assert!(pushed_filters.is_empty(), "LCD has no > operator");
            }
            _ => unreachable!(),
        }
        // Equality still pushes under LCD.
        let p = optimized(
            "SELECT name FROM crm.customers WHERE region = 'r1'",
            &cat,
            &fed,
            &cfg,
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { pushed_filters, .. } => {
                assert_eq!(pushed_filters.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn projection_pruning_narrows_scans() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT name FROM crm.customers WHERE region = 'r1'",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { projection, .. } => {
                // region is consumed by the pushed filter; only name ships.
                assert_eq!(projection.as_deref(), Some(&["name".to_string()][..]));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn pushdown_through_view_alias() {
        let (cat, fed) = setup();
        cat.create_view_sql(
            "CREATE VIEW custs AS SELECT id, name, region FROM crm.customers",
        )
        .unwrap();
        let p = optimized(
            "SELECT v.name FROM custs v WHERE v.region = 'r2'",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { pushed_filters, .. } => {
                assert_eq!(pushed_filters.len(), 1, "{}", p.display());
                assert_eq!(pushed_filters[0].to_string(), "(region = 'r2')");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn pushdown_into_union_branches() {
        let (cat, fed) = setup();
        cat.create_view_sql(
            "CREATE VIEW all_ids AS SELECT id FROM crm.customers UNION ALL SELECT order_id AS id FROM orders.orders",
        )
        .unwrap();
        let p = optimized(
            "SELECT id FROM all_ids WHERE id < 3",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        assert_eq!(scans.len(), 2);
        for s in &scans {
            match s {
                LogicalPlan::SourceScan { pushed_filters, .. } => {
                    assert_eq!(pushed_filters.len(), 1, "{}", p.display());
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn left_join_right_predicate_stays_above() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT c.name FROM crm.customers c LEFT JOIN orders.orders o \
             ON c.id = o.customer_id WHERE o.total > 10",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        for s in &scans {
            match s {
                LogicalPlan::SourceScan {
                    source,
                    pushed_filters,
                    ..
                } if source == "orders" => {
                    assert!(
                        pushed_filters.is_empty(),
                        "LEFT JOIN right-side predicate must not sink: {}",
                        p.display()
                    );
                }
                _ => {}
            }
        }
        assert!(p.display().contains("Filter"));
    }

    #[test]
    fn limit_blocks_pushdown() {
        let (cat, fed) = setup();
        cat.create_view_sql("CREATE VIEW top5 AS SELECT id, name, region FROM crm.customers LIMIT 5")
            .unwrap();
        let p = optimized(
            "SELECT name FROM top5 WHERE region = 'r1'",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { pushed_filters, .. } => {
                assert!(
                    pushed_filters.is_empty(),
                    "filter must not cross LIMIT: {}",
                    p.display()
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn having_on_group_key_pushes_below_aggregate() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT region, COUNT(*) AS n FROM crm.customers GROUP BY region HAVING region = 'r1'",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { pushed_filters, .. } => {
                assert_eq!(pushed_filters.len(), 1, "{}", p.display());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn limit_pushes_into_capable_scan() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT name FROM crm.customers WHERE region = 'r1' LIMIT 3",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { limit, .. } => {
                assert_eq!(*limit, Some(3), "{}", p.display());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn limit_does_not_cross_sort_or_flat_files() {
        let (cat, fed) = setup();
        // Sort blocks the limit (top-N needs all rows).
        let p = optimized(
            "SELECT name FROM crm.customers ORDER BY name LIMIT 3",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { limit, .. } => assert_eq!(*limit, None),
            _ => unreachable!(),
        }
        // Flat files cannot honor LIMIT.
        let p = optimized(
            "SELECT id FROM files.notes LIMIT 1",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        let mut scans = Vec::new();
        find_scans(&p, &mut scans);
        match &scans[0] {
            LogicalPlan::SourceScan { limit, .. } => assert_eq!(*limit, None),
            _ => unreachable!(),
        }
    }

    #[test]
    fn having_on_aggregate_stays_above() {
        let (cat, fed) = setup();
        let p = optimized(
            "SELECT region, COUNT(*) AS n FROM crm.customers GROUP BY region HAVING n > 2",
            &cat,
            &fed,
            &PlannerConfig::optimized(),
        );
        assert!(p.display().contains("Filter (n > 2)"), "{}", p.display());
    }
}
