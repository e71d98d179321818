//! Greedy cost-based join ordering.
//!
//! Inner/cross join regions are flattened into (relations, predicate pool),
//! then rebuilt left-deep: start from the smallest estimated relation and
//! repeatedly join the relation producing the smallest estimated
//! intermediate result, strongly preferring connected (predicate-linked)
//! relations over Cartesian products. Carey's E4 experiment contrasts this
//! with hand-written fixed orders.

use eii_data::Result;
use eii_expr::{conjoin, conjuncts, Expr};
use eii_federation::Federation;
use eii_sql::JoinKind;

use crate::cost::CostModel;
use crate::logical::LogicalPlan;
use crate::util::resolves_in;

/// Reorder every inner-join region in the plan.
pub fn reorder_joins(plan: LogicalPlan, fed: &Federation) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Join {
            kind: JoinKind::Inner | JoinKind::Cross,
            ..
        } => {
            let mut leaves = Vec::new();
            let mut preds = Vec::new();
            flatten(plan, &mut leaves, &mut preds)?;
            // Reorder inside each leaf too (joins under aliases/aggregates).
            let leaves = leaves
                .into_iter()
                .map(|l| reorder_children(l, fed))
                .collect::<Result<Vec<_>>>()?;
            rebuild(leaves, preds, fed)
        }
        other => reorder_children(other, fed),
    }
}

/// Recurse into children without treating this node as a join region root.
fn reorder_children(plan: LogicalPlan, fed: &Federation) -> Result<LogicalPlan> {
    plan.map_children(|child| reorder_joins(child, fed))
}

/// Flatten a maximal inner/cross join region.
fn flatten(
    plan: LogicalPlan,
    leaves: &mut Vec<LogicalPlan>,
    preds: &mut Vec<Expr>,
) -> Result<()> {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Cross,
            on,
        } => {
            if let Some(on) = on {
                preds.extend(conjuncts(&on));
            }
            flatten(*left, leaves, preds)?;
            flatten(*right, leaves, preds)?;
            Ok(())
        }
        other => {
            leaves.push(other);
            Ok(())
        }
    }
}

/// Rebuild a left-deep tree greedily.
fn rebuild(
    leaves: Vec<LogicalPlan>,
    mut pool: Vec<Expr>,
    fed: &Federation,
) -> Result<LogicalPlan> {
    let model = CostModel::new(fed);
    if leaves.len() == 1 {
        let plan = leaves.into_iter().next().expect("len checked");
        return Ok(wrap_pool(plan, pool));
    }

    let mut remaining: Vec<(LogicalPlan, f64)> = leaves
        .into_iter()
        .map(|l| {
            let rows = model.rows(&l).unwrap_or(1000.0);
            (l, rows)
        })
        .collect();

    // Start with the smallest relation.
    let start = remaining
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        .expect("non-empty");
    let (mut current, _) = remaining.swap_remove(start);
    let mut current_schema = current.schema()?;

    while !remaining.is_empty() {
        let mut best: Option<(usize, f64, bool)> = None; // (idx, est rows, connected)
        for (i, (cand, _)) in remaining.iter().enumerate() {
            let cand_schema = cand.schema()?;
            let combined = current_schema.join(&cand_schema);
            let connecting: Vec<&Expr> = pool
                .iter()
                .filter(|p| {
                    resolves_in(p, &combined)
                        && !resolves_in(p, &current_schema)
                        && !resolves_in(p, &cand_schema)
                })
                .collect();
            let connected = !connecting.is_empty();
            let on = conjoin(connecting.into_iter().cloned().collect());
            let trial = LogicalPlan::Join {
                left: Box::new(current.clone()),
                right: Box::new(cand.clone()),
                kind: if on.is_some() {
                    JoinKind::Inner
                } else {
                    JoinKind::Cross
                },
                on,
            };
            let est = model.rows(&trial).unwrap_or(f64::MAX);
            let better = match &best {
                None => true,
                Some((_, best_est, best_conn)) => {
                    // Connected joins always beat Cartesian products.
                    (connected && !best_conn) || (connected == *best_conn && est < *best_est)
                }
            };
            if better {
                best = Some((i, est, connected));
            }
        }
        let (idx, _, _) = best.expect("remaining non-empty");
        let (next, _) = remaining.swap_remove(idx);
        let next_schema = next.schema()?;
        let combined = current_schema.join(&next_schema);
        // Attach every pool predicate that now resolves.
        let (attach, rest): (Vec<Expr>, Vec<Expr>) = pool
            .into_iter()
            .partition(|p| resolves_in(p, &combined));
        pool = rest;
        let on = conjoin(attach);
        current = LogicalPlan::Join {
            left: Box::new(current),
            right: Box::new(next),
            kind: if on.is_some() {
                JoinKind::Inner
            } else {
                JoinKind::Cross
            },
            on,
        };
        current_schema = std::sync::Arc::new(combined);
    }
    Ok(wrap_pool(current, pool))
}

fn wrap_pool(plan: LogicalPlan, pool: Vec<Expr>) -> LogicalPlan {
    match conjoin(pool) {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: p,
        },
        None => plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PlanBuilder;
    use crate::config::PlannerConfig;
    use crate::rules::optimize;
    use eii_catalog::Catalog;
    use eii_data::{row, DataType, Field, SimClock};
    use eii_federation::{LinkProfile, RelationalConnector, WireFormat};
    use eii_sql::parse_query;
    use eii_storage::{Database, TableDef};
    use std::sync::Arc;

    /// Three tables of very different sizes: tiny (4), mid (40), big (400).
    fn setup() -> Federation {
        let fed = Federation::new();
        for (name, table, rows) in [
            ("tiny", "t", 4i64),
            ("mid", "m", 40),
            ("big", "b", 400),
        ] {
            let db = Database::new(name, SimClock::new());
            let schema = Arc::new(eii_data::Schema::new(vec![
                Field::new("id", DataType::Int).not_null(),
                Field::new("k", DataType::Int),
            ]));
            let t = db
                .create_table(TableDef::new(table, schema).with_primary_key(0))
                .unwrap();
            for i in 0..rows {
                t.write().insert(row![i, i % 4]).unwrap();
            }
            fed.register(
                Arc::new(RelationalConnector::new(db)),
                LinkProfile::lan(),
                WireFormat::Native,
            )
            .unwrap();
        }
        fed
    }

    fn leftmost_scan(plan: &LogicalPlan) -> String {
        match plan {
            LogicalPlan::SourceScan { source, .. } => source.clone(),
            other => leftmost_scan(other.children()[0]),
        }
    }

    #[test]
    fn starts_from_smallest_relation() {
        let fed = setup();
        let cat = Catalog::new();
        // Written big-first; the optimizer should start from `tiny`.
        let q = parse_query(
            "SELECT * FROM big.b JOIN mid.m ON b.k = m.k JOIN tiny.t ON m.k = t.k",
        )
        .unwrap();
        let plan = PlanBuilder::new(&cat, &fed).build(&q).unwrap();
        let optimized = optimize(plan, &fed, &PlannerConfig::optimized()).unwrap();
        assert_eq!(
            leftmost_scan(&optimized),
            "tiny",
            "{}",
            optimized.display()
        );
    }

    #[test]
    fn connected_joins_beat_cross_products() {
        let fed = setup();
        let cat = Catalog::new();
        let q = parse_query(
            "SELECT * FROM big.b, tiny.t, mid.m WHERE b.k = m.k AND m.k = t.k",
        )
        .unwrap();
        let plan = PlanBuilder::new(&cat, &fed).build(&q).unwrap();
        let optimized = optimize(plan, &fed, &PlannerConfig::optimized()).unwrap();
        // No cross join should survive: predicates connect everything.
        assert!(
            !optimized.display().contains("CROSS JOIN"),
            "{}",
            optimized.display()
        );
    }

    #[test]
    fn predicates_are_not_lost() {
        let fed = setup();
        let cat = Catalog::new();
        let q = parse_query(
            "SELECT * FROM big.b, tiny.t, mid.m WHERE b.k = m.k AND m.k = t.k AND b.id = t.id",
        )
        .unwrap();
        let plan = PlanBuilder::new(&cat, &fed).build(&q).unwrap();
        let optimized = optimize(plan, &fed, &PlannerConfig::optimized()).unwrap();
        let text = optimized.display();
        for pred in ["b.k = m.k", "m.k = t.k", "b.id = t.id"] {
            assert!(text.contains(pred), "lost predicate {pred}: {text}");
        }
    }

    #[test]
    fn single_table_untouched() {
        let fed = setup();
        let cat = Catalog::new();
        let q = parse_query("SELECT id FROM tiny.t WHERE k = 1").unwrap();
        let plan = PlanBuilder::new(&cat, &fed).build(&q).unwrap();
        let optimized = optimize(plan, &fed, &PlannerConfig::optimized()).unwrap();
        assert!(optimized.display().contains("Scan tiny.t"));
    }
}
