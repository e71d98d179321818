//! What the planner's fixed pass list relies on: `optimize` run over its own
//! output changes nothing (so there is no fixpoint driver to write), and a
//! deep join chain gets through every pass and physical planning with each
//! table fetched once.

use std::sync::Arc;

use eii::data::{row, DataType, Field, Schema, SimClock};
use eii::federation::{Federation, LinkProfile, RelationalConnector, WireFormat};
use eii::planner::{optimize, PhysicalPlan, PhysicalPlanner, PlanBuilder, PlannerConfig};
use eii::sql::{parse_statement, Statement};
use eii::storage::{Database, TableDef};
use eii_bench::fedmark::FedMark;

#[test]
fn optimize_is_idempotent_on_fedmark() {
    for (label, config) in [
        ("optimized", PlannerConfig::optimized()),
        ("naive", PlannerConfig::naive()),
    ] {
        let env = FedMark::build_with_config(1, 42, config.clone()).unwrap();
        let (catalog, federation) = (env.system.catalog(), env.system.federation());
        for (id, _, sql) in FedMark::queries() {
            let Statement::Query(q) = parse_statement(sql).unwrap() else {
                panic!("{id} is not a query");
            };
            let built = PlanBuilder::new(catalog, federation).build(&q).unwrap();
            let once = optimize(built, federation, &config).unwrap();
            let twice = optimize(once.clone(), federation, &config).unwrap();
            assert_eq!(twice.display(), once.display(), "{id} [{label}]");
        }
    }
}

/// `sources` single-table sources `s0.t0` … of `rows` rows each, every table
/// `(id, k)`.
fn chain_federation(sources: usize, rows: i64) -> Federation {
    let fed = Federation::new();
    for i in 0..sources {
        let db = Database::new(format!("s{i}"), SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("k", DataType::Int),
        ]));
        let table = db
            .create_table(TableDef::new(format!("t{i}"), schema).with_primary_key(0))
            .unwrap();
        for r in 0..rows {
            table.write().insert(row![r, r % 4]).unwrap();
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

fn count_leaves(plan: &PhysicalPlan) -> usize {
    let here = matches!(
        plan,
        PhysicalPlan::Source { .. } | PhysicalPlan::BindJoin { .. }
    ) as usize;
    here + plan.children().into_iter().map(count_leaves).sum::<usize>()
}

#[test]
fn a_twelve_table_left_deep_join_chain_plans() {
    const TABLES: usize = 12;
    let fed = chain_federation(TABLES, 8);
    let mut sql = "SELECT t0.id FROM s0.t0".to_string();
    for i in 1..TABLES {
        sql.push_str(&format!(" JOIN s{i}.t{i} ON t{}.k = t{i}.k", i - 1));
    }
    let Statement::Query(q) = parse_statement(&sql).unwrap() else {
        panic!("not a query");
    };
    let catalog = eii::catalog::Catalog::new();
    for config in [PlannerConfig::optimized(), PlannerConfig::naive()] {
        let built = PlanBuilder::new(&catalog, &fed).build(&q).unwrap();
        let logical = optimize(built, &fed, &config).unwrap();
        let physical = PhysicalPlanner::new(&fed, &config).create(logical).unwrap();
        // Every table is fetched exactly once, by a scan or a bind join's probe.
        assert_eq!(count_leaves(&physical), TABLES, "{}", physical.display());
    }
}
