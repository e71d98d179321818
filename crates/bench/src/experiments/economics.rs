//! Economics experiments: E1 (EII vs warehouse crossover), E2 (schema-
//! centric vs schema-less administration), E7 (mapping topologies).

use eii::data::{DataType, Result};
use eii::semantics::ontology::enterprise_ontology;
use eii::semantics::{
    measure_agility, AdminLedger, AdminOp, HubRegistry, MappingRegistry, PairwiseRegistry,
    SchemaChange, SourceSchema,
};
use eii::warehouse::RefreshMode;

use crate::fedmark::FedMark;
use crate::report::{fmt_f, Report};
use crate::runner::{run, Step};

/// E1 — "the tradeoffs between the cost of building a warehouse, the cost
/// of a live query and the cost of accessing stale data" (Halevy §1).
///
/// One simulated day: the warehouse refreshes hourly; EII pays per query.
/// Sweep the daily query volume and report total cost and average data
/// staleness for both.
pub fn e1_eii_vs_warehouse() -> Result<Report> {
    let mut report = Report::new(
        "e1",
        "EII vs warehouse: total daily cost and staleness vs query volume",
        "Halevy §1 / Bitton §3 — EII wins at low volumes and for freshness; \
         the warehouse amortizes its refresh cost at high volumes",
        &[
            "queries/day",
            "EII cost (sim ms)",
            "WH cost (sim ms)",
            "cheaper",
            "EII staleness",
            "WH avg staleness (min)",
        ],
    );
    let sql = "SELECT c.region, COUNT(*) AS orders, SUM(o.total) AS revenue \
               FROM crm.customers c JOIN sales.orders o ON c.customer_id = o.customer_id \
               GROUP BY c.region";

    // Per-query live cost (measured once; queries are identical).
    let env = FedMark::build(1, 11)?;
    let live_ms = run(&env.system, [Step::Query(sql.into())]).checked()?.sim_ms();

    // Warehouse: hourly full refresh of the two tables the query needs.
    let wh = env.warehouse(&[("crm.customers", "customer_id"), ("sales.orders", "order_id")])?;
    let mut refresh_day_ms = 0.0;
    for _ in 0..24 {
        refresh_day_ms += wh.refresh_all(RefreshMode::Full)?;
    }
    let wh_sys = env.warehouse_system(&wh)?;
    let wh_ms = run(&wh_sys, [Step::Query(FedMark::warehouse_sql(sql))]).checked()?.sim_ms();

    for q in [1usize, 10, 50, 200, 1000, 5000] {
        let eii_total = live_ms * q as f64;
        let wh_total = refresh_day_ms + wh_ms * q as f64;
        report.row(vec![
            q.to_string(),
            fmt_f(eii_total),
            fmt_f(wh_total),
            if eii_total < wh_total { "EII" } else { "warehouse" }.to_string(),
            "0 (live)".to_string(),
            "30".to_string(), // hourly refresh -> 30 min expected staleness
        ]);
    }
    report.note(format!(
        "per-query live cost {:.1} ms; per-query warehouse cost {:.3} ms; daily refresh bill {:.0} ms",
        live_ms, wh_ms, refresh_day_ms
    ));
    report.note("crossover where q * (live - local) = daily refresh cost".to_string());
    Ok(report)
}

/// E2 — Ashish §2: schema-centric mediation costs grow with every source,
/// while the schema-less (NETMARK) approach only pays onboarding.
pub fn e2_schema_economics() -> Result<Report> {
    let mut report = Report::new(
        "e2",
        "administration effort vs number of integrated sources",
        "Ashish §2 — schema-centric approaches pay per-source mapping work; \
         schema-less integration approaches constant marginal cost",
        &[
            "sources",
            "pairwise effort",
            "mediated (hub) effort",
            "schema-less effort",
            "pairwise marginal",
            "hub marginal",
            "schema-less marginal",
        ],
    );
    let spellings: Vec<Vec<(&str, DataType)>> = vec![
        vec![("cust_id", DataType::Int), ("cust_nm", DataType::Str), ("reg", DataType::Str)],
        vec![("customerId", DataType::Int), ("customerName", DataType::Str), ("region", DataType::Str)],
        vec![("id", DataType::Int), ("name", DataType::Str), ("segment", DataType::Str)],
        vec![("CUST_NO", DataType::Int), ("NM", DataType::Str), ("REGION", DataType::Str)],
    ];
    let schema = |i: usize| SourceSchema {
        name: format!("sys{i}"),
        columns: spellings[i % spellings.len()]
            .iter()
            .map(|(n, t)| (n.to_string(), *t))
            .collect(),
    };

    let mut pairwise = PairwiseRegistry::new(AdminLedger::new());
    let mut hub = HubRegistry::new(enterprise_ontology(), AdminLedger::new());
    let schemaless = AdminLedger::new();
    let mut prev = (0.0, 0.0, 0.0);
    for n in 1..=64usize {
        pairwise.register(schema(n - 1))?;
        hub.register(schema(n - 1))?;
        // Schema-less: drop the documents in; no schema, no mappings.
        schemaless.charge(AdminOp::SourceOnboarded, 1);
        // A row at every power of two.
        if n.is_power_of_two() {
            let now = (
                pairwise.ledger().total_effort(),
                hub.ledger().total_effort(),
                schemaless.total_effort(),
            );
            report.row(vec![
                n.to_string(),
                fmt_f(now.0),
                fmt_f(now.1),
                fmt_f(now.2),
                fmt_f(now.0 - prev.0),
                fmt_f(now.1 - prev.1),
                fmt_f(now.2 - prev.2),
            ]);
            prev = now;
        }
    }
    report.note("marginal = effort added since the previous row".to_string());
    report.note(format!(
        "pairwise maintains {} mappings at N=64; the hub maintains {}",
        pairwise.mapping_count(),
        hub.mapping_count()
    ));
    Ok(report)
}

/// E7 — Pollock §6 / Rosenthal §7: mapping counts by topology and the
/// agility metric under a standard change script.
pub fn e7_mapping_topologies() -> Result<Report> {
    let mut report = Report::new(
        "e7",
        "mapping topologies and agility under schema evolution",
        "Rosenthal §7 — measure integration agility for predictable changes; \
         hub repairs O(1) mappings per change, pairwise O(N)",
        &[
            "schemas",
            "pairwise mappings",
            "hub mappings",
            "pw touched/change",
            "hub touched/change",
            "pw repair effort",
            "hub repair effort",
        ],
    );
    for n in [4usize, 8, 16, 32, 48] {
        let mut pairwise = PairwiseRegistry::new(AdminLedger::new());
        let mut hub = HubRegistry::new(enterprise_ontology(), AdminLedger::new());
        for i in 0..n {
            let s = SourceSchema::new(
                format!("sys{i}"),
                vec![
                    ("cust_id", DataType::Int),
                    ("cust_nm", DataType::Str),
                    ("region", DataType::Str),
                ],
            );
            pairwise.register(s.clone())?;
            hub.register(s)?;
        }
        let script = vec![
            (
                "sys0".to_string(),
                SchemaChange::RenameColumn {
                    from: "cust_nm".into(),
                    to: "customer_name".into(),
                },
            ),
            (
                "sys1".to_string(),
                SchemaChange::ChangeType {
                    name: "cust_id".into(),
                    data_type: DataType::Str,
                },
            ),
            (
                "sys2".to_string(),
                SchemaChange::RemoveColumn {
                    name: "region".into(),
                },
            ),
        ];
        let pw_mappings = pairwise.mapping_count();
        let hub_mappings = hub.mapping_count();
        let pw = measure_agility(&mut pairwise, &script)?;
        let hb = measure_agility(&mut hub, &script)?;
        report.row(vec![
            n.to_string(),
            pw_mappings.to_string(),
            hub_mappings.to_string(),
            fmt_f(pw.touched_per_change),
            fmt_f(hb.touched_per_change),
            fmt_f(pw.admin_effort),
            fmt_f(hb.admin_effort),
        ]);
    }
    report.note("script: one rename, one type change, one column removal".to_string());
    Ok(report)
}
