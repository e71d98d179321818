//! End-to-end tests: SQL text → plan → federated execution, across
//! heterogeneous sources, with naive-vs-optimized result equivalence.

use std::sync::Arc;

use eii_catalog::Catalog;
use eii_data::{row, DataType, Field, Schema, SimClock, Value};
use eii_docstore::{DocStore, Document};
use eii_exec::Executor;
use eii_federation::{
    adapters::document::VirtualTable, CsvConnector, DocumentConnector, Federation, LinkProfile,
    RelationalConnector, WebServiceConnector, WireFormat,
};
use eii_planner::{plan_query, PlannerConfig};
use eii_sql::parse_query;
use eii_storage::{Database, TableDef};

/// A four-source enterprise: relational CRM, web-service orders, document
/// support tickets, and a legacy payments file.
fn setup() -> (Catalog, Federation) {
    let clock = SimClock::new();

    // crm (relational)
    let crm = Database::new("crm", clock.clone());
    let cschema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int).not_null(),
        Field::new("name", DataType::Str),
        Field::new("region", DataType::Str),
    ]));
    let ct = crm
        .create_table(TableDef::new("customers", cschema).with_primary_key(0))
        .unwrap();
    {
        let mut t = ct.write();
        for (i, (name, region)) in [
            ("alice", "west"),
            ("bob", "east"),
            ("carol", "west"),
            ("dave", "north"),
            ("erin", "east"),
        ]
        .iter()
        .enumerate()
        {
            t.insert(row![i as i64 + 1, *name, *region]).unwrap();
        }
    }

    // orders (web service requiring customer_id binding)
    let orders = Database::new("orders", clock.clone());
    let oschema = Arc::new(Schema::new(vec![
        Field::new("order_id", DataType::Int).not_null(),
        Field::new("customer_id", DataType::Int),
        Field::new("total", DataType::Float),
    ]));
    let ot = orders
        .create_table(TableDef::new("orders", oschema).with_primary_key(0))
        .unwrap();
    {
        let mut t = ot.write();
        for i in 0..20i64 {
            t.insert(row![i, i % 5 + 1, (i as f64 + 1.0) * 10.0]).unwrap();
        }
    }

    // support (documents)
    let store = DocStore::new();
    store.insert(Document::from_records(
        "tickets",
        &[
            vec![("ticket_id", "100".into()), ("customer_id", "1".into()), ("sev", "2".into())],
            vec![("ticket_id", "101".into()), ("customer_id", "2".into()), ("sev", "1".into())],
            vec![("ticket_id", "102".into()), ("customer_id", "1".into()), ("sev", "3".into())],
        ],
    ));
    let support = DocumentConnector::new("support", store).define_table(VirtualTable {
        name: "tickets".into(),
        columns: vec![
            ("ticket_id".into(), "//row/ticket_id".into(), DataType::Int),
            ("customer_id".into(), "//row/customer_id".into(), DataType::Int),
            ("sev".into(), "//row/sev".into(), DataType::Int),
        ],
    });

    // files (flat file)
    let files = CsvConnector::new("files")
        .add_file(
            "payments",
            "payment_id,customer_id,amount\n1,1,50.0\n2,2,75.0\n3,1,25.0\n",
            ',',
            &[DataType::Int, DataType::Int, DataType::Float],
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
        Arc::new(WebServiceConnector::new("orders", orders).require_binding("orders", "customer_id")),
        LinkProfile::wan(),
        WireFormat::Native,
    )
    .unwrap();
    fed.register(
        Arc::new(support),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
    fed.register(Arc::new(files), LinkProfile::wan(), WireFormat::Native)
        .unwrap();

    let catalog = Catalog::new();
    (catalog, fed)
}

fn run_sql(sql: &str, cat: &Catalog, fed: &Federation, cfg: &PlannerConfig) -> eii_data::Batch {
    let q = parse_query(sql).unwrap();
    let plan = plan_query(&q, cat, fed, cfg).unwrap_or_else(|e| panic!("plan {sql}: {e}"));
    let exec = Executor::new(fed);
    exec.execute(&plan)
        .unwrap_or_else(|e| panic!("exec {sql}: {e}"))
        .batch
}

fn sorted_rows(batch: &eii_data::Batch) -> Vec<eii_data::Row> {
    let mut rows = batch.rows().to_vec();
    rows.sort();
    rows
}

#[test]
fn single_source_filter_and_project() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT name FROM crm.customers WHERE region = 'west' ORDER BY name",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    let names: Vec<&str> = b.rows().iter().map(|r| r.get(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["alice", "carol"]);
}

#[test]
fn cross_source_join_document_and_relational() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT c.name, t.sev FROM crm.customers c JOIN support.tickets t \
         ON c.id = t.customer_id WHERE t.sev >= 2 ORDER BY t.sev",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.rows()[0].get(0), &Value::str("alice"));
}

#[test]
fn web_service_requires_bind_join_and_gets_one() {
    let (cat, fed) = setup();
    let sql = "SELECT c.name, o.total FROM crm.customers c JOIN orders.orders o \
               ON c.id = o.customer_id WHERE c.region = 'west'";
    // Works under every config because the access pattern forces a bind join.
    for cfg in [PlannerConfig::optimized(), PlannerConfig::naive()] {
        let b = run_sql(sql, &cat, &fed, &cfg);
        assert_eq!(b.num_rows(), 8, "west customers 1 and 3 have 4 orders each");
    }
}

#[test]
fn bare_scan_of_access_limited_source_is_a_plan_error() {
    let (cat, fed) = setup();
    let q = parse_query("SELECT * FROM orders.orders").unwrap();
    let err = plan_query(&q, &cat, &fed, &PlannerConfig::optimized()).unwrap_err();
    assert_eq!(err.kind(), "plan");
    assert!(err.message().contains("customer_id"));
}

#[test]
fn flat_file_join_ships_everything_but_answers() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT c.name, p.amount FROM crm.customers c JOIN files.payments p \
         ON c.id = p.customer_id ORDER BY p.amount",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.num_rows(), 3);
    assert_eq!(b.rows()[0].get(1), &Value::Float(25.0));
}

#[test]
fn aggregation_group_by_having() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT region, COUNT(*) AS n FROM crm.customers GROUP BY region HAVING n > 1 ORDER BY region",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.rows()[0].get(0), &Value::str("east"));
    assert_eq!(b.rows()[0].get(1), &Value::Int(2));
}

#[test]
fn left_join_null_extends() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT c.name, t.ticket_id FROM crm.customers c LEFT JOIN support.tickets t \
         ON c.id = t.customer_id ORDER BY c.name",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    // alice has 2 tickets, bob 1, carol/dave/erin none -> 6 rows.
    assert_eq!(b.num_rows(), 6);
    let carol = b
        .rows()
        .iter()
        .find(|r| r.get(0) == &Value::str("carol"))
        .unwrap();
    assert!(carol.get(1).is_null());
}

#[test]
fn union_all_over_sources() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT id AS k FROM crm.customers UNION ALL SELECT payment_id AS k FROM files.payments",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.num_rows(), 8);
}

#[test]
fn view_over_three_sources() {
    let (cat, fed) = setup();
    cat.create_view_sql(
        "CREATE VIEW customer360 AS \
         SELECT c.id, c.name, c.region, t.ticket_id, t.sev \
         FROM crm.customers c LEFT JOIN support.tickets t ON c.id = t.customer_id",
    )
    .unwrap();
    let b = run_sql(
        "SELECT name, sev FROM customer360 WHERE region = 'west' ORDER BY name",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.num_rows(), 3); // alice x2 tickets + carol null
}

#[test]
fn naive_and_optimized_agree_on_results() {
    let (cat, fed) = setup();
    cat.create_view_sql(
        "CREATE VIEW v AS SELECT c.id, c.name, t.sev FROM crm.customers c \
         JOIN support.tickets t ON c.id = t.customer_id",
    )
    .unwrap();
    let queries = [
        "SELECT name FROM crm.customers WHERE region = 'east'",
        "SELECT c.name, p.amount FROM crm.customers c JOIN files.payments p ON c.id = p.customer_id",
        "SELECT name, sev FROM v WHERE sev > 1",
        "SELECT region, COUNT(*) AS n, AVG(id) AS a FROM crm.customers GROUP BY region",
        "SELECT DISTINCT region FROM crm.customers",
        "SELECT name FROM crm.customers WHERE name LIKE 'a%' OR name LIKE 'e%'",
    ];
    for sql in queries {
        let naive = run_sql(sql, &cat, &fed, &PlannerConfig::naive());
        let optimized = run_sql(sql, &cat, &fed, &PlannerConfig::optimized());
        assert_eq!(
            sorted_rows(&naive),
            sorted_rows(&optimized),
            "result mismatch for {sql}"
        );
    }
}

#[test]
fn optimized_ships_fewer_bytes() {
    let (cat, fed) = setup();
    let sql = "SELECT c.name FROM crm.customers c JOIN files.payments p \
               ON c.id = p.customer_id WHERE c.region = 'west'";
    fed.ledger().reset();
    let _ = run_sql(sql, &cat, &fed, &PlannerConfig::naive());
    let naive_bytes = fed.ledger().total().bytes;
    fed.ledger().reset();
    let _ = run_sql(sql, &cat, &fed, &PlannerConfig::optimized());
    let opt_bytes = fed.ledger().total().bytes;
    assert!(
        opt_bytes < naive_bytes,
        "optimized {opt_bytes} >= naive {naive_bytes}"
    );
}

#[test]
fn expressions_in_select_list() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT UPPER(name) AS shout, id * 10 AS id10 FROM crm.customers WHERE id = 1",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.rows()[0].get(0), &Value::str("ALICE"));
    assert_eq!(b.rows()[0].get(1), &Value::Int(10));
}

#[test]
fn limit_and_distinct() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT DISTINCT region FROM crm.customers ORDER BY region LIMIT 2",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.rows()[0].get(0), &Value::str("east"));
}

#[test]
fn count_star_over_empty_filter() {
    let (cat, fed) = setup();
    let b = run_sql(
        "SELECT COUNT(*) AS n FROM crm.customers WHERE region = 'nowhere'",
        &cat,
        &fed,
        &PlannerConfig::optimized(),
    );
    assert_eq!(b.rows()[0].get(0), &Value::Int(0));
}

#[test]
fn cost_accounting_reports_traffic() {
    let (cat, fed) = setup();
    fed.ledger().reset();
    let q = parse_query("SELECT name FROM crm.customers").unwrap();
    let plan = plan_query(&q, &cat, &fed, &PlannerConfig::optimized()).unwrap();
    let exec = Executor::new(&fed);
    let res = exec.execute(&plan).unwrap();
    assert_eq!(res.batch.num_rows(), 5);
    assert!(res.cost.sim_ms > 0.0);
    assert!(res.cost.bytes > 0);
    assert_eq!(fed.ledger().traffic("crm").requests, 1);
}
