//! FedMark: the standardized federated benchmark (Bitton §3: "to adequately
//! measure EII performance, we need a standardized benchmark – a la TPC").
//!
//! A deterministic, seeded generator for a six-source enterprise:
//!
//! | source  | kind                  | link | dialect        | tables |
//! |---------|-----------------------|------|----------------|--------|
//! | crm     | relational            | LAN  | ANSI           | customers |
//! | sales   | relational            | WAN  | legacy-minimal | orders, products, lineitems |
//! | hr      | relational            | LAN  | ANSI           | employees |
//! | support | document store        | LAN  | (wrapper)      | tickets |
//! | files   | delimited file        | WAN  | none           | payments |
//! | credit  | web service (bound)   | WAN  | none           | ratings |
//!
//! plus the Q1–Q10 query suite exercising selective scans, cross-source
//! joins, aggregation, document and flat-file joins, unions, bind joins,
//! top-N, and LIKE/distinct.

use std::fmt::Write as _;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eii::prelude::*;
use eii::row;

/// FedMark scale factor: row counts scale linearly with it.
pub type ScaleFactor = usize;

/// A generated FedMark environment.
pub struct FedMark {
    pub system: Arc<EiiSystem>,
    pub clock: SimClock,
    /// The support-ticket document store (schema-less).
    pub tickets: DocStore,
    /// Unstructured contracts corpus (for the search experiments).
    pub contracts: DocStore,
    pub sf: ScaleFactor,
}

const REGIONS: usize = 8;
const SEGMENTS: usize = 4;
const ADJ: [&str; 8] = [
    "acme", "atlas", "apex", "global", "united", "pioneer", "summit", "nova",
];
const NOUN: [&str; 5] = ["corp", "industries", "logistics", "systems", "partners"];
const STATUS: [&str; 4] = ["open", "shipped", "billed", "returned"];
const CATEGORY: [&str; 6] = ["widgets", "gadgets", "tools", "parts", "service", "license"];
const DEPT: [&str; 5] = ["engineering", "sales", "finance", "support", "operations"];
const LOCATION: [&str; 3] = ["hq", "east-office", "west-office"];
const RATING: [&str; 5] = ["AAA", "AA", "A", "B", "C"];

/// Row counts per table at a scale factor.
pub fn sizes(sf: ScaleFactor) -> (i64, i64, i64, i64, i64, i64, i64) {
    let sf = sf.max(1) as i64;
    (
        100 * sf,  // customers
        600 * sf,  // orders
        40 * sf,   // products
        1500 * sf, // lineitems
        60 * sf,   // employees
        150 * sf,  // tickets
        300 * sf,  // payments
    )
}

fn company_name(rng: &mut StdRng, i: i64) -> String {
    format!(
        "{} {} {}",
        ADJ[rng.gen_range(0..ADJ.len())],
        NOUN[rng.gen_range(0..NOUN.len())],
        i
    )
}

impl FedMark {
    /// Build the environment with the optimizer fully on.
    pub fn build(sf: ScaleFactor, seed: u64) -> Result<FedMark> {
        FedMark::build_with_config(sf, seed, PlannerConfig::optimized())
    }

    /// Build with a specific planner configuration (the ablations).
    pub fn build_with_config(
        sf: ScaleFactor,
        seed: u64,
        config: PlannerConfig,
    ) -> Result<FedMark> {
        let mut rng = StdRng::seed_from_u64(seed);
        let clock = SimClock::new();
        let (n_cust, n_ord, n_prod, n_li, n_emp, n_tick, n_pay) = sizes(sf);

        // ── crm ───────────────────────────────────────────────────────
        let crm = Database::new("crm", clock.clone());
        let customers = crm.create_table(
            TableDef::new(
                "customers",
                Arc::new(Schema::new(vec![
                    Field::new("customer_id", DataType::Int).not_null(),
                    Field::new("name", DataType::Str),
                    Field::new("region", DataType::Str),
                    Field::new("segment", DataType::Str),
                    Field::new("created_at", DataType::Timestamp),
                ])),
            )
            .with_primary_key(0),
        )?;
        {
            let mut t = customers.write();
            for i in 0..n_cust {
                t.insert(row![
                    i,
                    company_name(&mut rng, i),
                    format!("r{}", rng.gen_range(0..REGIONS)),
                    format!("s{}", rng.gen_range(0..SEGMENTS)),
                    Value::Timestamp(rng.gen_range(0..1_000_000)),
                ])?;
            }
        }

        // ── sales (legacy dialect, WAN) ───────────────────────────────
        let sales = Database::new("sales", clock.clone());
        let orders = sales.create_table(
            TableDef::new(
                "orders",
                Arc::new(Schema::new(vec![
                    Field::new("order_id", DataType::Int).not_null(),
                    Field::new("customer_id", DataType::Int),
                    Field::new("total", DataType::Float),
                    Field::new("status", DataType::Str),
                    Field::new("placed_at", DataType::Timestamp),
                ])),
            )
            .with_primary_key(0),
        )?;
        {
            let mut t = orders.write();
            for i in 0..n_ord {
                t.insert(row![
                    i,
                    rng.gen_range(0..n_cust),
                    (rng.gen_range(1..2000) as f64) / 2.0,
                    STATUS[rng.gen_range(0..STATUS.len())],
                    Value::Timestamp(rng.gen_range(0..1_000_000)),
                ])?;
            }
        }
        let products = sales.create_table(
            TableDef::new(
                "products",
                Arc::new(Schema::new(vec![
                    Field::new("product_id", DataType::Int).not_null(),
                    Field::new("category", DataType::Str),
                    Field::new("price", DataType::Float),
                ])),
            )
            .with_primary_key(0),
        )?;
        {
            let mut t = products.write();
            for i in 0..n_prod {
                t.insert(row![
                    i,
                    CATEGORY[rng.gen_range(0..CATEGORY.len())],
                    (rng.gen_range(5..500) as f64) / 5.0,
                ])?;
            }
        }
        let lineitems = sales.create_table(
            TableDef::new(
                "lineitems",
                Arc::new(Schema::new(vec![
                    Field::new("li_id", DataType::Int).not_null(),
                    Field::new("order_id", DataType::Int),
                    Field::new("product_id", DataType::Int),
                    Field::new("qty", DataType::Int),
                ])),
            )
            .with_primary_key(0),
        )?;
        {
            let mut t = lineitems.write();
            for i in 0..n_li {
                t.insert(row![
                    i,
                    rng.gen_range(0..n_ord),
                    rng.gen_range(0..n_prod),
                    rng.gen_range(1..10i64),
                ])?;
            }
        }

        // ── hr ────────────────────────────────────────────────────────
        let hr = Database::new("hr", clock.clone());
        let employees = hr.create_table(
            TableDef::new(
                "employees",
                Arc::new(Schema::new(vec![
                    Field::new("emp_id", DataType::Int).not_null(),
                    Field::new("name", DataType::Str),
                    Field::new("department", DataType::Str),
                    Field::new("location", DataType::Str),
                ])),
            )
            .with_primary_key(0),
        )?;
        {
            let mut t = employees.write();
            for i in 0..n_emp {
                t.insert(row![
                    i,
                    format!("employee {i}"),
                    DEPT[rng.gen_range(0..DEPT.len())],
                    LOCATION[rng.gen_range(0..LOCATION.len())],
                ])?;
            }
        }

        // ── support (schema-less documents) ───────────────────────────
        let tickets = DocStore::new();
        {
            // Batches of 25 tickets per exported document.
            let mut batch: Vec<Vec<(&str, String)>> = Vec::new();
            let mut subjects: Vec<String> = Vec::new();
            for i in 0..n_tick {
                let cust = rng.gen_range(0..n_cust);
                subjects.push(format!(
                    "ticket about {} from customer {cust}",
                    CATEGORY[rng.gen_range(0..CATEGORY.len())]
                ));
                batch.push(vec![
                    ("ticket_id", i.to_string()),
                    ("customer_id", cust.to_string()),
                    ("severity", rng.gen_range(1..5i64).to_string()),
                    ("subject", subjects.last().expect("pushed").clone()),
                ]);
                if batch.len() == 25 || i == n_tick - 1 {
                    tickets.insert(Document::from_records(
                        format!("ticket export {i}"),
                        &batch,
                    ));
                    batch.clear();
                }
            }
        }
        let support = DocumentConnector::new("support", tickets.clone()).define_table(
            VirtualTable {
                name: "tickets".into(),
                columns: vec![
                    ("ticket_id".into(), "//row/ticket_id".into(), DataType::Int),
                    ("customer_id".into(), "//row/customer_id".into(), DataType::Int),
                    ("severity".into(), "//row/severity".into(), DataType::Int),
                    ("subject".into(), "//row/subject".into(), DataType::Str),
                ],
            },
        );

        // ── files (delimited payments) ────────────────────────────────
        let mut csv = String::from("payment_id,customer_id,amount\n");
        for i in 0..n_pay {
            let _ = writeln!(
                csv,
                "{i},{},{}",
                rng.gen_range(0..n_cust),
                (rng.gen_range(1..5000) as f64) / 10.0
            );
        }
        let files = CsvConnector::new("files").add_file(
            "payments",
            &csv,
            ',',
            &[DataType::Int, DataType::Int, DataType::Float],
        )?;

        // ── credit (access-limited web service) ───────────────────────
        let credit_db = Database::new("credit", clock.clone());
        let ratings = credit_db.create_table(
            TableDef::new(
                "ratings",
                Arc::new(Schema::new(vec![
                    Field::new("customer_id", DataType::Int).not_null(),
                    Field::new("rating", DataType::Str),
                ])),
            )
            .with_primary_key(0),
        )?;
        {
            let mut t = ratings.write();
            for i in 0..n_cust {
                t.insert(row![i, RATING[rng.gen_range(0..RATING.len())]])?;
            }
        }

        // ── contracts corpus (search) ─────────────────────────────────
        let contracts = DocStore::new();
        for i in 0..(20 * sf.max(1) as i64) {
            let cust = rng.gen_range(0..n_cust);
            contracts.insert(Document::from_text(
                format!("contract {i}"),
                &format!(
                    "master agreement customer {cust} {} renewal terms {} support tier {}",
                    company_name(&mut rng, cust),
                    2004 + (i % 3),
                    ["gold", "silver", "bronze"][rng.gen_range(0..3)]
                ),
            ));
        }

        // ── assemble ──────────────────────────────────────────────────
        let system = EiiSystem::builder(clock.clone())
            .planner_config(config)
            .source(
                Arc::new(RelationalConnector::new(crm)),
                LinkProfile::lan(),
                WireFormat::Native,
            )
            .source(
                Arc::new(
                    RelationalConnector::new(sales)
                        .with_dialect(eii::federation::Dialect::legacy_minimal()),
                ),
                LinkProfile::wan(),
                WireFormat::Native,
            )
            .source(
                Arc::new(RelationalConnector::new(hr)),
                LinkProfile::lan(),
                WireFormat::Native,
            )
            .source(Arc::new(support), LinkProfile::lan(), WireFormat::Native)
            .source(Arc::new(files), LinkProfile::wan(), WireFormat::Native)
            .source(
                Arc::new(
                    WebServiceConnector::new("credit", credit_db)
                        .require_binding("ratings", "customer_id"),
                ),
                LinkProfile::wan(),
                WireFormat::Native,
            )
            .build()?;

        Ok(FedMark {
            system,
            clock,
            tickets,
            contracts,
            sf,
        })
    }

    /// The Q1–Q10 suite: `(id, description, sql)`.
    pub fn queries() -> Vec<(&'static str, &'static str, &'static str)> {
        vec![
            (
                "Q1",
                "selective single-source scan",
                "SELECT name FROM crm.customers WHERE region = 'r3' AND segment = 's1'",
            ),
            (
                "Q2",
                "selective cross-source join (WAN, legacy dialect)",
                "SELECT c.name, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.customer_id = o.customer_id \
                 WHERE c.region = 'r1' AND o.total > 900",
            ),
            (
                "Q3",
                "revenue rollup by region",
                "SELECT c.region, COUNT(*) AS orders, SUM(o.total) AS revenue \
                 FROM crm.customers c JOIN sales.orders o ON c.customer_id = o.customer_id \
                 GROUP BY c.region ORDER BY revenue DESC",
            ),
            (
                "Q4",
                "three-table rollup at one source",
                "SELECT p.category, SUM(l.qty) AS units \
                 FROM sales.lineitems l \
                 JOIN sales.products p ON l.product_id = p.product_id \
                 JOIN sales.orders o ON l.order_id = o.order_id \
                 WHERE o.status = 'shipped' GROUP BY p.category ORDER BY units DESC",
            ),
            (
                "Q5",
                "document-store join",
                "SELECT c.name, t.subject FROM crm.customers c \
                 JOIN support.tickets t ON c.customer_id = t.customer_id \
                 WHERE t.severity = 1",
            ),
            (
                "Q6",
                "flat-file join (nothing pushable)",
                "SELECT c.name, p.amount FROM crm.customers c \
                 JOIN files.payments p ON c.customer_id = p.customer_id \
                 WHERE c.segment = 's0'",
            ),
            (
                "Q7",
                "union across sources",
                "SELECT name FROM crm.customers WHERE region = 'r0' \
                 UNION ALL SELECT name FROM hr.employees WHERE location = 'hq'",
            ),
            (
                "Q8",
                "bind join through an access-limited service",
                "SELECT c.name, r.rating FROM crm.customers c \
                 JOIN credit.ratings r ON c.customer_id = r.customer_id \
                 WHERE c.region = 'r2'",
            ),
            (
                "Q9",
                "cross-source top-N",
                "SELECT c.name, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.customer_id = o.customer_id \
                 ORDER BY o.total DESC LIMIT 10",
            ),
            (
                "Q10",
                "LIKE + DISTINCT",
                "SELECT DISTINCT name FROM crm.customers WHERE name LIKE 'a%'",
            ),
            (
                "Q11",
                "anti join via NOT IN subquery (customers who never ordered)",
                "SELECT name FROM crm.customers WHERE customer_id NOT IN \
                 (SELECT customer_id FROM sales.orders)",
            ),
        ]
    }

    /// Rewrite a FedMark query to run against a warehouse named `wh`
    /// holding copies of every loadable table.
    pub fn warehouse_sql(sql: &str) -> String {
        sql.replace("crm.", "wh.")
            .replace("sales.", "wh.")
            .replace("hr.", "wh.")
            .replace("support.", "wh.")
            .replace("files.", "wh.")
    }

    /// Every warehouse-loadable `source.table` with its key column (the
    /// credit service cannot be bulk-extracted — its access pattern forbids
    /// it).
    pub fn loadable_tables() -> Vec<(&'static str, &'static str)> {
        vec![
            ("crm.customers", "customer_id"),
            ("sales.orders", "order_id"),
            ("sales.products", "product_id"),
            ("sales.lineitems", "li_id"),
            ("hr.employees", "emp_id"),
            ("support.tickets", "ticket_id"),
            ("files.payments", "payment_id"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = FedMark::build(1, 42).unwrap();
        let b = FedMark::build(1, 42).unwrap();
        let qa = a
            .system
            .execute("SELECT COUNT(*) AS n FROM crm.customers WHERE region = 'r1'")
            .unwrap();
        let qb = b
            .system
            .execute("SELECT COUNT(*) AS n FROM crm.customers WHERE region = 'r1'")
            .unwrap();
        assert_eq!(qa.rows().unwrap().rows(), qb.rows().unwrap().rows());
    }

    #[test]
    fn all_queries_run_at_sf1() {
        let env = FedMark::build(1, 7).unwrap();
        for (id, _, sql) in FedMark::queries() {
            let out = env
                .system
                .execute(sql)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            let _ = out.rows().unwrap();
        }
    }

    #[test]
    fn naive_and_optimized_agree_on_the_suite() {
        let opt = FedMark::build(1, 9).unwrap();
        let naive = FedMark::build_with_config(1, 9, PlannerConfig::naive()).unwrap();
        for (id, _, sql) in FedMark::queries() {
            let a = opt.system.execute(sql).unwrap();
            let b = naive.system.execute(sql).unwrap();
            let mut ra = a.rows().unwrap().rows().to_vec();
            let mut rb = b.rows().unwrap().rows().to_vec();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb, "query {id} differs between configs");
        }
    }

    #[test]
    fn sizes_scale_linearly() {
        let (c1, o1, ..) = sizes(1);
        let (c3, o3, ..) = sizes(3);
        assert_eq!(c3, 3 * c1);
        assert_eq!(o3, 3 * o1);
    }
}
