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
//! plus the Q1–Q11 query suite exercising selective scans, cross-source
//! joins, aggregation, document and flat-file joins, unions, bind joins,
//! top-N, LIKE/distinct and an anti join, and the workloads and warehouse
//! that more than one experiment shares.

use std::fmt::Write as _;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eii::prelude::*;
use eii::row;
use eii::warehouse::{EtlJob, Warehouse};

use crate::runner::Step;

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

/// Create table `name` in `db`, keyed on its first column (which is not
/// null), and insert `rows` in order.
pub fn keyed_table(
    db: &Database,
    name: &str,
    columns: &[(&str, DataType)],
    rows: impl IntoIterator<Item = Row>,
) -> Result<()> {
    let mut fields: Vec<Field> = columns.iter().map(|&(c, ty)| Field::new(c, ty)).collect();
    fields[0].nullable = false;
    let def = TableDef::new(name, Arc::new(Schema::new(fields))).with_primary_key(0);
    let table = db.create_table(def)?;
    let mut t = table.write();
    for row in rows {
        t.insert(row)?;
    }
    Ok(())
}

/// The three-source join workload: `n` joins of crm, sales and the support
/// document store (every query needs all three to answer), the `i`-th
/// (from 1) keeping the customers below `i * step`.
pub fn join_workload(n: i64, step: i64) -> Vec<String> {
    (1..=n)
        .map(|i| {
            format!(
                "SELECT c.name, o.total, t.severity FROM crm.customers c \
                 JOIN sales.orders o ON c.customer_id = o.customer_id \
                 JOIN support.tickets t ON c.customer_id = t.customer_id \
                 WHERE c.customer_id < {}",
                i * step
            )
        })
        .collect()
}

/// A new `sales.orders` row `order_id` for one of `n_cust` customers; the
/// customer, total, status and placing time are drawn from `rng`, in that
/// order.
pub fn new_order(rng: &mut StdRng, order_id: i64, n_cust: i64) -> UpdateOp {
    UpdateOp::Insert {
        table: "orders".into(),
        row: row![
            order_id,
            rng.gen_range(0..n_cust),
            (rng.gen_range(1..2000) as f64) / 2.0,
            if rng.gen_bool(0.5) { "open" } else { "shipped" },
            Value::Timestamp(rng.gen_range(0..1_000_000))
        ],
    }
}

/// A company name numbered `i`: an adjective and a noun drawn from `rng`.
pub fn company_name(rng: &mut StdRng, i: i64) -> String {
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
        let columns = [
            ("customer_id", DataType::Int),
            ("name", DataType::Str),
            ("region", DataType::Str),
            ("segment", DataType::Str),
            ("created_at", DataType::Timestamp),
        ];
        let rows = (0..n_cust).map(|i| {
            row![
                i,
                company_name(&mut rng, i),
                format!("r{}", rng.gen_range(0..REGIONS)),
                format!("s{}", rng.gen_range(0..SEGMENTS)),
                Value::Timestamp(rng.gen_range(0..1_000_000)),
            ]
        });
        keyed_table(&crm, "customers", &columns, rows)?;

        // ── sales (legacy dialect, WAN) ───────────────────────────────
        let sales = Database::new("sales", clock.clone());
        let columns = [
            ("order_id", DataType::Int),
            ("customer_id", DataType::Int),
            ("total", DataType::Float),
            ("status", DataType::Str),
            ("placed_at", DataType::Timestamp),
        ];
        let rows = (0..n_ord).map(|i| {
            row![
                i,
                rng.gen_range(0..n_cust),
                (rng.gen_range(1..2000) as f64) / 2.0,
                STATUS[rng.gen_range(0..STATUS.len())],
                Value::Timestamp(rng.gen_range(0..1_000_000)),
            ]
        });
        keyed_table(&sales, "orders", &columns, rows)?;
        let columns = [
            ("product_id", DataType::Int),
            ("category", DataType::Str),
            ("price", DataType::Float),
        ];
        let rows = (0..n_prod).map(|i| {
            row![
                i,
                CATEGORY[rng.gen_range(0..CATEGORY.len())],
                (rng.gen_range(5..500) as f64) / 5.0,
            ]
        });
        keyed_table(&sales, "products", &columns, rows)?;
        let columns = [
            ("li_id", DataType::Int),
            ("order_id", DataType::Int),
            ("product_id", DataType::Int),
            ("qty", DataType::Int),
        ];
        let rows = (0..n_li).map(|i| {
            row![
                i,
                rng.gen_range(0..n_ord),
                rng.gen_range(0..n_prod),
                rng.gen_range(1..10i64),
            ]
        });
        keyed_table(&sales, "lineitems", &columns, rows)?;

        // ── hr ────────────────────────────────────────────────────────
        let hr = Database::new("hr", clock.clone());
        let columns = [
            ("emp_id", DataType::Int),
            ("name", DataType::Str),
            ("department", DataType::Str),
            ("location", DataType::Str),
        ];
        let rows = (0..n_emp).map(|i| {
            row![
                i,
                format!("employee {i}"),
                DEPT[rng.gen_range(0..DEPT.len())],
                LOCATION[rng.gen_range(0..LOCATION.len())],
            ]
        });
        keyed_table(&hr, "employees", &columns, rows)?;

        // ── support (schema-less documents) ───────────────────────────
        let tickets = DocStore::new();
        {
            // Batches of 25 tickets per exported document.
            let mut batch: Vec<Vec<(&str, String)>> = Vec::new();
            for i in 0..n_tick {
                let cust = rng.gen_range(0..n_cust);
                let subject = format!(
                    "ticket about {} from customer {cust}",
                    CATEGORY[rng.gen_range(0..CATEGORY.len())]
                );
                batch.push(vec![
                    ("ticket_id", i.to_string()),
                    ("customer_id", cust.to_string()),
                    ("severity", rng.gen_range(1..5i64).to_string()),
                    ("subject", subject),
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
        let columns = [("customer_id", DataType::Int), ("rating", DataType::Str)];
        let rows = (0..n_cust).map(|i| row![i, RATING[rng.gen_range(0..RATING.len())]]);
        keyed_table(&credit_db, "ratings", &columns, rows)?;

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
        let legacy = eii::federation::Dialect::legacy_minimal();
        let credit =
            WebServiceConnector::new("credit", credit_db).require_binding("ratings", "customer_id");
        let sources: [(Arc<dyn Connector>, LinkProfile); 6] = [
            (Arc::new(RelationalConnector::new(crm)), LinkProfile::lan()),
            (Arc::new(RelationalConnector::new(sales).with_dialect(legacy)), LinkProfile::wan()),
            (Arc::new(RelationalConnector::new(hr)), LinkProfile::lan()),
            (Arc::new(support), LinkProfile::lan()),
            (Arc::new(files), LinkProfile::wan()),
            (Arc::new(credit), LinkProfile::wan()),
        ];
        let mut builder = EiiSystem::builder(clock.clone()).planner_config(config);
        for (connector, link) in sources {
            builder = builder.source(connector, link, WireFormat::Native);
        }
        let system = builder.build()?;

        Ok(FedMark {
            system,
            clock,
            tickets,
            contracts,
            sf,
        })
    }

    /// The suite as runner steps, in order.
    pub fn suite() -> impl Iterator<Item = Step> {
        FedMark::queries().into_iter().map(|(_, _, sql)| Step::Query(sql.into()))
    }

    /// The Q1–Q11 suite: `(id, description, sql)`.
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

    /// A warehouse `wh` fed from this federation, not yet loaded: a copy job
    /// per `(source.table, key)` of `tables`, into a table of the same name.
    pub fn warehouse(&self, tables: &[(&str, &str)]) -> Result<Warehouse> {
        let mut wh = Warehouse::new("wh", self.system.federation().clone(), self.clock.clone());
        for &(table, key) in tables {
            let target = table.split_once('.').map_or(table, |(_, t)| t);
            wh.add_job(EtlJob::copy(format!("j_{target}"), table, target).with_key(key))?;
        }
        Ok(wh)
    }

    /// A system whose one source is warehouse `wh`, over a local link.
    pub fn warehouse_system(&self, wh: &Warehouse) -> Result<EiiSystem> {
        let system = EiiSystem::new(self.clock.clone());
        system.add_source(
            Arc::new(RelationalConnector::new(wh.database().clone())),
            LinkProfile::local(),
            WireFormat::Native,
        )?;
        Ok(system)
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
