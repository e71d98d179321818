//! The benchmark's own data generators: a private copy of the FedMark
//! six-source enterprise and the two-source hub dataset.
//!
//! They are private on purpose. `eii_bench::fedmark` belongs to the
//! experiment suite and later changes may edit it; a benchmark whose inputs
//! move with the code under test compares nothing. Everything here is a
//! function of `(scale factor, seed)` only.
//!
//! Categorical columns are *balanced*: each value appears `n / k` times (±1)
//! and the seed only decides which rows get it. Predicate selectivities —
//! and with them the work a statement does — therefore stay within a
//! fraction of a percent from seed to seed, so a run with another seed
//! measures the same workload on different data.

use std::fmt::Write as _;
use std::sync::Arc;

use eii::federation::{Dialect, SourceCapabilities};
use eii::prelude::*;
use eii::row;
use eii::storage::database::TableHandle;

/// SplitMix64: small, seedable, and owned by the benchmark so its streams
/// cannot change under it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` draws from `0..k`, each value used `n / k` times (±1), in seeded
    /// order.
    pub fn balanced(&mut self, n: i64, k: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n as usize).map(|i| i % k).collect();
        self.shuffle(&mut out);
        out
    }
}

/// A table the storage-layer probes read directly: a full scan, and
/// `lookup_eq` on `lookup_col` for each of `keys`.
pub struct TableProbe {
    pub table: TableHandle,
    pub lookup_col: usize,
    pub keys: Vec<Value>,
}

/// A generated system plus the handles the benchmark needs around it.
pub struct Built {
    pub system: Arc<EiiSystem>,
    /// Every storage table by qualified name, for state checksums.
    pub tables: Vec<(String, TableHandle)>,
    pub probes: Vec<TableProbe>,
}

const REGIONS: usize = 8;
const SEGMENTS: usize = 4;
const ADJ: [&str; 8] = [
    "acme", "atlas", "apex", "global", "united", "pioneer", "summit", "nova",
];
const NOUN: [&str; 5] = ["corp", "industries", "logistics", "systems", "partners"];
pub const STATUS: [&str; 4] = ["open", "shipped", "billed", "returned"];
const CATEGORY: [&str; 6] = ["widgets", "gadgets", "tools", "parts", "service", "license"];
const DEPT: [&str; 5] = ["engineering", "sales", "finance", "support", "operations"];
const LOCATION: [&str; 3] = ["hq", "east-office", "west-office"];
const RATING: [&str; 5] = ["AAA", "AA", "A", "B", "C"];

/// FedMark row counts at a scale factor.
pub struct Sizes {
    pub customers: i64,
    pub orders: i64,
    pub products: i64,
    pub lineitems: i64,
    pub employees: i64,
    pub tickets: i64,
    pub payments: i64,
}

pub fn sizes(sf: i64) -> Sizes {
    Sizes {
        customers: 100 * sf,
        orders: 600 * sf,
        products: 40 * sf,
        lineitems: 1500 * sf,
        employees: 60 * sf,
        tickets: 150 * sf,
        payments: 300 * sf,
    }
}

fn schema(fields: Vec<Field>) -> Arc<Schema> {
    Arc::new(Schema::new(fields))
}

/// The six-source FedMark enterprise: crm (LAN, ANSI), sales (WAN,
/// legacy-minimal dialect), hr (LAN), support (document store), files
/// (delimited file), credit (web service reachable only by bound key).
pub fn fedmark(sf: i64, seed: u64, config: PlannerConfig) -> Result<Built> {
    let mut rng = Rng::new(seed);
    let clock = SimClock::new();
    let n = sizes(sf);

    let crm = Database::new("crm", clock.clone());
    let customers = crm.create_table(
        TableDef::new(
            "customers",
            schema(vec![
                Field::new("customer_id", DataType::Int).not_null(),
                Field::new("name", DataType::Str),
                Field::new("region", DataType::Str),
                Field::new("segment", DataType::Str),
                Field::new("created_at", DataType::Timestamp),
            ]),
        )
        .with_primary_key(0),
    )?;
    {
        let adj = rng.balanced(n.customers, ADJ.len());
        let region = rng.balanced(n.customers, REGIONS);
        let segment = rng.balanced(n.customers, SEGMENTS);
        let mut t = customers.write();
        for i in 0..n.customers {
            let u = i as usize;
            t.insert(row![
                i,
                format!(
                    "{} {} {i}",
                    ADJ[adj[u]],
                    NOUN[rng.below(NOUN.len() as u64) as usize]
                ),
                format!("r{}", region[u]),
                format!("s{}", segment[u]),
                Value::Timestamp(rng.range(0, 1_000_000)),
            ])?;
        }
    }

    let sales = Database::new("sales", clock.clone());
    let orders = sales.create_table(
        TableDef::new(
            "orders",
            schema(vec![
                Field::new("order_id", DataType::Int).not_null(),
                Field::new("customer_id", DataType::Int),
                Field::new("total", DataType::Float),
                Field::new("status", DataType::Str),
                Field::new("placed_at", DataType::Timestamp),
            ]),
        )
        .with_primary_key(0),
    )?;
    {
        let status = rng.balanced(n.orders, STATUS.len());
        let mut t = orders.write();
        t.create_hash_index(1);
        for i in 0..n.orders {
            t.insert(row![
                i,
                rng.range(0, n.customers),
                // Multiples of 0.5: every SUM is exact in f64, so a plan
                // that adds in another order still gives the same answer.
                rng.range(1, 2000) as f64 / 2.0,
                STATUS[status[i as usize]],
                Value::Timestamp(rng.range(0, 1_000_000)),
            ])?;
        }
    }
    let products = sales.create_table(
        TableDef::new(
            "products",
            schema(vec![
                Field::new("product_id", DataType::Int).not_null(),
                Field::new("category", DataType::Str),
                Field::new("price", DataType::Float),
            ]),
        )
        .with_primary_key(0),
    )?;
    {
        let category = rng.balanced(n.products, CATEGORY.len());
        let mut t = products.write();
        for i in 0..n.products {
            t.insert(row![
                i,
                CATEGORY[category[i as usize]],
                rng.range(5, 500) as f64 / 4.0,
            ])?;
        }
    }
    let lineitems = sales.create_table(
        TableDef::new(
            "lineitems",
            schema(vec![
                Field::new("li_id", DataType::Int).not_null(),
                Field::new("order_id", DataType::Int),
                Field::new("product_id", DataType::Int),
                Field::new("qty", DataType::Int),
            ]),
        )
        .with_primary_key(0),
    )?;
    {
        let mut t = lineitems.write();
        t.create_hash_index(1);
        for i in 0..n.lineitems {
            t.insert(row![
                i,
                rng.range(0, n.orders),
                rng.range(0, n.products),
                rng.range(1, 10),
            ])?;
        }
    }

    let hr = Database::new("hr", clock.clone());
    let employees = hr.create_table(
        TableDef::new(
            "employees",
            schema(vec![
                Field::new("emp_id", DataType::Int).not_null(),
                Field::new("name", DataType::Str),
                Field::new("department", DataType::Str),
                Field::new("location", DataType::Str),
            ]),
        )
        .with_primary_key(0),
    )?;
    {
        let dept = rng.balanced(n.employees, DEPT.len());
        let location = rng.balanced(n.employees, LOCATION.len());
        let mut t = employees.write();
        for i in 0..n.employees {
            let u = i as usize;
            t.insert(row![
                i,
                format!("employee {i}"),
                DEPT[dept[u]],
                LOCATION[location[u]],
            ])?;
        }
    }

    let tickets = DocStore::new();
    {
        let severity = rng.balanced(n.tickets, 4);
        // Exported in documents of 25 tickets each.
        let mut batch: Vec<Vec<(&str, String)>> = Vec::new();
        for i in 0..n.tickets {
            let cust = rng.range(0, n.customers);
            batch.push(vec![
                ("ticket_id", i.to_string()),
                ("customer_id", cust.to_string()),
                ("severity", (severity[i as usize] + 1).to_string()),
                (
                    "subject",
                    format!(
                        "ticket about {} from customer {cust}",
                        CATEGORY[rng.below(CATEGORY.len() as u64) as usize]
                    ),
                ),
            ]);
            if batch.len() == 25 || i == n.tickets - 1 {
                tickets.insert(Document::from_records(format!("ticket export {i}"), &batch));
                batch.clear();
            }
        }
    }
    let support = DocumentConnector::new("support", tickets).define_table(VirtualTable {
        name: "tickets".into(),
        columns: vec![
            ("ticket_id".into(), "//row/ticket_id".into(), DataType::Int),
            (
                "customer_id".into(),
                "//row/customer_id".into(),
                DataType::Int,
            ),
            ("severity".into(), "//row/severity".into(), DataType::Int),
            ("subject".into(), "//row/subject".into(), DataType::Str),
        ],
    });

    let mut csv = String::from("payment_id,customer_id,amount\n");
    for i in 0..n.payments {
        let _ = writeln!(
            csv,
            "{i},{},{}",
            rng.range(0, n.customers),
            rng.range(1, 5000) as f64 / 10.0
        );
    }
    let files = CsvConnector::new("files").add_file(
        "payments",
        &csv,
        ',',
        &[DataType::Int, DataType::Int, DataType::Float],
    )?;

    let credit = Database::new("credit", clock.clone());
    let ratings = credit.create_table(
        TableDef::new(
            "ratings",
            schema(vec![
                Field::new("customer_id", DataType::Int).not_null(),
                Field::new("rating", DataType::Str),
            ]),
        )
        .with_primary_key(0),
    )?;
    {
        let rating = rng.balanced(n.customers, RATING.len());
        let mut t = ratings.write();
        for i in 0..n.customers {
            t.insert(row![i, RATING[rating[i as usize]]])?;
        }
    }

    let lookup_keys = (0..32)
        .map(|_| Value::Int(rng.range(0, n.orders)))
        .collect();
    let system = EiiSystem::builder(clock)
        .planner_config(config)
        .source(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .source(
            Arc::new(RelationalConnector::new(sales).with_dialect(Dialect::legacy_minimal())),
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
                WebServiceConnector::new("credit", credit)
                    .require_binding("ratings", "customer_id"),
            ),
            LinkProfile::wan(),
            WireFormat::Native,
        )
        .build()?;

    Ok(Built {
        system,
        probes: vec![TableProbe {
            table: Arc::clone(&lineitems),
            lookup_col: 1,
            keys: lookup_keys,
        }],
        tables: vec![
            ("crm.customers".into(), customers),
            ("sales.orders".into(), orders),
            ("sales.products".into(), products),
            ("sales.lineitems".into(), lineitems),
            ("hr.employees".into(), employees),
            ("credit.ratings".into(), ratings),
        ],
    })
}

/// Probe-side rows of the hub dataset.
pub const FACT_ROWS: i64 = 20_000;
/// Distinct join keys on the build side.
pub const DIM_KEYS: i64 = 2_000;
/// Build-side duplicates per key: every fact row joins exactly `FANOUT`
/// dimension rows, so the hub join expands tenfold whatever the seed.
pub const FANOUT: i64 = 10;

/// Two LAN relational sources for the hub workload: `ops.fact` behind a
/// legacy-minimal dialect (no filter is pushable, so Filter/Project run at
/// the hub) and `refd.dim` with `FANOUT` rows per key.
pub fn hub(seed: u64, config: PlannerConfig) -> Result<Built> {
    let mut rng = Rng::new(seed ^ 0x4855_4221);
    let clock = SimClock::new();

    let ops = Database::new("ops", clock.clone());
    let fact = ops.create_table(TableDef::new(
        "fact",
        schema(vec![
            Field::new("fk", DataType::Int).not_null(),
            Field::new("grp", DataType::Int).not_null(),
            Field::new("a", DataType::Int).not_null(),
            Field::new("b", DataType::Float).not_null(),
        ]),
    ))?;
    {
        let grp = rng.balanced(FACT_ROWS, 32);
        let a = rng.balanced(FACT_ROWS, 1000);
        let mut t = fact.write();
        for i in 0..FACT_ROWS as usize {
            t.insert(row![
                rng.range(0, DIM_KEYS),
                grp[i] as i64,
                a[i] as i64,
                rng.range(0, 997) as f64 * 0.5,
            ])?;
        }
    }

    let refd = Database::new("refd", clock.clone());
    let dim = refd.create_table(TableDef::new(
        "dim",
        schema(vec![
            Field::new("dk", DataType::Int).not_null(),
            Field::new("w", DataType::Int).not_null(),
        ]),
    ))?;
    {
        let mut keys: Vec<i64> = (0..DIM_KEYS * FANOUT).map(|i| i / FANOUT).collect();
        rng.shuffle(&mut keys);
        let w = rng.balanced(DIM_KEYS * FANOUT, 100);
        let mut t = dim.write();
        for (k, w) in keys.into_iter().zip(w) {
            t.insert(row![k, w as i64])?;
        }
    }

    let lookup_keys = (0..32)
        .map(|_| Value::Int(rng.range(0, DIM_KEYS)))
        .collect();
    // Neither gateway takes key batches, so no join can be turned into a
    // bind join: every join of this workload is assembled at the hub, which
    // is the layer it exists to measure.
    let no_bindings = SourceCapabilities {
        bindings: false,
        ..SourceCapabilities::relational()
    };
    let system = EiiSystem::builder(clock)
        .planner_config(config)
        .source(
            Arc::new(
                RelationalConnector::new(ops)
                    .with_dialect(Dialect::legacy_minimal())
                    .with_capabilities(no_bindings.clone()),
            ),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .source(
            Arc::new(RelationalConnector::new(refd).with_capabilities(no_bindings)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .build()?;

    Ok(Built {
        system,
        probes: vec![TableProbe {
            table: Arc::clone(&dim),
            lookup_col: 0,
            keys: lookup_keys,
        }],
        tables: vec![("ops.fact".into(), fact), ("refd.dim".into(), dim)],
    })
}
