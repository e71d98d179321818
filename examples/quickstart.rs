//! Quickstart: integrate two live sources behind one mediated schema and
//! query them with plain SQL — no warehouse, no copies.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use eii::prelude::*;
use eii::row;

fn main() -> Result<()> {
    // ── 1. Two independent enterprise systems ──────────────────────────
    let clock = SimClock::new();

    let crm = Database::new("crm", clock.clone());
    let customers = crm.create_table(
        TableDef::new(
            "customers",
            Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int).not_null(),
                Field::new("name", DataType::Str),
                Field::new("region", DataType::Str),
            ])),
        )
        .with_primary_key(0),
    )?;
    {
        let mut t = customers.write();
        t.insert(row![1i64, "Acme Corp", "west"])?;
        t.insert(row![2i64, "Globex", "east"])?;
        t.insert(row![3i64, "Initech", "west"])?;
    }

    let sales = Database::new("sales", clock.clone());
    let orders = sales.create_table(
        TableDef::new(
            "orders",
            Arc::new(Schema::new(vec![
                Field::new("order_id", DataType::Int).not_null(),
                Field::new("customer_id", DataType::Int),
                Field::new("total", DataType::Float),
            ])),
        )
        .with_primary_key(0),
    )?;
    {
        let mut t = orders.write();
        for i in 0..9i64 {
            t.insert(row![i, i % 3 + 1, (i as f64 + 1.0) * 100.0])?;
        }
    }

    // ── 2. Register them with the EII server ───────────────────────────
    let system = EiiSystem::new(clock);
    system.add_source(
        Arc::new(RelationalConnector::new(crm)),
        LinkProfile::lan(),
        WireFormat::Native,
    )?;
    system.add_source(
        Arc::new(RelationalConnector::new(sales)),
        LinkProfile::wan(),
        WireFormat::Native,
    )?;

    // ── 3. A mediated view spanning both sources ───────────────────────
    system.execute(
        "CREATE VIEW customer_orders AS \
         SELECT c.id, c.name, c.region, o.order_id, o.total \
         FROM crm.customers c JOIN sales.orders o ON c.id = o.customer_id",
    )?;

    // ── 4. Query it like one database ──────────────────────────────────
    let sql = "SELECT name, COUNT(*) AS orders, SUM(total) AS revenue \
               FROM customer_orders WHERE region = 'west' \
               GROUP BY name ORDER BY revenue DESC";
    println!("{}\n", system.execute(&format!("EXPLAIN {sql}"))?.explained()?);
    let out = system.execute(sql)?;
    let result = out.query_result()?;
    println!("{}", result.batch);
    println!(
        "live federated query: {:.2} simulated ms, {} bytes shipped, {} source requests",
        result.cost.sim_ms, result.cost.bytes, result.cost.requests
    );
    Ok(())
}
