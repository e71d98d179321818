//! Customer 360: the paper's first successful EII application — "provide
//! the customer-facing worker a global view of a customer whose data is
//! residing in multiple sources" (Halevy §1), plus Sikka's enterprise-search
//! scenario ("Jamie needs to find all the information related to a
//! customer") with security filtering.
//!
//! Sources: relational CRM, web-service order system (access-limited),
//! document-store support tickets, and a contracts corpus.
//!
//! Run with: `cargo run --example customer_360`

use std::sync::Arc;

use eii::prelude::*;
use eii::row;
use eii::search::{index_docstore, index_federation_table, EnterpriseSearch, SearchIndex};

fn main() -> Result<()> {
    let clock = SimClock::new();

    // CRM (relational).
    let crm = Database::new("crm", clock.clone());
    let customers = crm.create_table(
        TableDef::new(
            "customers",
            Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int).not_null(),
                Field::new("name", DataType::Str),
                Field::new("region", DataType::Str),
                Field::new("credit_rating", DataType::Str),
            ])),
        )
        .with_primary_key(0),
    )?;
    {
        let mut t = customers.write();
        t.insert(row![1i64, "Acme Corp", "west", "AA"])?;
        t.insert(row![2i64, "Globex", "east", "B"])?;
    }

    // Orders behind a web service: only reachable by customer_id.
    let orders_db = Database::new("orders", clock.clone());
    let orders = orders_db.create_table(
        TableDef::new(
            "orders",
            Arc::new(Schema::new(vec![
                Field::new("order_id", DataType::Int).not_null(),
                Field::new("customer_id", DataType::Int),
                Field::new("status", DataType::Str),
                Field::new("total", DataType::Float),
            ])),
        )
        .with_primary_key(0),
    )?;
    {
        let mut t = orders.write();
        t.create_hash_index(1);
        t.insert(row![500i64, 1i64, "shipped", 1200.0])?;
        t.insert(row![501i64, 1i64, "open", 640.0])?;
        t.insert(row![502i64, 2i64, "shipped", 90.0])?;
    }

    // Support tickets live in a schema-less document store.
    let tickets = DocStore::new();
    tickets.insert(Document::from_records(
        "weekly ticket export",
        &[
            vec![
                ("ticket_id", "9001".into()),
                ("customer_id", "1".into()),
                ("severity", "2".into()),
                ("subject", "Acme Corp renewal question".into()),
            ],
            vec![
                ("ticket_id", "9002".into()),
                ("customer_id", "1".into()),
                ("severity", "1".into()),
                ("subject", "Acme outage follow-up".into()),
            ],
        ],
    ));
    let support = DocumentConnector::new("support", tickets).define_table(VirtualTable {
        name: "tickets".into(),
        columns: vec![
            ("ticket_id".into(), "//row/ticket_id".into(), DataType::Int),
            ("customer_id".into(), "//row/customer_id".into(), DataType::Int),
            ("severity".into(), "//row/severity".into(), DataType::Int),
            ("subject".into(), "//row/subject".into(), DataType::Str),
        ],
    });

    // Contracts: unstructured documents for search only.
    let contracts = DocStore::new();
    contracts.insert(Document::from_text(
        "Acme Corp master agreement",
        "Renewal due 2005-09-01. Gold support tier. Credit terms net 30.",
    ));
    contracts.insert(Document::from_text(
        "Globex purchase order",
        "One-time purchase, no support contract.",
    ));

    // ── Assemble the system ─────────────────────────────────────────────
    let system = Arc::new(EiiSystem::new(clock));
    system.add_source(
        Arc::new(RelationalConnector::new(crm)),
        LinkProfile::lan(),
        WireFormat::Native,
    )?;
    system.add_source(
        Arc::new(WebServiceConnector::new("orders", orders_db).require_binding("orders", "customer_id")),
        LinkProfile::wan(),
        WireFormat::Native,
    )?;
    system.add_source(Arc::new(support), LinkProfile::lan(), WireFormat::Native)?;

    // Metadata: describe sources, restrict credit data to account managers.
    system.catalog().describe_source(
        "crm",
        SourceMeta {
            description: "Customer relationship management system".into(),
            owner: "sales-it".into(),
            tags: vec!["customer".into(), "gold".into()],
        },
    );
    system.catalog().grant("crm", "account-manager");

    // The 360 view: one definition, reused by every query.
    system.execute(
        "CREATE VIEW customer360 AS \
         SELECT c.id, c.name, c.region, c.credit_rating, o.order_id, o.status, o.total \
         FROM crm.customers c JOIN orders.orders o ON c.id = o.customer_id",
    )?;

    println!("== Acme's open position (live, three sources) ==");
    let out = system.execute(
        "SELECT name, order_id, status, total FROM customer360 WHERE id = 1 ORDER BY order_id",
    )?;
    println!("{}", out.rows()?);

    println!("== Severity-1 tickets joined against the CRM ==");
    let out = system.execute(
        "SELECT c.name, t.subject FROM crm.customers c \
         JOIN support.tickets t ON c.id = t.customer_id WHERE t.severity = 1",
    )?;
    println!("{}", out.rows()?);

    // ── Enterprise search across everything ────────────────────────────
    let mut index = SearchIndex::new();
    index_federation_table(&mut index, system.federation(), "crm.customers")?;
    index_docstore(&mut index, "contracts", &contracts)?;
    system.attach_search_service(EnterpriseSearch::new(index, system.catalog().clone()));

    for role in ["intern", "account-manager"] {
        println!("== SEARCH 'acme renewal' as {role} ==");
        match system.session().with_role(role).execute("SEARCH 'acme renewal' LIMIT 5")? {
            eii::ExecOutcome::SearchHits(hits) => {
                for h in hits {
                    println!("  [{:>9}] {:<24} {:.3}  {}", h.source, h.item_ref, h.score, h.snippet);
                }
            }
            _ => unreachable!(),
        }
    }
    Ok(())
}
