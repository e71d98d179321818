//! Concurrency smoke test: one `Arc<EiiSystem>` shared across 16 OS
//! threads runs the full FedMark query suite simultaneously. Every thread
//! must get row-identical answers to the serial oracle, and the run must
//! complete (no deadlock) with exact aggregate byte accounting and exact
//! per-statement byte attribution in the query log.

use eii::data::Row;
use eii_bench::fedmark::FedMark;

fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

#[test]
fn fedmark_suite_across_16_os_threads() {
    const THREADS: usize = 16;
    // Serial oracle on its own environment: expected rows per query and
    // bytes shipped for one pass over the suite.
    let oracle = FedMark::build(1, 7).unwrap();
    let mut expect = Vec::new();
    for (_, _, sql) in FedMark::queries() {
        let out = oracle.system.execute(sql).unwrap();
        expect.push(sorted(out.rows().unwrap().rows()));
    }
    let serial_bytes = oracle.system.federation().ledger().total().bytes;

    let env = FedMark::build(1, 7).unwrap();
    let system = &env.system;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let expect = &expect;
            scope.spawn(move || {
                let session = system.session().with_label(&format!("smoke{t}"));
                for (i, (id, _, sql)) in FedMark::queries().into_iter().enumerate() {
                    let out = session.execute(sql).unwrap();
                    assert_eq!(
                        sorted(out.rows().unwrap().rows()),
                        expect[i],
                        "thread {t}: {id} diverged from the serial oracle"
                    );
                }
            });
        }
    });

    // Aggregate accounting stays exact under contention: 16 threads each
    // shipped exactly what one serial pass ships.
    assert_eq!(
        env.system.federation().ledger().total().bytes,
        serial_bytes * THREADS,
        "concurrent byte accounting drifted from serial"
    );
    let snap = env.system.metrics().snapshot();
    for t in 0..THREADS {
        assert_eq!(
            snap.counter(&format!("session.smoke{t}.queries")),
            FedMark::queries().len() as u64,
            "per-session metrics labels under-counted"
        );
    }
    // Each logged statement's per-source bytes are its own: they sum to
    // what it shipped, however much the other sessions shipped meanwhile.
    let records = env.system.query_log().records();
    assert!(!records.is_empty(), "the query log retained no statement");
    for r in &records {
        let attributed: u64 = r.per_source_bytes.iter().map(|(_, b)| b).sum();
        assert_eq!(
            attributed, r.bytes_shipped,
            "{}: per-source bytes {:?} do not sum to the statement's bytes shipped",
            r.sql, r.per_source_bytes
        );
    }
}
