//! The plan memo on the workload it is for: FedMark's eleven statements,
//! issued over and over, are each planned once, and the trace of a repeat
//! shows what was skipped.

use eii_bench::fedmark::FedMark;

#[test]
fn a_hundred_rounds_of_fedmark_plan_eleven_statements() {
    let env = FedMark::build(1, 42).unwrap();
    let session = env.system.session();
    let mut first = Vec::new();
    for round in 0..100 {
        for (i, (id, _, sql)) in FedMark::queries().into_iter().enumerate() {
            let rows = session.execute(sql).unwrap().rows().unwrap().clone();
            let trace = session.last_trace().unwrap();
            let plan = trace.find("plan").unwrap();
            if round == 0 {
                first.push(rows);
                assert!(trace.find("parse").is_some(), "{id}");
                assert_eq!(plan.annotations, [("memo".to_string(), "miss".to_string())], "{id}");
            } else {
                assert_eq!(rows, first[i], "{id}, round {round}");
                assert!(trace.find("parse").is_none(), "{id}: {}", trace.render());
                assert_eq!(plan.annotations, [("memo".to_string(), "hit".to_string())], "{id}");
            }
        }
    }
    let snap = env.system.metrics().snapshot();
    assert_eq!(snap.counter("plan.memo.miss"), 11);
    assert_eq!(snap.counter("plan.memo.stale"), 0);
    assert_eq!(snap.counter("plan.memo.hit"), 99 * 11);
}
