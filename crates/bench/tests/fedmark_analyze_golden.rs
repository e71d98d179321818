//! Golden file: what one run of FedMark Q1–Q11 at SF 1, seed 42, under
//! `PlannerConfig::optimized()` and `PlannerConfig::naive()`, with the advisor
//! on, records about its operators — compared byte for byte with
//! `tests/golden/fedmark_analyze.txt`:
//!
//! - each statement's `EXPLAIN ANALYZE` text, every `wall=` value elided;
//! - the statement's query-log `operators` rows;
//! - after the suite, the advisor's feedback correction of every plan node.
//!
//! A refactor of the executor's profile or the facade's per-operator walks
//! that claims "no change" is held to it.

use std::fmt::Write as _;

use eii::advisor::AdvisorConfig;
use eii::planner::{plan_query, CardinalityFeedback, PhysicalPlan, PlannerConfig};
use eii::sql::parse_query;
use eii_bench::fedmark::FedMark;

#[path = "../../../tests/support/golden.rs"]
mod golden;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/fedmark_analyze.txt");
const REGENERATE: &str = "UPDATE_GOLDEN=1 cargo test -p eii-bench --test fedmark_analyze_golden";

/// `text` with every `wall=<value>` written `wall=_`.
fn elide_wall(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("wall=") {
        out.push_str(&rest[..at + "wall=".len()]);
        out.push('_');
        rest = &rest[at + "wall=".len()..];
        rest = &rest[rest.find([' ', ')', '\n']).unwrap_or(rest.len())..];
    }
    out.push_str(rest);
    out
}

/// One line per node of `plan`, in preorder: its path, label and feedback
/// correction.
fn corrections(plan: &PhysicalPlan, feedback: &CardinalityFeedback, path: &str, out: &mut String) {
    let correction = feedback.correction(CardinalityFeedback::node_key(plan));
    writeln!(out, "  {path} {} {correction:?}", plan.label()).unwrap();
    for (i, child) in plan.children().into_iter().enumerate() {
        corrections(child, feedback, &format!("{path}.{i}"), out);
    }
}

#[test]
fn fedmark_analyze_matches_golden_file() {
    let mut actual = String::new();
    for (label, config) in [
        ("optimized", PlannerConfig::optimized()),
        ("naive", PlannerConfig::naive()),
    ] {
        let env = FedMark::build_with_config(1, 42, config).unwrap();
        let system = &env.system;
        assert!(system.enable_advisor(AdvisorConfig::default()));
        for (id, _, sql) in FedMark::queries() {
            let outcome = system.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let text = elide_wall(outcome.explained().unwrap());
            writeln!(actual, "### {id} [{label}]\n{text}").unwrap();
            let record = system.query_log().last().unwrap();
            assert!(record.sql.contains(sql), "{}", record.sql);
            for op in &record.operators {
                writeln!(
                    actual,
                    "op {} {} est_rows={} actual_rows={} bytes={} sim_ms={:?}",
                    op.path, op.label, op.est_rows, op.actual_rows, op.bytes, op.sim_ms
                )
                .unwrap();
            }
        }
        writeln!(actual, "### feedback [{label}]").unwrap();
        let feedback = system.cardinality_feedback().unwrap();
        for (id, _, sql) in FedMark::queries() {
            let (catalog, federation) = (system.catalog(), system.federation());
            let plan = plan_query(&parse_query(sql).unwrap(), catalog, federation, system.config());
            let plan = plan.unwrap();
            // The plan the statement ran.
            let explained = system.execute(&format!("EXPLAIN {sql}")).unwrap();
            assert!(explained.explained().unwrap().ends_with(&plan.display()), "{id}");
            writeln!(actual, "{id}").unwrap();
            corrections(&plan, feedback, "0", &mut actual);
        }
    }
    golden::check(GOLDEN, &actual, "EXPLAIN ANALYZE text", REGENERATE);
}
