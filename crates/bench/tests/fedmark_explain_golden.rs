//! Golden file: the `EXPLAIN` text of FedMark Q1–Q11 at SF 1 under
//! `PlannerConfig::optimized()` and `PlannerConfig::naive()`, compared byte
//! for byte with `tests/golden/fedmark_explain.txt`. A refactor of the
//! facade or the planner that claims "no plan changes" is held to it; an
//! intended plan change regenerates the file in the same commit.

use std::fmt::Write as _;

use eii::planner::PlannerConfig;
use eii_bench::fedmark::FedMark;

#[path = "../../../tests/support/golden.rs"]
mod golden;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/fedmark_explain.txt");
const REGENERATE: &str = "UPDATE_GOLDEN=1 cargo test -p eii-bench --test fedmark_explain_golden";

#[test]
fn fedmark_explain_matches_golden_file() {
    let mut actual = String::new();
    for (label, config) in [
        ("optimized", PlannerConfig::optimized()),
        ("naive", PlannerConfig::naive()),
    ] {
        let env = FedMark::build_with_config(1, 42, config).unwrap();
        for (id, _, sql) in FedMark::queries() {
            let outcome = env.system.execute(&format!("EXPLAIN {sql}")).unwrap();
            writeln!(actual, "### {id} [{label}]\n{}", outcome.explained().unwrap()).unwrap();
        }
    }
    golden::check(GOLDEN, &actual, "EXPLAIN text", REGENERATE);
}
