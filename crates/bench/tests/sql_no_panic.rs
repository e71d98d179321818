//! The SQL front end's no-panic boundary: `parse_statement` answers every
//! text with `Ok` or a typed `EiiError`, never a panic. The texts are FedMark
//! Q1–Q11 and the hub statements, cut short at every char boundary or with
//! lexer hazards spliced in at random char boundaries: quotes, comment
//! openers, non-ASCII letters, a backslash, an integer one past `i64::MAX`
//! and a float literal that overflows.

use std::panic::{catch_unwind, AssertUnwindSafe};

use eii::sql::parse_statement;
use eii_bench::fedmark::FedMark;
use proptest::prelude::*;

/// `eiibench`'s hub statements (H1–H4), over `ops.fact` and `refd.dim`.
const HUB: [&str; 4] = [
    "SELECT f.grp, COUNT(*) AS n, SUM(f.a + d.w) AS s1, SUM(f.b) AS s2, \
     MIN(f.a * d.w % 1000) AS lo, MAX(f.a - 500 + d.w) AS hi \
     FROM ops.fact f JOIN refd.dim d ON f.fk = d.dk \
     WHERE f.grp <= 27 AND f.a <= 799 AND f.b >= 10.0 AND f.a + d.w > 50 \
     GROUP BY f.grp",
    "SELECT a + b * 2 AS x, (a * 7 + fk) % 991 AS y, a - 500 AS z \
     FROM ops.fact WHERE (a * 3 + grp) % 7 < 5 AND b >= 10.0",
    "SELECT f.fk, f.a, d.w FROM ops.fact f JOIN refd.dim d ON f.fk = d.dk \
     WHERE f.a <= 99 ORDER BY d.w DESC, f.a, f.fk LIMIT 20",
    "SELECT DISTINCT grp, a % 50 AS bucket FROM ops.fact",
];

const HAZARDS: [&str; 10] = [
    "'",
    "''",
    "--",
    "/*",
    "é",
    "\u{1F980}",
    "\\",
    "9223372036854775808",
    "1e999",
    "\"",
];

fn corpus() -> Vec<&'static str> {
    FedMark::queries()
        .into_iter()
        .map(|(_, _, sql)| sql)
        .chain(HUB)
        .collect()
}

/// Every char boundary of `text`, its end included.
fn boundaries(text: &str) -> Vec<usize> {
    text.char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect()
}

/// `Err` with the offending text when `parse_statement` panics on it.
fn parses_or_errs(text: &str) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| parse_statement(text))) {
        Ok(_) => Ok(()),
        Err(_) => Err(format!("parse_statement panicked on {text:?}")),
    }
}

#[test]
fn every_truncation_parses_or_errs() {
    for sql in corpus() {
        for end in boundaries(sql) {
            parses_or_errs(&sql[..end]).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]
    #[test]
    fn spliced_hazards_parse_or_err(
        stmt in any::<usize>(),
        splices in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let corpus = corpus();
        let mut text = corpus[stmt % corpus.len()].to_string();
        for pick in splices {
            let hazard = HAZARDS[(pick % HAZARDS.len() as u64) as usize];
            let at = boundaries(&text);
            let at = at[(pick / HAZARDS.len() as u64 % at.len() as u64) as usize];
            text.insert_str(at, hazard);
        }
        let outcome = parses_or_errs(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?}");
    }
}
