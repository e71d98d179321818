//! The answer oracle: a twin of the system under test, planned naively
//! (no pushdown, no bind-join choice, no vectorization, no cache, no
//! views), whose answers every timed execution is compared against.
//!
//! The reference comes from a different plan over the same data, never from
//! the configuration being measured: a wrong answer shared by both would
//! need the same bug in the optimized and the unoptimized path.

use std::time::{Duration, Instant};

use eii::prelude::*;

use crate::workload::{run_pass, Env, Event, Role, Workload};

/// What an answer is reduced to: row count plus an order-independent
/// checksum (the wrapping sum of each row's FNV-1a hash), so no answer is
/// sorted or kept and checking costs one walk over the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: usize,
    pub checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

fn hash_row(row: &Row) -> u64 {
    row.values().iter().fold(FNV_OFFSET, |h, v| match v {
        Value::Null => fnv(h, &[0]),
        Value::Bool(b) => fnv(fnv(h, &[1]), &[u8::from(*b)]),
        Value::Int(i) => fnv(fnv(h, &[2]), &i.to_le_bytes()),
        // `0.0 + x` folds -0.0 into 0.0: the two are equal as SQL values.
        Value::Float(f) => fnv(fnv(h, &[3]), &(0.0 + f).to_bits().to_le_bytes()),
        Value::Str(s) => fnv(fnv(fnv(h, &[4]), s.as_bytes()), &[0xff]),
        Value::Timestamp(t) => fnv(fnv(h, &[5]), &t.to_le_bytes()),
    })
}

pub fn checksum_rows<'a>(rows: impl Iterator<Item = &'a Row>) -> Answer {
    let mut answer = Answer {
        rows: 0,
        checksum: 0,
    };
    for row in rows {
        answer.rows += 1;
        answer.checksum = answer.checksum.wrapping_add(hash_row(row));
    }
    answer
}

/// Row count and checksum of every storage table: the state a pass must
/// leave as it found it.
#[cfg(test)]
pub fn table_state(built: &crate::gen::Built) -> Vec<(String, Answer)> {
    built
        .tables
        .iter()
        .map(|(name, table)| {
            let table = table.read();
            (
                name.clone(),
                checksum_rows(table.iter().map(|(_, row)| row)),
            )
        })
        .collect()
}

/// Reduce a statement's outcome to its answer, or say why there is none.
pub fn answer_of(outcome: &Result<ExecOutcome>) -> std::result::Result<Answer, String> {
    match outcome {
        Ok(out) => match out.try_rows() {
            Some(batch) => Ok(checksum_rows(batch.rows().iter())),
            None => Err("statement returned no rows".into()),
        },
        Err(e) => Err(format!("{}: {e}", e.kind())),
    }
}

/// Expected answer at each read position of a pass.
pub struct Oracle {
    pub expected: Vec<Answer>,
    /// Time to build the twin and run its pass.
    pub elapsed: Duration,
}

impl Oracle {
    /// Build the twin and record one pass of answers. On `dashboard_rw` the
    /// twin receives the pass's writes too, so each position's expectation
    /// reflects the table state at that point of the cycle.
    pub fn build(workload: Workload, seed: u64) -> std::result::Result<Oracle, String> {
        let start = Instant::now();
        let twin = Env::build(workload, seed, Role::Oracle).map_err(|e| e.to_string())?;
        let mut expected = Vec::with_capacity(twin.reads_per_pass());
        let mut problem = None;
        run_pass(&twin, &mut |event| match event {
            Event::Read { stmt, outcome, .. } => match answer_of(outcome) {
                Ok(answer) => expected.push(answer),
                Err(e) => problem = Some(format!("oracle {}: {e}", twin.stmts[stmt].id)),
            },
            Event::Maintain { outcome, .. } => {
                if let Err(e) = outcome {
                    problem = Some(format!("oracle maintenance: {e}"));
                }
            }
        });
        match problem {
            Some(p) => Err(p),
            None => Ok(Oracle {
                expected,
                elapsed: start.elapsed(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = eii::row![1i64, "x", 2.5];
        let b = eii::row![2i64, "y", 0.0];
        let b_negative_zero = eii::row![2i64, "y", -0.0];
        let c = eii::row![2i64, "y", 0.5];
        assert_eq!(
            checksum_rows([&a, &b].into_iter()),
            checksum_rows([&b, &a].into_iter())
        );
        assert_eq!(
            checksum_rows([&a, &b].into_iter()),
            checksum_rows([&a, &b_negative_zero].into_iter())
        );
        assert_ne!(
            checksum_rows([&a, &b].into_iter()),
            checksum_rows([&a, &c].into_iter())
        );
        assert_ne!(
            checksum_rows([&a].into_iter()),
            checksum_rows([&a, &a].into_iter())
        );
    }

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        let state = |seed| table_state(&gen::fedmark(1, seed, PlannerConfig::optimized()).unwrap());
        assert_eq!(state(42), state(42));
        let (a, b) = (state(42), state(43));
        // Same shape, different content, in every table.
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(x.rows, y.rows, "{name}");
            assert_ne!(x.checksum, y.checksum, "{name}");
        }
        let hub = |seed| table_state(&gen::hub(seed, PlannerConfig::optimized()).unwrap());
        assert_eq!(hub(7), hub(7));
        assert_ne!(hub(7), hub(8));
    }
}
