//! The recorder behind every pass: latency samples per position, answer
//! checks against the oracle, failure accounting, and the end-to-end
//! timings computed from them.

use std::time::Duration;

use crate::oracle::{answer_of, Oracle};
use crate::stats::{geomean, median, nearest_rank, settled};
use crate::workload::{Env, Event, Op};

/// Failures listed by statement id in the report; the count is never capped.
const MAX_LISTED_FAILURES: usize = 20;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Default)]
pub struct Recorder {
    /// Read latencies in ms by position in the pass: the op list is fixed,
    /// so position `i` is the same statement doing the same work in every
    /// pass (on `dashboard_rw`, the same cache hit or miss).
    pub per_pos: Vec<Vec<f64>>,
    /// Statement index (into `Env::stmts`) of each read position.
    pub pos_stmt: Vec<usize>,
    /// Burst-to-fresh intervals in ms, by maintenance slot in the pass.
    pub per_slot: Vec<Vec<f64>>,
    /// Sum of every timed interval: the client's busy time. Checking
    /// answers happens between intervals and is not in it.
    pub busy: Duration,
    pub passes: usize,
    /// Statements and maintenance intervals attempted.
    pub attempted: u64,
    /// Errors plus wrong answers.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn new(env: &Env) -> Self {
        let pos_stmt: Vec<usize> = env
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Read(stmt) => Some(*stmt),
                Op::Maintain(_) => None,
            })
            .collect();
        Recorder {
            per_pos: vec![Vec::new(); pos_stmt.len()],
            per_slot: vec![Vec::new(); env.ops.len() - pos_stmt.len()],
            pos_stmt,
            ..Recorder::default()
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_LISTED_FAILURES {
            self.failures.push(what);
        }
    }

    /// Compare one answer with the oracle's at the same position.
    pub fn check(
        &mut self,
        id: &str,
        pos: usize,
        got: Result<crate::oracle::Answer, String>,
        oracle: &Oracle,
    ) {
        self.attempted += 1;
        match got {
            Ok(answer) if answer == oracle.expected[pos] => {}
            Ok(answer) => self.fail(format!(
                "{id}@{pos}: wrong answer, got {answer:?}, expected {:?}",
                oracle.expected[pos]
            )),
            Err(e) => self.fail(format!("{id}@{pos}: {e}")),
        }
    }

    /// Take one pass event: keep its sample, then check its outcome.
    pub fn observe(&mut self, env: &Env, oracle: &Oracle, event: Event<'_>) {
        match event {
            Event::Read {
                pos,
                stmt,
                elapsed,
                outcome,
            } => {
                self.busy += elapsed;
                self.per_pos[pos].push(ms(elapsed));
                self.check(env.stmts[stmt].id, pos, answer_of(outcome), oracle);
            }
            Event::Maintain {
                slot,
                elapsed,
                outcome,
            } => {
                self.busy += elapsed;
                self.per_slot[slot].push(ms(elapsed));
                self.attempted += 1;
                if let Err(e) = outcome {
                    self.fail(format!("maintain: {}: {e}", e.kind()));
                }
            }
        }
    }

    pub fn statements(&self) -> usize {
        self.per_pos.iter().map(Vec::len).sum()
    }

    /// The pass as it runs when nothing disturbs it: every op at the best
    /// percentile of its own samples (see `stats::settled`).
    pub fn clean_pass(&self) -> CleanPass {
        let settle =
            |samples: &Vec<Vec<f64>>| -> Vec<f64> { samples.iter().map(|s| settled(s)).collect() };
        CleanPass {
            read_ms: settle(&self.per_pos),
            maintain_ms: settle(&self.per_slot),
            pos_stmt: self.pos_stmt.clone(),
        }
    }

    /// Per-statement medians over every sample recorded, indexed like
    /// `Env::stmts`.
    pub fn stmt_medians(&self, env: &Env) -> Vec<f64> {
        (0..env.stmts.len())
            .map(|stmt| {
                let samples: Vec<f64> = self
                    .per_pos
                    .iter()
                    .zip(&self.pos_stmt)
                    .filter(|(_, s)| **s == stmt)
                    .flat_map(|(samples, _)| samples.iter().copied())
                    .collect();
                median(&samples)
            })
            .collect()
    }
}

/// One pass with every op at its settled latency; the end-to-end timings
/// are this pass's statistics.
///
/// The sandbox this runs in loses the processor to its host for
/// milliseconds to seconds at a time. A figure pooled over the whole run
/// moves with how much of the run that hit. Settling each op by itself
/// rejects the disturbance sample by sample: a figure stays put as long as
/// a hundredth of each op's executions ran undisturbed.
pub struct CleanPass {
    /// Settled latency of each read position, ms.
    pub read_ms: Vec<f64>,
    /// Settled burst-to-fresh interval of each maintenance slot, ms.
    pub maintain_ms: Vec<f64>,
    pos_stmt: Vec<usize>,
}

impl CleanPass {
    /// Statements completed per second of client busy time (maintenance
    /// intervals are in the denominator, not the numerator).
    pub fn stmt_per_s(&self) -> f64 {
        let busy_ms: f64 = self.read_ms.iter().chain(&self.maintain_ms).sum();
        self.read_ms.len() as f64 / (busy_ms / 1e3)
    }

    pub fn stmt_p50_ms(&self) -> f64 {
        median(&self.read_ms)
    }

    /// The latency 95 % of the pass's statements stay within.
    pub fn stmt_p95_ms(&self) -> f64 {
        nearest_rank(&self.read_ms, 95.0)
    }

    /// Geometric mean over distinct statements of each statement's median:
    /// every statement counts the same, however long it runs.
    pub fn stmt_geomean_ms(&self) -> f64 {
        let stmts = self.pos_stmt.iter().max().map_or(0, |m| m + 1);
        let medians: Vec<f64> = (0..stmts)
            .map(|stmt| {
                let at: Vec<f64> = self
                    .read_ms
                    .iter()
                    .zip(&self.pos_stmt)
                    .filter(|(_, s)| **s == stmt)
                    .map(|(ms, _)| *ms)
                    .collect();
                median(&at)
            })
            .collect();
        geomean(&medians)
    }

    pub fn maintain_p50_ms(&self) -> f64 {
        median(&self.maintain_ms)
    }
}
