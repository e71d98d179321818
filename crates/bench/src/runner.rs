//! The one statement runner the experiments share: a configured system, a
//! stream of steps, and one [`Run`] — each step's answer, cost, the clock it
//! waited and its degradations or error, in stream order, plus the ledger.
//!
//! The runner has no settings. An experiment configures the system through
//! the facade (cache, views, advisor, degradation, faults) before the run,
//! and reads what it needs from the records after it. A failed step is
//! recorded, not raised, and the steps after it still run; [`Run::checked`]
//! turns the first failure into the experiment's error where every step
//! must succeed.

use eii::federation::{QueryCost, SourceHandle, SourceTraffic};
use eii::prelude::*;

/// One step of a stream.
pub enum Step {
    /// A SQL statement through [`EiiSystem::execute`].
    Query(String),
    /// A write through a source handle, past the hub.
    Write(SourceHandle, UpdateOp),
    /// A refresh of the named materialized view.
    Refresh(String),
}

/// What one step did.
#[derive(Debug, Default)]
pub struct Record {
    /// A query's answer (an `Arc` clone of the result's rows); `None` for a
    /// write, a refresh or a failed step.
    pub batch: Option<Batch>,
    /// The step's simulated cost (a refresh's is its `sim_ms` alone); zero
    /// for a failed step.
    pub cost: QueryCost,
    /// How far the simulated clock moved while the step ran, ms.
    pub waited_ms: i64,
    /// The sources a query could not reach live.
    pub degraded: Vec<SourceReport>,
    /// Why the step failed.
    pub error: Option<EiiError>,
}

/// Every step's record, in stream order, and the ledger's totals read once
/// after the last step (the ledger is reset before the first).
#[derive(Debug)]
pub struct Run {
    pub records: Vec<Record>,
    pub traffic: SourceTraffic,
}

impl Run {
    /// The run, or the first failed step's error.
    pub fn checked(mut self) -> Result<Run> {
        match self.records.iter_mut().find_map(|r| r.error.take()) {
            Some(e) => Err(e),
            None => Ok(self),
        }
    }

    /// The records of the steps that succeeded.
    pub fn answered(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.error.is_none())
    }

    /// Answer rows, summed over the queries.
    pub fn rows(&self) -> usize {
        self.records.iter().flat_map(|r| &r.batch).map(Batch::num_rows).sum()
    }

    /// Simulated ms, summed over the steps in stream order.
    pub fn sim_ms(&self) -> f64 {
        self.records.iter().map(|r| r.cost.sim_ms).sum()
    }
}

/// Run `steps` against `system`, in order.
pub fn run(system: &EiiSystem, steps: impl IntoIterator<Item = Step>) -> Run {
    system.federation().ledger().reset();
    let records = steps
        .into_iter()
        .map(|step| {
            let t0 = system.clock().now_ms();
            let mut record = Record::default();
            let cost = match step {
                Step::Query(sql) => system.execute(&sql).and_then(|out| {
                    let res = out.query_result()?;
                    record.batch = Some(res.batch.clone());
                    record.degraded = res.degraded.clone();
                    Ok(res.cost)
                }),
                Step::Write(source, op) => source.update(&op).map(|(_, cost)| cost),
                Step::Refresh(view) => system
                    .refresh_matview(&view)
                    .map(|sim_ms| QueryCost { sim_ms, ..QueryCost::default() }),
            };
            match cost {
                Ok(cost) => record.cost = cost,
                Err(e) => record.error = Some(e),
            }
            record.waited_ms = system.clock().now_ms() - t0;
            record
        })
        .collect();
    Run { records, traffic: system.federation().ledger().total() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedmark::FedMark;

    #[test]
    fn a_failed_step_is_recorded_and_the_stream_goes_on() {
        // Every sales request fails; the retries' backoff moves the clock.
        let failing = || {
            let env = FedMark::build(1, 7).unwrap();
            let fed = env.system.federation();
            fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
            let breaker = CircuitBreakerConfig::default();
            fed.harden("sales", RetryPolicy::standard(), breaker).unwrap();
            env.system.set_degradation_policy(DegradationPolicy::Fail);
            env
        };
        let sqls = [
            "SELECT name FROM crm.customers WHERE customer_id < 5",
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.customer_id = o.customer_id",
            "SELECT name FROM crm.customers WHERE customer_id < 3",
        ];
        let env = failing();
        let crm = env.system.federation().source("crm").unwrap();
        let delete = UpdateOp::DeleteByKey { table: "customers".into(), key: Value::Int(4) };
        let steps = vec![
            Step::Query(sqls[0].into()),
            Step::Query(sqls[1].into()),
            Step::Write(crm, delete),
            Step::Query(sqls[2].into()),
        ];
        let run = run(&env.system, steps);

        // The same statements on a twin, one at a time: the clock each
        // waited and how each ended.
        let twin = failing();
        let mut expected = Vec::new();
        for sql in sqls {
            let t0 = twin.clock.now_ms();
            let out = twin.system.execute(sql);
            let kind = out.as_ref().err().map(EiiError::kind);
            let rows = out.ok().map(|o| o.rows().unwrap().num_rows());
            expected.push((rows, kind, twin.clock.now_ms() - t0));
        }

        // In stream order: 5 rows, the failure, the write, then 3 rows.
        let [first, failed, write, last] = &run.records[..] else {
            panic!("{:?}", run.records)
        };
        let seen = |r: &Record| {
            let rows = r.batch.as_ref().map(Batch::num_rows);
            (rows, r.error.as_ref().map(EiiError::kind), r.waited_ms)
        };
        assert_eq!([seen(first), seen(failed), seen(last)], expected[..]);
        assert_eq!(expected[0].0, Some(5));
        assert!(expected[1].1.is_some(), "the join needs the failing source");
        assert!(failed.waited_ms > 0, "backoff waited: {failed:?}");
        assert_eq!(expected[2].0, Some(3));
        assert!(first.cost.sim_ms > 0.0 && failed.cost == QueryCost::default());
        assert!(write.error.is_none() && write.batch.is_none(), "{write:?}");
        assert_eq!(run.answered().count(), 3);
        assert_eq!(run.rows(), 8);
        assert_eq!(run.checked().unwrap_err().kind(), expected[1].1.unwrap());
    }
}
