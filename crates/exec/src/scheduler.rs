//! The concurrent query scheduler: a fixed worker pool behind an admission
//! controller.
//!
//! Sessions submit jobs (closures producing a value plus its simulated
//! cost) and get back a [`QueryTicket`] to join on. The admission
//! controller enforces two limits under one lock: at most
//! [`AdmissionConfig::max_in_flight`] jobs executing at once, and at most
//! [`AdmissionConfig::per_source_permits`] concurrent jobs touching any one
//! source — so a slow or broken source (whose circuit breaker is busy
//! timing out) saturates its own permits, while queued jobs against healthy
//! sources are picked over its head and the pool keeps draining.
//!
//! Throughput accounting runs on a deterministic *virtual timeline*:
//! completed jobs' simulated costs are recorded against their submission
//! order, and at snapshot time each cost lands on the least-loaded of one
//! virtual busy-time slot per worker (a greedy multiprocessor schedule in
//! submission order). A job's virtual latency is its slot's accumulated
//! busy time after the assignment (every job in a batch is modeled as
//! submitted at t=0), and the pool's makespan is the busiest slot's total.
//! Deriving the schedule at snapshot time — never at completion — makes
//! the stats bit-identical run to run, keeping experiment E16's scaling
//! measurements exact and reproducible on a single-core CI container,
//! where real wall-clock speedup is unobservable and which OS thread
//! happens to pull a job is arbitrary.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

use eii_data::{CancelToken, EiiError, Priority, Result};

/// Admission-control limits for a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Maximum jobs executing concurrently (admitted, not merely queued).
    pub max_in_flight: usize,
    /// Maximum concurrent jobs touching any single source.
    pub per_source_permits: usize,
}

impl AdmissionConfig {
    /// A pool of `workers` threads admitting up to `workers` jobs with no
    /// per-source cap beyond the pool size.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        AdmissionConfig {
            workers,
            max_in_flight: workers,
            per_source_permits: workers,
        }
    }

    /// Cap concurrent jobs per source.
    pub fn with_source_permits(mut self, permits: usize) -> Self {
        self.per_source_permits = permits.max(1);
        self
    }

    /// Cap concurrently executing jobs.
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max.max(1);
        self
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::with_workers(4)
    }
}

/// Brownout load shedding: a virtual-time token bucket consulted at
/// submission, in submission order, under the scheduler lock — so the
/// admit/degrade/shed decision for any submission sequence replays
/// bit-identically, independent of worker timing.
///
/// Every submission credits `refill_per_job_ms` (the sustainable service
/// rate) and an admission debits `cost_per_job_ms`; when arrivals outpace
/// the refill the bucket drains and the scheduler *browns out* instead of
/// failing everyone: low-priority work is shed with a typed
/// [`EiiError::Shed`], normal-priority work is admitted in degraded mode
/// (the caller serves partial results at half cost), and high-priority work
/// is always admitted, borrowing the bucket down to `-capacity_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Bucket capacity (and starting level): the burst of work, virtual ms,
    /// absorbed before the brownout begins.
    pub capacity_ms: f64,
    /// Tokens debited per admitted job.
    pub cost_per_job_ms: f64,
    /// Tokens credited per submission; below `cost_per_job_ms` sustained
    /// full-rate arrivals eventually drain the bucket.
    pub refill_per_job_ms: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            capacity_ms: 200.0,
            cost_per_job_ms: 10.0,
            refill_per_job_ms: 5.0,
        }
    }
}

/// What the brownout controller decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedDecision {
    /// Full service.
    Admit,
    /// Admitted, but the caller should serve a cheaper, partial answer.
    Degrade,
    /// Turned away with [`EiiError::Shed`] before consuming any capacity.
    Shed,
}

/// One brownout decision, taken with the state lock held.
fn brownout_decision(cfg: &BrownoutConfig, level: &mut f64, priority: Priority) -> ShedDecision {
    *level = (*level + cfg.refill_per_job_ms).min(cfg.capacity_ms);
    if *level >= cfg.cost_per_job_ms {
        *level -= cfg.cost_per_job_ms;
        return ShedDecision::Admit;
    }
    match priority {
        // SLA traffic always runs, borrowing against future refills.
        Priority::High => {
            *level = (*level - cfg.cost_per_job_ms).max(-cfg.capacity_ms);
            ShedDecision::Admit
        }
        // Best-effort traffic browns out: half cost for a partial answer.
        Priority::Normal => {
            *level = (*level - cfg.cost_per_job_ms * 0.5).max(-cfg.capacity_ms);
            ShedDecision::Degrade
        }
        Priority::Low => ShedDecision::Shed,
    }
}

/// What a job returns to the scheduler: its value plus the simulated
/// milliseconds the work cost (drives the virtual timeline).
#[derive(Debug)]
pub struct JobOutput<T> {
    pub value: T,
    pub sim_ms: f64,
}

type Work<T> = Box<dyn FnOnce() -> Result<JobOutput<T>> + Send + 'static>;

struct Job<T> {
    seq: u64,
    priority: Priority,
    sources: Vec<String>,
    work: Work<T>,
    ticket: Arc<TicketInner<T>>,
}

struct TicketInner<T> {
    slot: Mutex<Option<Result<T>>>,
    done: Condvar,
}

/// A handle to one submitted query; [`QueryTicket::join`] blocks until the
/// worker pool delivers the result, and [`QueryTicket::cancel`] withdraws
/// the job — immediately if it is still queued, cooperatively (via its
/// [`CancelToken`]) if it is already running.
pub struct QueryTicket<T> {
    inner: Arc<TicketInner<T>>,
    seq: u64,
    cancel: CancelToken,
    shared: Weak<Shared<T>>,
}

impl<T> std::fmt::Debug for QueryTicket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket").finish_non_exhaustive()
    }
}

impl<T> QueryTicket<T> {
    /// Block until the job completes and take its result.
    pub fn join(self) -> Result<T> {
        let mut slot = self.inner.slot.lock().expect("ticket lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.done.wait(slot).expect("ticket wait");
        }
    }

    /// Take the result if the job already completed (non-blocking).
    pub fn try_join(&self) -> Option<Result<T>> {
        self.inner.slot.lock().expect("ticket lock").take()
    }

    /// The job's cancellation token; the submitter threads it into the
    /// query's request context so a cancel reaches a *running* plan at its
    /// next operator or batch boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cancel the job. A still-queued job is removed on the spot — it never
    /// acquires a worker or permit, and its ticket completes with
    /// [`EiiError::Cancelled`] (returns `true`). A job already running (or
    /// finished) only has its token flagged, and stops cooperatively at its
    /// next cancellation point (returns `false`).
    pub fn cancel(&self, reason: &str) -> bool {
        self.cancel.cancel(reason);
        let Some(shared) = self.shared.upgrade() else {
            return false;
        };
        let removed = {
            let mut state = shared.state.lock().expect("scheduler lock");
            let pos = state.queue.iter().position(|j| j.seq == self.seq);
            pos.map(|pos| {
                let job = state.queue.remove(pos).expect("job at position");
                state.stats.cancelled += 1;
                job
            })
        };
        match removed {
            Some(job) => {
                *job.ticket.slot.lock().expect("ticket lock") =
                    Some(Err(EiiError::Cancelled(reason.to_string())));
                job.ticket.done.notify_all();
                true
            }
            None => false,
        }
    }
}

struct State<T> {
    queue: VecDeque<Job<T>>,
    next_seq: u64,
    running: usize,
    source_load: BTreeMap<String, usize>,
    shutdown: bool,
    /// Brownout token-bucket level; only meaningful when the scheduler was
    /// built [`Scheduler::with_brownout`].
    brownout_level: f64,
    stats: StatsInner,
}

#[derive(Default)]
struct StatsInner {
    /// `(submission seq, sim_ms, priority)` per completed job. The virtual
    /// timeline is derived from this at snapshot time in submission order,
    /// so the reported schedule is independent of which OS thread finished
    /// first — stats replay bit-identically run to run.
    job_costs: Vec<(u64, f64, Priority)>,
    completed: u64,
    failed: u64,
    shed: u64,
    degraded: u64,
    cancelled: u64,
    peak_in_flight: usize,
    peak_source_load: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    work_ready: Condvar,
}

/// Point-in-time scheduler statistics on the virtual timeline.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that returned an error (or panicked).
    pub failed: u64,
    /// Jobs the brownout controller shed before queueing.
    pub shed: u64,
    /// Jobs the brownout controller admitted in degraded mode.
    pub degraded: u64,
    /// Jobs cancelled while still queued (they never ran).
    pub cancelled: u64,
    /// Sum of completed jobs' simulated cost — the serial makespan.
    pub serial_sim_ms: f64,
    /// Busiest worker's accumulated simulated time — the parallel makespan.
    pub makespan_ms: f64,
    /// Most jobs ever executing at once.
    pub peak_in_flight: usize,
    /// Most concurrent jobs ever touching one source.
    pub peak_source_load: usize,
    /// Per-job virtual completion latency, in submission order.
    pub latencies_ms: Vec<f64>,
    /// Each completed job's priority, aligned with `latencies_ms`.
    pub priorities: Vec<Priority>,
}

impl SchedulerStats {
    /// Throughput scaling versus serial execution of the same jobs
    /// (`serial_sim_ms / makespan_ms`; 1.0 when nothing ran).
    pub fn speedup(&self) -> f64 {
        if self.makespan_ms > 0.0 {
            self.serial_sim_ms / self.makespan_ms
        } else {
            1.0
        }
    }

    /// The `p`-th percentile (0..=100) of per-job virtual latency.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(self.latencies_ms.clone(), p)
    }

    /// The `p`-th percentile of virtual latency among jobs of `priority`.
    pub fn latency_percentile_for(&self, priority: Priority, p: f64) -> f64 {
        let lat: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.priorities)
            .filter(|(_, pr)| **pr == priority)
            .map(|(l, _)| *l)
            .collect();
        percentile(lat, p)
    }
}

fn percentile(mut sorted: Vec<f64>, p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A fixed pool of worker threads executing submitted jobs under admission
/// control. Generic over the job's value type; the SQL-facing wrapper lives
/// in the `eii` facade crate (`QueryScheduler`), which closes over an
/// `Arc<EiiSystem>` per job.
pub struct Scheduler<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    config: AdmissionConfig,
    brownout: Option<BrownoutConfig>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Scheduler<T> {
    /// Start the worker pool.
    pub fn new(config: AdmissionConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_seq: 0,
                running: 0,
                source_load: BTreeMap::new(),
                shutdown: false,
                brownout_level: 0.0,
                stats: StatsInner::default(),
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, config))
            })
            .collect();
        Scheduler {
            shared,
            config,
            brownout: None,
            workers,
        }
    }

    /// Enable brownout load shedding for [`Scheduler::admit`]. The bucket
    /// starts full.
    pub fn with_brownout(mut self, brownout: BrownoutConfig) -> Self {
        self.shared
            .state
            .lock()
            .expect("scheduler lock")
            .brownout_level = brownout.capacity_ms;
        self.brownout = Some(brownout);
        self
    }

    /// The admission configuration the pool runs under.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Enqueue a job touching the given sources; always accepted (admission
    /// gates execution, not queueing). Returns the ticket to join on.
    pub fn submit(
        &self,
        sources: Vec<String>,
        work: impl FnOnce() -> Result<JobOutput<T>> + Send + 'static,
    ) -> QueryTicket<T> {
        self.enqueue(sources, Priority::Normal, CancelToken::new(), Box::new(work))
    }

    /// Consult the brownout controller for one submission at `priority`,
    /// charging the token bucket, in submission order: the decision is
    /// `Admit` or `Degrade` (the caller should then serve a partial answer),
    /// while a shed job is turned away here with [`EiiError::Shed`] before it
    /// consumes a queue slot. The caller then enqueues through
    /// [`Scheduler::submit_admitted`], where among queued runnable jobs the
    /// higher-priority ones start first. Without a brownout config everything
    /// is admitted.
    pub fn admit(&self, priority: Priority) -> Result<ShedDecision> {
        let Some(cfg) = &self.brownout else {
            return Ok(ShedDecision::Admit);
        };
        let mut state = self.shared.state.lock().expect("scheduler lock");
        let decision = brownout_decision(cfg, &mut state.brownout_level, priority);
        match decision {
            ShedDecision::Shed => {
                state.stats.shed += 1;
                Err(EiiError::Shed {
                    priority: priority.as_str().to_string(),
                    reason: "brownout: admission budget exhausted".to_string(),
                })
            }
            ShedDecision::Degrade => {
                state.stats.degraded += 1;
                Ok(decision)
            }
            ShedDecision::Admit => Ok(decision),
        }
    }

    /// Enqueue a job whose brownout decision was already taken via
    /// [`Scheduler::admit`]. The caller supplies the job's [`CancelToken`]
    /// so the same token can be threaded into the work closure (e.g. a
    /// query's request context): cancelling the returned ticket then stops
    /// even a running query cooperatively, not just scheduler bookkeeping.
    pub fn submit_admitted(
        &self,
        sources: Vec<String>,
        priority: Priority,
        cancel: CancelToken,
        work: impl FnOnce() -> Result<JobOutput<T>> + Send + 'static,
    ) -> QueryTicket<T> {
        self.enqueue(sources, priority, cancel, Box::new(work))
    }

    fn enqueue(
        &self,
        sources: Vec<String>,
        priority: Priority,
        cancel: CancelToken,
        work: Work<T>,
    ) -> QueryTicket<T> {
        let ticket = Arc::new(TicketInner {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let seq = {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            let seq = state.next_seq;
            state.next_seq += 1;
            state.queue.push_back(Job {
                seq,
                priority,
                sources,
                work,
                ticket: Arc::clone(&ticket),
            });
            seq
        };
        self.shared.work_ready.notify_all();
        QueryTicket {
            inner: ticket,
            seq,
            cancel,
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Current statistics (virtual timeline).
    pub fn stats(&self) -> SchedulerStats {
        let state = self.shared.state.lock().expect("scheduler lock");
        snapshot_stats(&state.stats, self.config.workers)
    }

    /// Drain the queue, stop the workers, and return the final statistics.
    pub fn join(mut self) -> SchedulerStats {
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let state = self.shared.state.lock().expect("scheduler lock");
        snapshot_stats(&state.stats, self.config.workers)
    }
}

impl<T: Send + 'static> Drop for Scheduler<T> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn snapshot_stats(stats: &StatsInner, workers: usize) -> SchedulerStats {
    // Greedy virtual schedule, replayed in submission order: each job
    // lands on the least-loaded of `workers` slots. Deriving the timeline
    // here (not at completion) keeps it independent of OS thread timing.
    let mut costs = stats.job_costs.clone();
    costs.sort_unstable_by_key(|(seq, _, _)| *seq);
    let mut slots = vec![0.0f64; workers.max(1)];
    let mut latencies_ms = Vec::with_capacity(costs.len());
    let mut priorities = Vec::with_capacity(costs.len());
    for (_, sim_ms, priority) in &costs {
        let slot = slots
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite busy times"))
            .map(|(i, _)| i)
            .expect("at least one worker slot");
        slots[slot] += sim_ms;
        latencies_ms.push(slots[slot]);
        priorities.push(*priority);
    }
    SchedulerStats {
        completed: stats.completed,
        failed: stats.failed,
        shed: stats.shed,
        degraded: stats.degraded,
        cancelled: stats.cancelled,
        serial_sim_ms: costs.iter().map(|(_, c, _)| c).sum::<f64>(),
        makespan_ms: slots.iter().cloned().fold(0.0, f64::max),
        peak_in_flight: stats.peak_in_flight,
        peak_source_load: stats.peak_source_load,
        latencies_ms,
        priorities,
    }
}

/// True when the job can start now without breaching either limit.
fn admissible<T>(job: &Job<T>, state: &State<T>, config: AdmissionConfig) -> bool {
    if state.running >= config.max_in_flight {
        return false;
    }
    job.sources.iter().all(|s| {
        state.source_load.get(s).copied().unwrap_or(0) < config.per_source_permits
    })
}

fn worker_loop<T: Send + 'static>(shared: Arc<Shared<T>>, config: AdmissionConfig) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("scheduler lock");
            loop {
                // Runnable selection: among jobs not blocked on per-source
                // permits (so a slow source cannot starve the queue behind
                // it), the highest-priority one starts first; within a tier,
                // submission order.
                let pos = {
                    let st: &State<T> = &state;
                    st.queue
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| admissible(j, st, config))
                        .max_by_key(|(_, j)| (j.priority, std::cmp::Reverse(j.seq)))
                        .map(|(i, _)| i)
                };
                if let Some(pos) = pos {
                    let job = state.queue.remove(pos).expect("job at position");
                    state.running += 1;
                    state.stats.peak_in_flight =
                        state.stats.peak_in_flight.max(state.running);
                    for s in &job.sources {
                        let load = {
                            let l = state.source_load.entry(s.clone()).or_insert(0);
                            *l += 1;
                            *l
                        };
                        state.stats.peak_source_load =
                            state.stats.peak_source_load.max(load);
                    }
                    break job;
                }
                if state.shutdown && state.queue.is_empty() {
                    return;
                }
                state = shared.work_ready.wait(state).expect("scheduler wait");
            }
        };

        let outcome = catch_unwind(AssertUnwindSafe(job.work))
            .unwrap_or_else(|payload| Err(EiiError::from_panic("scheduled job", payload)));

        {
            let mut state = shared.state.lock().expect("scheduler lock");
            state.running -= 1;
            for s in &job.sources {
                if let Some(load) = state.source_load.get_mut(s) {
                    *load = load.saturating_sub(1);
                }
            }
            match &outcome {
                Ok(out) => {
                    state
                        .stats
                        .job_costs
                        .push((job.seq, out.sim_ms, job.priority));
                    state.stats.completed += 1;
                }
                Err(_) => state.stats.failed += 1,
            }
        }
        // A freed permit may unblock queued jobs on other workers.
        shared.work_ready.notify_all();

        let result = outcome.map(|out| out.value);
        *job.ticket.slot.lock().expect("ticket lock") = Some(result);
        job.ticket.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_tickets_join() {
        let pool: Scheduler<usize> = Scheduler::new(AdmissionConfig::with_workers(4));
        let tickets: Vec<_> = (0..20)
            .map(|i| {
                pool.submit(vec!["crm".into()], move || {
                    Ok(JobOutput {
                        value: i * 2,
                        sim_ms: 1.0,
                    })
                })
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.join().unwrap(), i * 2);
        }
        let stats = pool.join();
        assert_eq!(stats.completed, 20);
        assert!((stats.serial_sim_ms - 20.0).abs() < 1e-9);
        assert!(stats.makespan_ms <= 20.0);
        assert_eq!(stats.latencies_ms.len(), 20);
    }

    #[test]
    fn per_source_permits_are_never_breached() {
        let config = AdmissionConfig::with_workers(8).with_source_permits(2);
        let pool: Scheduler<()> = Scheduler::new(config);
        let in_source = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<_> = (0..40)
            .map(|_| {
                let in_source = Arc::clone(&in_source);
                let peak = Arc::clone(&peak);
                pool.submit(vec!["slow".into()], move || {
                    let now = in_source.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    in_source.fetch_sub(1, Ordering::SeqCst);
                    Ok(JobOutput {
                        value: (),
                        sim_ms: 1.0,
                    })
                })
            })
            .collect();
        for t in tickets {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "permit breached");
        let stats = pool.join();
        assert!(stats.peak_source_load <= 2);
        assert_eq!(stats.completed, 40);
    }

    #[test]
    fn slow_source_does_not_starve_other_queues() {
        // One permit for the slow source, plenty of workers: the slow jobs
        // serialize while the fast jobs all run.
        let config = AdmissionConfig::with_workers(4).with_source_permits(1);
        let pool: Scheduler<&'static str> = Scheduler::new(config);
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(pool.submit(vec!["slow".into()], move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(JobOutput {
                    value: "slow",
                    sim_ms: 100.0,
                })
            }));
        }
        for _ in 0..10 {
            tickets.push(pool.submit(vec!["fast".into()], move || {
                Ok(JobOutput {
                    value: "fast",
                    sim_ms: 1.0,
                })
            }));
        }
        for t in tickets {
            t.join().unwrap();
        }
        let stats = pool.join();
        assert_eq!(stats.completed, 13);
        assert_eq!(stats.peak_source_load, 1, "slow source held to one permit");
    }

    #[test]
    fn panicking_job_fails_its_ticket_not_the_pool() {
        let pool: Scheduler<()> = Scheduler::new(AdmissionConfig::with_workers(2));
        let bad = pool.submit(vec![], || panic!("boom"));
        let good = pool.submit(vec![], || {
            Ok(JobOutput {
                value: (),
                sim_ms: 1.0,
            })
        });
        let err = bad.join().unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
        good.join().unwrap();
        let stats = pool.join();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn brownout_sheds_low_priority_before_high_priority_suffers() {
        // Refill covers half the cost: the bucket drains after
        // capacity / (cost - refill) = 4 admissions at full service.
        let pool: Scheduler<()> = Scheduler::new(AdmissionConfig::with_workers(2))
            .with_brownout(BrownoutConfig {
                capacity_ms: 20.0,
                cost_per_job_ms: 10.0,
                refill_per_job_ms: 5.0,
            });
        let job = || {
            Ok(JobOutput {
                value: (),
                sim_ms: 1.0,
            })
        };
        let mut shed = 0;
        let mut degraded = 0;
        let mut tickets = Vec::new();
        for i in 0..12 {
            let priority = match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            };
            match pool.admit(priority) {
                Ok(decision) => {
                    let t = pool.submit_admitted(vec![], priority, CancelToken::new(), job);
                    if decision == ShedDecision::Degrade {
                        degraded += 1;
                        assert_eq!(priority, Priority::Normal, "only best-effort degrades");
                    }
                    tickets.push((priority, t));
                }
                Err(err) => {
                    assert_eq!(err.kind(), "shed");
                    assert_eq!(priority, Priority::Low, "only low priority sheds");
                    assert!(err.message().contains("low"), "{err}");
                    shed += 1;
                }
            }
        }
        for (priority, t) in tickets {
            t.join()
                .unwrap_or_else(|e| panic!("{priority:?} job failed: {e}"));
        }
        assert!(shed >= 1, "overload must shed some low-priority work");
        assert!(degraded >= 1, "overload must degrade some normal work");
        let stats = pool.join();
        assert_eq!(stats.shed, shed);
        assert_eq!(stats.degraded, degraded);
        assert_eq!(stats.completed, 12 - shed);
        assert_eq!(
            stats.priorities.iter().filter(|p| **p == Priority::High).count(),
            4,
            "every high-priority job ran"
        );
    }

    #[test]
    fn cancelling_a_queued_job_releases_nothing_and_completes_its_ticket() {
        let config = AdmissionConfig::with_workers(1).with_max_in_flight(1);
        let pool: Scheduler<&'static str> = Scheduler::new(config);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let first = pool.submit(vec!["crm".into()], move || {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Ok(JobOutput {
                value: "ran",
                sim_ms: 1.0,
            })
        });
        while pool.stats().peak_in_flight == 0 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        // The second job is stuck in the queue behind the gate; cancel it.
        let queued = pool.submit(vec!["crm".into()], || {
            panic!("a cancelled queued job must never run")
        });
        assert!(queued.cancel("user gave up"), "still queued: removed");
        let err = queued.join().unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(err.message().contains("user gave up"));
        gate.store(1, Ordering::SeqCst);
        assert_eq!(first.join().unwrap(), "ran");
        // No permit leaked: the pool still runs jobs against the source.
        let after = pool.submit(vec!["crm".into()], || {
            Ok(JobOutput {
                value: "after",
                sim_ms: 1.0,
            })
        });
        assert_eq!(after.join().unwrap(), "after");
        let stats = pool.join();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0, "the cancelled job never executed");
    }

    #[test]
    fn cancelling_a_running_job_flags_its_token_cooperatively() {
        let pool: Scheduler<()> = Scheduler::new(AdmissionConfig::with_workers(1));
        let started = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&started);
        let ticket = pool.submit(vec![], move || {
            s.store(1, Ordering::SeqCst);
            while s.load(Ordering::SeqCst) == 1 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Ok(JobOutput {
                value: (),
                sim_ms: 1.0,
            })
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let token = ticket.cancel_token();
        assert!(!ticket.cancel("too slow"), "already running: cooperative");
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("too slow"));
        started.store(2, Ordering::SeqCst);
        // The job itself ignored the token here, so it completes normally —
        // wiring the token into the executor's request context is the
        // facade's job.
        ticket.try_join();
        let stats = pool.join();
        assert_eq!(stats.cancelled, 0, "running jobs are not force-removed");
    }

    #[test]
    fn high_priority_jobs_jump_the_queue() {
        let config = AdmissionConfig::with_workers(1).with_max_in_flight(1);
        let pool: Scheduler<()> = Scheduler::new(config);
        let gate = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let g = Arc::clone(&gate);
        let first = pool.submit(vec![], move || {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Ok(JobOutput {
                value: (),
                sim_ms: 1.0,
            })
        });
        while pool.stats().peak_in_flight == 0 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        // Queued while the worker is busy: low first, then high.
        let o1 = Arc::clone(&order);
        pool.admit(Priority::Low).unwrap();
        let low = pool.submit_admitted(vec![], Priority::Low, CancelToken::new(), move || {
            o1.lock().unwrap().push("low");
            Ok(JobOutput {
                value: (),
                sim_ms: 1.0,
            })
        });
        let o2 = Arc::clone(&order);
        pool.admit(Priority::High).unwrap();
        let high = pool.submit_admitted(vec![], Priority::High, CancelToken::new(), move || {
            o2.lock().unwrap().push("high");
            Ok(JobOutput {
                value: (),
                sim_ms: 1.0,
            })
        });
        gate.store(1, Ordering::SeqCst);
        first.join().unwrap();
        high.join().unwrap();
        low.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["high", "low"]);
    }

    #[test]
    fn virtual_timeline_scales_with_workers() {
        for workers in [1usize, 4] {
            let pool: Scheduler<()> =
                Scheduler::new(AdmissionConfig::with_workers(workers));
            let tickets: Vec<_> = (0..32)
                .map(|_| {
                    pool.submit(vec![], || {
                        Ok(JobOutput {
                            value: (),
                            sim_ms: 10.0,
                        })
                    })
                })
                .collect();
            for t in tickets {
                t.join().unwrap();
            }
            let stats = pool.join();
            assert!((stats.serial_sim_ms - 320.0).abs() < 1e-9);
            assert!((stats.makespan_ms - 320.0 / workers as f64).abs() < 1e-9);
            assert!((stats.speedup() - workers as f64).abs() < 1e-9);
        }
    }
}
