//! One run of one workload: set-up, oracle, warm-up, measurement, report.

use std::time::{Duration, Instant};

use eii::prelude::*;

use crate::measure::Recorder;
use crate::metrics::{self, END_TO_END, SOURCES};
use crate::oracle::Oracle;
use crate::stats::{median, settled};
use crate::trace::{self, traced_pass, Span, Trace};
use crate::workload::{run_pass, Env, Role, Workload};

/// Freshly built systems the measured window is split over; `setup_s` is
/// taken over their set-ups, which the window spaces seconds apart.
const SEGMENTS: usize = 8;
/// A segment sets its system up again and again until this much time has
/// gone into it, at most `MAX_SETUPS` times: a set-up of a few milliseconds
/// gets as many samples as it takes to find an undisturbed one, a set-up of
/// a third of a second is done once.
const SETUP_BUDGET_S: f64 = 0.1;
const MAX_SETUPS: usize = 8;
/// Warm-up before the measured window: 2 s, or a fifth of a short run.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 5.0).min(2.0))
}
/// A traced run stops after this many traced passes even if `--seconds`
/// has not run out, so the spans it keeps stay a few MB; it always makes
/// at least `MIN_TRACED_PASSES`.
const MAX_TRACED_PASSES: usize = 40;
const MIN_TRACED_PASSES: usize = 5;
/// Telemetry-off/on pass pairs behind `obs.telemetry_overhead_pct`.
const TELEMETRY_PAIRS: usize = 7;

/// Statements attempted and failed over every phase of a run, cold pass
/// and warm-up included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, rec: &Recorder) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.failures.extend(rec.failures.iter().cloned());
    }
}

pub struct Report {
    tally: Tally,
    /// `(name, value, unit)` in printing order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra lines for the reader, not part of the JSON.
    notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<36} {value:>16.4} {unit}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  attempted={} failed={} correct={}",
            self.tally.attempted,
            self.tally.failed,
            self.correct()
        );
        for failure in &self.tally.failures {
            println!("  FAILED {failure}");
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(",")
        )
    }
}

/// Build the system under test and run its cold pass. Returns the time a
/// user waits for that: generation, build, views and cache, and the cold
/// pass's ops — not the answer checks between them.
fn set_up(
    workload: Workload,
    seed: u64,
    oracle: &Oracle,
    tally: &mut Tally,
) -> std::result::Result<(Env, f64), String> {
    let start = Instant::now();
    let env = Env::build(workload, seed, Role::Subject).map_err(|e| e.to_string())?;
    let built = start.elapsed();
    let mut cold = Recorder::new(&env);
    run_pass(&env, &mut |event| cold.observe(&env, oracle, event));
    tally.absorb(&cold);
    Ok((env, (built + cold.busy).as_secs_f64()))
}

/// Whole passes until `window` has elapsed.
fn run_for(env: &Env, oracle: &Oracle, rec: &mut Recorder, window: Duration) {
    let start = Instant::now();
    while start.elapsed() < window {
        checked_pass(env, oracle, rec);
    }
}

/// One whole pass, every answer checked; returns its busy time in ms.
fn checked_pass(env: &Env, oracle: &Oracle, rec: &mut Recorder) -> f64 {
    let before = rec.busy;
    run_pass(env, &mut |event| rec.observe(env, oracle, event));
    rec.passes += 1;
    (rec.busy - before).as_secs_f64() * 1e3
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> std::result::Result<Report, String> {
    let oracle = Oracle::build(workload, seed)?;
    if traced {
        run_traced(workload, seed, seconds, &oracle)
    } else {
        run_untraced(workload, seed, seconds, &oracle)
    }
}

/// The end-to-end run: tracing off, nothing between the client and the
/// engine but the clock reads around each op.
fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
) -> std::result::Result<Report, String> {
    // The window is split over `SEGMENTS` freshly built systems. A system
    // slows as its change logs and telemetry grow, and a run on a single
    // one would also inherit whatever heap layout and hash seeds that one
    // build happened to get; each position's samples are pooled over all
    // segments before they are settled. Every set-up is a `setup_s` sample.
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut env = None;
    let mut recs: Option<(Recorder, Recorder)> = None;
    let mut shipped = 0;
    for _ in 0..SEGMENTS {
        let mut spent = 0.0;
        for _ in 0..MAX_SETUPS {
            // Drop the previous system first: two of them alive would
            // double the footprint the set-up being timed runs in.
            drop(env.take());
            let (fresh, elapsed) = set_up(workload, seed, oracle, &mut tally)?;
            env = Some(fresh);
            setups.push(elapsed);
            spent += elapsed;
            if spent >= SETUP_BUDGET_S {
                break;
            }
        }
        let env = env.as_ref().expect("set up above");
        let (warm, rec) = recs.get_or_insert_with(|| (Recorder::new(env), Recorder::new(env)));
        run_for(env, oracle, warm, warmup(seconds) / SEGMENTS as u32);
        let ledger = env.built.system.federation().ledger();
        let before = ledger.total().bytes;
        let window = Duration::from_secs_f64(seconds / SEGMENTS as f64);
        run_for(env, oracle, rec, window);
        shipped += ledger.total().bytes - before;
    }
    let (env, (warm, rec)) = (env.expect("SEGMENTS > 0"), recs.expect("SEGMENTS > 0"));
    tally.absorb(&warm);
    tally.absorb(&rec);

    let clean = rec.clean_pass();
    let values = [
        settled(&setups),
        clean.stmt_per_s(),
        clean.stmt_p50_ms(),
        clean.stmt_p95_ms(),
        clean.stmt_geomean_ms(),
        shipped as f64 / rec.statements() as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name.to_string(), v, d.unit))
        .collect();

    let mut notes = vec![format!(
        "passes={} samples={} maintain_p50_ms={:.4} fail_ratio={}",
        rec.passes,
        rec.statements(),
        clean.maintain_p50_ms(),
        ratio(tally.failed as f64, tally.attempted as f64)
    )];
    for (stmt, p50) in env.stmts.iter().zip(rec.stmt_medians(&env)) {
        notes.push(format!("stmt.{}.p50_ms = {p50:.4}", stmt.id));
    }
    Ok(Report {
        tally,
        metrics,
        notes,
    })
}

/// Engine counters read before and after each untraced pass of a traced
/// run, so count metrics come from passes the tracer did not touch:
/// ledger rows and round trips, then the named metrics counters.
const COUNTERS: [&str; 6] = [
    "cache.hits",
    "cache.misses",
    "cache.invalidations",
    "ivm.refreshes",
    "ivm.delta_rows",
    "ivm.full_recomputes",
];

fn read_counters(system: &EiiSystem) -> [u64; 8] {
    let traffic = system.federation().ledger().total();
    let named = COUNTERS.map(|name| system.metrics().counter_value(name));
    let mut all = [
        traffic.rows as u64,
        traffic.requests as u64,
        0,
        0,
        0,
        0,
        0,
        0,
    ];
    all[2..].copy_from_slice(&named);
    all
}

/// Median pass time with telemetry on against off, as a percentage of off.
fn telemetry_overhead_pct(env: &Env, oracle: &Oracle, tally: &mut Recorder) -> f64 {
    let system = &env.built.system;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..TELEMETRY_PAIRS {
        system.set_telemetry_enabled(false);
        off.push(checked_pass(env, oracle, tally));
        system.set_telemetry_enabled(true);
        on.push(checked_pass(env, oracle, tally));
    }
    (median(&on) / median(&off) - 1.0) * 100.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Durations in µs of every span whose name passes `keep`.
fn durations_us(spans: &[Span], keep: impl Fn(&str) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| keep(&s.name))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// The traced run: untraced and traced passes alternate, so both see the
/// same machine state; timings come from the spans, counts from the engine's
/// own counters over the untraced passes.
fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
) -> std::result::Result<Report, String> {
    let mut tally = Tally::default();
    let (env, _) = set_up(workload, seed, oracle, &mut tally)?;
    let system = &env.built.system;
    let mut warm = Recorder::new(&env);
    run_for(&env, oracle, &mut warm, warmup(seconds) / 2);

    let mut rec = Recorder::new(&env);
    let mut traced_rec = Recorder::new(&env);
    let mut trace = Trace::new(&env);
    let mut sums = [0u64; 8];
    let start = Instant::now();
    while trace.counts.traced_passes < MIN_TRACED_PASSES
        || (trace.counts.traced_passes < MAX_TRACED_PASSES
            && start.elapsed().as_secs_f64() < seconds)
    {
        let before = read_counters(system);
        checked_pass(&env, oracle, &mut rec);
        let after = read_counters(system);
        for (sum, (a, b)) in sums.iter_mut().zip(after.iter().zip(before)) {
            *sum += a - b;
        }
        traced_pass(&env, oracle, &mut traced_rec, &mut trace);
    }
    let [rows_fetched, round_trips, cache_hits, cache_misses, invalidations, refreshes, delta_rows, full_recomputes] =
        sums.map(|v| v as f64);
    let telemetry_pct = telemetry_overhead_pct(&env, oracle, &mut warm);

    let spans = &trace.tracer.spans;
    let counts = &trace.counts;
    let passes = counts.traced_passes as f64;
    let med = |name: &str| median(&durations_us(spans, |n| n == name));
    let sum = |name: &str| durations_us(spans, |n| n == name).iter().sum::<f64>();

    // Per statement: whole − staged is what the facade adds.
    let mut facade_self = Vec::new();
    let (mut whole_total, mut attributed) = (0.0, 0.0);
    let mut staged_of = std::collections::BTreeMap::new();
    for span in spans {
        match span.name.as_str() {
            "staged" => {
                staged_of.insert(span.stmt, span.dur_ns() as f64 / 1e3);
            }
            "core.session_execute" => {
                let whole = span.dur_ns() as f64 / 1e3;
                let staged = staged_of.get(&span.stmt).copied().unwrap_or(0.0);
                facade_self.push(whole - staged);
                whole_total += whole;
                attributed += (whole - staged).max(0.0);
            }
            _ => {}
        }
    }
    let staged_children: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "staged"))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .sum();
    attributed += staged_children;

    let plan_total: f64 = durations_us(spans, |n| n.starts_with("planner."))
        .iter()
        .sum();
    let pivot_total = sum("data.pivot.to_cols") + sum("data.pivot.to_rows");
    let kernel_total = sum("expr.filter") + sum("expr.eval");
    // Tracing overhead: the same statement's median under tracing against
    // its median in the untraced passes of this run.
    let untraced_sum: f64 = rec.stmt_medians(&env).iter().sum();
    let traced_sum: f64 = trace.traced_ms.iter().map(|s| median(s)).sum();
    let untraced_passes = rec.passes as f64;
    for r in [&warm, &rec, &traced_rec] {
        tally.absorb(r);
    }

    let mut values: Vec<(String, f64)> = vec![
        ("sql.parse_us".into(), med("sql.parse")),
        ("planner.build_us".into(), med("planner.build")),
        ("planner.optimize_us".into(), med("planner.optimize")),
        ("planner.rewrite_us".into(), med("planner.rewrite")),
        ("planner.physical_us".into(), med("planner.physical")),
        (
            "planner.plan_share".into(),
            ratio(plan_total, sum("staged")),
        ),
        ("core.facade_self_us".into(), median(&facade_self)),
        ("obs.telemetry_overhead_pct".into(), telemetry_pct),
        ("exec.execute_us".into(), med("exec.execute")),
        ("exec.rows_in".into(), counts.rows_in as f64 / passes),
        ("exec.rows_out".into(), counts.rows_out as f64 / passes),
        (
            "exec.rows_per_s".into(),
            ratio(counts.rows_in as f64, sum("exec.execute") / 1e6),
        ),
        (
            "exec.vectorized_ops".into(),
            counts.vectorized_ops as f64 / passes,
        ),
        ("exec.row_ops".into(), counts.row_ops as f64 / passes),
        ("data.pivot.to_cols_us".into(), med("data.pivot.to_cols")),
        ("data.pivot.to_rows_us".into(), med("data.pivot.to_rows")),
        (
            "data.pivot.cells_per_s".into(),
            // Each leaf batch is pivoted both ways.
            ratio(2.0 * counts.pivot_cells as f64, pivot_total / 1e6),
        ),
        ("expr.filter_us".into(), med("expr.filter")),
        ("expr.eval_us".into(), med("expr.eval")),
        (
            "expr.rows_per_s".into(),
            ratio(counts.kernel_rows as f64, kernel_total / 1e6),
        ),
        (
            "federation.fetch_us".into(),
            median(&durations_us(spans, |n| n.starts_with("federation.fetch."))),
        ),
        (
            "federation.rows_fetched".into(),
            ratio(rows_fetched, untraced_passes),
        ),
        (
            "federation.round_trips".into(),
            ratio(round_trips, untraced_passes),
        ),
        ("federation.update_us".into(), med("federation.update")),
        ("storage.scan_us".into(), med("storage.scan")),
        ("storage.lookup_us".into(), med("storage.lookup")),
        (
            "storage.rows_scanned_per_result".into(),
            ratio(counts.rows_scanned as f64, counts.rows_shipped as f64),
        ),
        ("exec.cache.lookup_us".into(), med("exec.cache.lookup")),
        (
            "exec.cache.hit_ratio".into(),
            ratio(cache_hits, cache_hits + cache_misses),
        ),
        (
            "exec.cache.invalidations_per_pass".into(),
            ratio(invalidations, untraced_passes),
        ),
        ("matview.refresh_us".into(), med("matview.refresh")),
        (
            "matview.delta_rows_per_refresh".into(),
            ratio(delta_rows, refreshes),
        ),
        ("matview.full_recomputes".into(), full_recomputes),
        (
            "alloc.bytes_per_stmt".into(),
            ratio(counts.alloc_bytes as f64, counts.statements as f64),
        ),
        (
            "alloc.count_per_stmt".into(),
            ratio(counts.alloc_count as f64, counts.statements as f64),
        ),
        ("maintain_p50_ms".into(), rec.clean_pass().maintain_p50_ms()),
        (
            "fail_ratio".into(),
            ratio(tally.failed as f64, tally.attempted as f64),
        ),
        (
            "bench.trace_overhead_pct".into(),
            (ratio(traced_sum, untraced_sum) - 1.0) * 100.0,
        ),
        (
            "bench.attributed_pct".into(),
            ratio(attributed, whole_total) * 100.0,
        ),
        ("bench.oracle_s".into(), oracle.elapsed.as_secs_f64()),
        ("bench.samples".into(), rec.statements() as f64),
        ("bench.peak_rss_mb".into(), peak_rss_mb()),
    ];
    for source in SOURCES {
        let name = format!("federation.fetch.{source}");
        values.push((format!("{name}_us"), med(&name)));
    }
    let medians = rec.stmt_medians(&env);
    for id in metrics::STATEMENT_IDS {
        let p50 = env
            .stmts
            .iter()
            .position(|s| s.id == id)
            .map_or(0.0, |i| medians[i]);
        values.push((format!("stmt.{id}.p50_ms"), p50));
    }

    // Print in the catalogue's order, and fail loudly if the two drift.
    let mut ordered = Vec::new();
    for (name, unit) in metrics::per_layer() {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} is in the catalogue but was not measured"))?;
        ordered.push((name, value, unit));
    }
    if ordered.len() != values.len() {
        return Err("a measured metric is missing from the catalogue".into());
    }

    let mut notes = vec![format!(
        "untraced_passes={} traced_passes={} spans={}",
        rec.passes,
        counts.traced_passes,
        spans.len()
    )];
    match write_trace(workload, seed, spans) {
        Ok(path) => notes.push(format!("trace written to {path}")),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
    Ok(Report {
        tally,
        metrics: ordered,
        notes,
    })
}

/// `$CARGO_TARGET_DIR/eiibench/trace-<workload>.json`, or under `target/`
/// when the variable is not set: build output, ignored by git either way.
fn write_trace(workload: Workload, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = format!("{dir}/eiibench");
    std::fs::create_dir_all(&dir)?;
    let path = format!("{dir}/trace-{}.json", workload.name());
    std::fs::write(&path, trace::to_json(workload.name(), seed, spans))?;
    Ok(path)
}
