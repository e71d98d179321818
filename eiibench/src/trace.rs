//! The per-layer trace: spans recorded from the benchmark's side of each
//! layer boundary, kept in memory, written out when the run ends.
//!
//! A traced statement runs twice. First by hand, stage by stage, through
//! the same public functions the facade calls — `parse_statement`,
//! `PlanBuilder::build`, `optimize`, `ResultCache::lookup`,
//! `rewrite_matviews`, `PhysicalPlanner::create`, `Executor::execute` —
//! one span each; then once through `Session::execute`, whole. The
//! difference between the whole and the staged sum is what the facade adds
//! (telemetry, trace store, cache fill). After that come *probes*: every
//! `SourceQuery` leaf of the plan fetched by itself, its batch pivoted to
//! columns and back, and the Filter/Project expressions directly above it
//! evaluated by the typed kernels. Probes are outside the statement's time;
//! they price a layer, they do not partition the statement.
//!
//! The staged run goes first on purpose: on `dashboard_rw` its cache lookup
//! leaves the cache as a real lookup would (a stale entry is dropped, a
//! miss does not fill), so the whole run after it takes the same hit or
//! miss path.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use eii::data::ColumnarBatch;
use eii::exec::{CacheLookup, Executor, OperatorProfile, QueryResult};
use eii::expr::{bind, eval_column, eval_filter};
use eii::planner::{optimize, rewrite_matviews, PhysicalPlan, PhysicalPlanner, PlanBuilder};
use eii::prelude::*;
use eii::sql::{parse_statement, Statement};

use crate::alloc;
use crate::measure::Recorder;
use crate::oracle::{answer_of, checksum_rows, Oracle};
use crate::workload::{maintain, Env, Op};

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one statement (or one maintenance burst) share this.
    pub stmt: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. `enter` reads the clock last and `exit` reads
/// it first, so a span never contains its own bookkeeping.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    stmt: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            stmt: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for the next statement.
    pub fn begin(&mut self, name: String) -> usize {
        debug_assert!(self.stack.is_empty(), "statement spans do not nest");
        self.stmt += 1;
        self.enter(name)
    }

    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            stmt: self.stmt,
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.now();
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    pub fn timed<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Counts taken at the layer boundaries during traced passes.
#[derive(Default)]
pub struct Counts {
    pub traced_passes: usize,
    pub statements: u64,
    pub alloc_bytes: u64,
    pub alloc_count: u64,
    /// Rows entering the executor from its leaves / leaving as the answer.
    pub rows_in: u64,
    pub rows_out: u64,
    pub vectorized_ops: u64,
    pub row_ops: u64,
    /// Rows sources examined / rows they returned, staged executions.
    pub rows_scanned: u64,
    pub rows_shipped: u64,
    pub pivot_cells: u64,
    pub kernel_rows: u64,
}

pub struct Trace {
    pub tracer: Tracer,
    pub counts: Counts,
    /// `Session::execute` latency in ms under tracing, indexed like
    /// `Env::stmts`: compared with the untraced latency of the same
    /// statement, it is the tracing overhead.
    pub traced_ms: Vec<Vec<f64>>,
}

impl Trace {
    pub fn new(env: &Env) -> Self {
        Trace {
            tracer: Tracer::new(),
            counts: Counts::default(),
            traced_ms: vec![Vec::new(); env.stmts.len()],
        }
    }
}

fn count_ops(plan: &PhysicalPlan, counts: &mut Counts) {
    match plan {
        PhysicalPlan::Source { .. }
        | PhysicalPlan::Values { .. }
        | PhysicalPlan::MatViewScan { .. }
        | PhysicalPlan::Rename { .. } => {}
        PhysicalPlan::Filter { vectorized, .. }
        | PhysicalPlan::Project { vectorized, .. }
        | PhysicalPlan::HashJoin { vectorized, .. }
        | PhysicalPlan::Aggregate { vectorized, .. } => {
            if *vectorized {
                counts.vectorized_ops += 1;
            } else {
                counts.row_ops += 1;
            }
        }
        _ => counts.row_ops += 1,
    }
    for child in plan.children() {
        count_ops(child, counts);
    }
}

fn leaf_rows(profile: &OperatorProfile) -> u64 {
    if profile.children.is_empty() {
        profile.rows as u64
    } else {
        profile.children.iter().map(leaf_rows).sum()
    }
}

/// The facade's executor, assembled the way `EiiSystem::run_query` does.
fn executor(system: &EiiSystem) -> Executor<'_> {
    let federation = system.federation();
    let mut exec = Executor::new(federation)
        .with_degradation(system.degradation_policy(), system.fallbacks().clone())
        .with_metrics(federation.metrics().clone())
        .with_batch_size(system.config().batch_size);
    if let Some(mgr) = system.matviews() {
        exec = exec.with_matviews(mgr.store());
    }
    exec
}

/// Run one statement stage by stage. Returns the physical plan (absent on a
/// cache hit) and the answer's rows.
fn staged(
    system: &EiiSystem,
    sql: &str,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(Option<PhysicalPlan>, Batch)> {
    let federation = system.federation();
    let config = system.config();
    let now = system.clock().now_ms();

    let Statement::Query(query) = t.timed("sql.parse", || parse_statement(sql))? else {
        return Err(EiiError::Plan("the benchmark runs queries only".into()));
    };
    let logical = t.timed("planner.build", || {
        PlanBuilder::new(system.catalog(), federation).build(&query)
    })?;
    let optimized = t.timed("planner.optimize", || optimize(logical, federation, config))?;
    if let Some(cache) = system.result_cache() {
        let lookup = t.timed("exec.cache.lookup", || {
            cache.lookup(&optimized.display(), now, federation)
        });
        if let CacheLookup::Hit(hit) | CacheLookup::Stale(hit, _) = lookup {
            return Ok((None, hit.batch));
        }
    }
    let rewritten = match system.matviews() {
        Some(mgr) if config.rewrite_matviews => t.timed("planner.rewrite", || {
            rewrite_matviews(optimized, &mgr.defs(now), federation)
        })?,
        _ => optimized,
    };
    let physical = t.timed("planner.physical", || {
        PhysicalPlanner::new(federation, config).create(rewritten)
    })?;
    let exec = executor(system);
    let QueryResult {
        batch,
        cost,
        profile,
        ..
    } = t.timed("exec.execute", || exec.execute(&physical))?;
    count_ops(&physical, counts);
    counts.rows_in += profile.as_ref().map_or(0, leaf_rows);
    counts.rows_out += batch.num_rows() as u64;
    counts.rows_scanned += cost.rows_scanned as u64;
    counts.rows_shipped += cost.rows_shipped as u64;
    Ok((Some(physical), batch))
}

/// Walk a plan bottom-up: fetch every `Source` leaf by itself, pivot what it
/// returned, and push the columns through the Filter/Project chain directly
/// above it with the typed kernels. Anything else ends the chain.
fn probe(
    plan: &PhysicalPlan,
    federation: &Federation,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Option<ColumnarBatch>> {
    match plan {
        PhysicalPlan::Source {
            source,
            query,
            schema,
        } => {
            let handle = federation.source(source)?;
            let (batch, _) =
                t.timed(format!("federation.fetch.{source}"), || handle.query(query))?;
            counts.pivot_cells += (batch.num_rows() * batch.schema().len()) as u64;
            let cols = t.timed("data.pivot.to_cols", || ColumnarBatch::from_batch(&batch));
            let back = t.timed("data.pivot.to_rows", || cols.to_batch());
            std::hint::black_box(back);
            // The plan's schema carries the query's table alias; the
            // operators above the leaf resolve their columns against it.
            Ok(Some(cols.with_schema(Arc::clone(schema))))
        }
        PhysicalPlan::Filter {
            input, predicate, ..
        } => {
            let Some(cols) = probe(input, federation, t, counts)? else {
                return Ok(None);
            };
            let pred = bind(predicate, cols.schema())?;
            counts.kernel_rows += cols.num_rows() as u64;
            let keep = t.timed("expr.filter", || eval_filter(&pred, &cols))?;
            Ok(Some(cols.select(keep)))
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
            ..
        } => {
            let Some(cols) = probe(input, federation, t, counts)? else {
                return Ok(None);
            };
            let bound = exprs
                .iter()
                .map(|(e, _)| bind(e, cols.schema()))
                .collect::<Result<Vec<_>>>()?;
            counts.kernel_rows += cols.num_rows() as u64;
            let out = t.timed("expr.eval", || {
                bound
                    .iter()
                    .map(|e| eval_column(e, &cols))
                    .collect::<Result<Vec<_>>>()
            })?;
            Ok(Some(cols.with_columns(Arc::clone(schema), out)))
        }
        other => {
            for child in other.children() {
                probe(child, federation, t, counts)?;
            }
            Ok(None)
        }
    }
}

fn trace_statement(
    env: &Env,
    oracle: &Oracle,
    rec: &mut Recorder,
    trace: &mut Trace,
    stmt: usize,
    pos: usize,
) {
    let system = &env.built.system;
    let (id, sql) = (env.stmts[stmt].id, env.stmts[stmt].sql);
    let Trace {
        tracer: t,
        counts,
        traced_ms,
    } = trace;
    counts.statements += 1;
    let root = t.begin(format!("stmt.{id}"));

    let span = t.enter("staged");
    let by_hand = staged(system, sql, t, counts);
    t.exit(span);
    rec.check(
        &format!("{id}(staged)"),
        pos,
        by_hand
            .as_ref()
            .map(|(_, batch)| checksum_rows(batch.rows().iter()))
            .map_err(|e| format!("{}: {e}", e.kind())),
        oracle,
    );

    let span = t.enter("core.session_execute");
    let (outcome, bytes, allocs) = alloc::counted(|| env.session.execute(sql));
    t.exit(span);
    counts.alloc_bytes += bytes;
    counts.alloc_count += allocs;
    traced_ms[stmt].push(t.spans[span].dur_ns() as f64 / 1e6);
    rec.check(id, pos, answer_of(&outcome), oracle);

    if let Ok((Some(physical), _)) = &by_hand {
        let span = t.enter("probes");
        if let Err(e) = probe(physical, system.federation(), t, counts) {
            rec.attempted += 1;
            rec.fail(format!("{id}(probe): {}: {e}", e.kind()));
        }
        t.exit(span);
    }
    t.exit(root);
}

fn trace_maintain(env: &Env, rec: &mut Recorder, t: &mut Tracer, writes: &[UpdateOp]) {
    let root = t.begin("maintain".to_string());
    let outcome = maintain(env, writes, &mut |name, op| t.timed(name, op));
    t.exit(root);
    rec.attempted += 1;
    if let Err(e) = outcome {
        rec.fail(format!("maintain(traced): {}: {e}", e.kind()));
    }
}

/// Direct reads of the storage tables under the sources: one full scan and
/// the seeded `lookup_eq` probes per table.
fn trace_storage(env: &Env, t: &mut Tracer) {
    let root = t.begin("storage".to_string());
    for probe in &env.built.probes {
        let table = probe.table.read();
        let rows = t.timed("storage.scan", || table.all_rows());
        std::hint::black_box(rows);
        for key in &probe.keys {
            let rows = t.timed("storage.lookup", || table.lookup_eq(probe.lookup_col, key));
            std::hint::black_box(rows);
        }
    }
    t.exit(root);
}

/// One pass with every op traced.
pub fn traced_pass(env: &Env, oracle: &Oracle, rec: &mut Recorder, trace: &mut Trace) {
    let mut pos = 0;
    for op in &env.ops {
        match op {
            Op::Read(stmt) => {
                trace_statement(env, oracle, rec, trace, *stmt, pos);
                pos += 1;
            }
            Op::Maintain(writes) => trace_maintain(env, rec, &mut trace.tracer, writes),
        }
    }
    trace_storage(env, &mut trace.tracer);
    trace.counts.traced_passes += 1;
}

/// The spans as JSON: one object per span with its id, parent, statement,
/// clock readings and self time, all in nanoseconds since the trace began.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"stmt\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}",
            span.name,
            span.stmt,
            span.start_ns,
            span.end_ns,
            own[id],
            if id + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            stmt: 1,
        };
        // root 0..100 with children 10..40 and 50..90; the second child has
        // a grandchild 60..70.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
            span(60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn a_traced_pass_yields_one_well_formed_tree_per_statement() {
        use crate::workload::{Role, Workload};
        let env = Env::build(Workload::FedmarkSf1, 42, Role::Subject).unwrap();
        let oracle = Oracle::build(Workload::FedmarkSf1, 42).unwrap();
        let mut rec = Recorder::new(&env);
        let mut trace = Trace::new(&env);
        traced_pass(&env, &oracle, &mut rec, &mut trace);
        assert_eq!(rec.failed, 0, "{:?}", rec.failures);

        let spans = &trace.tracer.spans;
        let mut roots = std::collections::BTreeMap::new();
        for span in spans {
            assert!(span.start_ns <= span.end_ns, "{}", span.name);
            match span.parent {
                Some(p) => {
                    let parent = &spans[p];
                    assert_eq!(parent.stmt, span.stmt, "{}", span.name);
                    assert!(
                        parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                        "{} escapes {}",
                        span.name,
                        parent.name
                    );
                }
                None => *roots.entry(span.stmt).or_insert(0) += 1,
            }
        }
        // Eleven statements plus the storage probes, one root each.
        assert_eq!(roots.len(), env.stmts.len() + 1);
        assert!(roots.values().all(|n| *n == 1));
        // Every statement was staged and run whole.
        for name in [
            "staged",
            "core.session_execute",
            "sql.parse",
            "exec.execute",
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.name == name).count(),
                env.stmts.len(),
                "{name}"
            );
        }
        let json = to_json("fedmark_sf1", 42, spans);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let listed = parsed
            .as_obj()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "spans")
            .unwrap();
        assert_eq!(listed.1.as_arr().unwrap().len(), spans.len());
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let root = t.begin("stmt".into());
        let child = t.enter("child");
        t.timed("leaf", || ());
        t.exit(child);
        t.exit(root);
        let second = t.begin("stmt".into());
        t.exit(second);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), None]);
        let stmts: Vec<_> = t.spans.iter().map(|s| s.stmt).collect();
        assert_eq!(stmts, vec![1, 1, 1, 2]);
        for span in &t.spans {
            assert!(span.start_ns <= span.end_ns);
            if let Some(p) = span.parent {
                assert!(t.spans[p].start_ns <= span.start_ns && span.end_ns <= t.spans[p].end_ns);
            }
        }
    }
}
