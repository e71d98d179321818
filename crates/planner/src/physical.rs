//! Physical planning: source decomposition, join-strategy selection, bind
//! joins for access-limited sources, and assembly-site selection.
//!
//! "A single query submitted to an EII engine must be decomposed to
//! component queries that are distributed to the data sources, and the
//! results of the component queries must be joined at an assembly site. The
//! assembly site may be a single hub or it may be one of the sources."
//! (Bitton §3)

use std::fmt;

use eii_data::{EiiError, Result, Row, Schema, SchemaRef};
use eii_expr::{conjoin, conjuncts, BinaryOp, Expr};
use eii_federation::{Federation, SourceQuery};
use eii_sql::JoinKind;

use crate::config::PlannerConfig;
use crate::cost::{CostModel, PlanEstimate};
use crate::logical::{AggItem, LogicalPlan};
use crate::util::resolves_in;

/// Where a cross-source join's rows are assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinSite {
    /// At the EII server (both inputs ship to the hub).
    Hub,
    /// At a source site (the other input ships there; the result ships to
    /// the hub).
    AtSource(String),
}

impl fmt::Display for JoinSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinSite::Hub => write!(f, "hub"),
            JoinSite::AtSource(s) => write!(f, "@{s}"),
        }
    }
}

/// An executable plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// One component query shipped to one source.
    Source {
        source: String,
        query: SourceQuery,
        schema: SchemaRef,
    },
    /// Literal rows.
    Values { schema: SchemaRef, rows: Vec<Row> },
    /// Local scan of a materialized view, substituted by the planner's
    /// rewrite pass for an equivalent federated subtree. The executor
    /// serves it from the matview store; nothing crosses the network.
    MatViewScan {
        /// Registered view name (the executor's store key).
        name: String,
        /// Output schema, qualified like the replaced subtree.
        schema: SchemaRef,
        /// Compensating predicates, evaluated over the full materialization
        /// (it may hold columns the output projects away) before projecting.
        filters: Vec<Expr>,
        /// Compensating row cap applied after the filters.
        limit: Option<usize>,
        /// Chosen alternative: cost of reading the local materialization.
        local: PlanEstimate,
        /// Rejected alternative: cost of executing the replaced subtree
        /// against the federation.
        federated: PlanEstimate,
        /// Estimated bytes per source this scan avoids shipping, for the
        /// ledger's bytes-saved accounting.
        saved: Vec<(String, f64)>,
    },
    /// Assembly-site filter.
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
        /// Always `true`, read by nothing in the engine: `eiibench`'s trace
        /// destructures it, and the benchmark may only change in an issue
        /// of its own (ROADMAP, "drop the `vectorized` fields").
        vectorized: bool,
    },
    /// Assembly-site projection.
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<(Expr, String)>,
        schema: SchemaRef,
        /// Always `true`; see [`PhysicalPlan::Filter`].
        vectorized: bool,
    },
    /// Hash join on equi keys, with optional residual predicate.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        kind: JoinKind,
        residual: Option<Expr>,
        site: JoinSite,
        parallel: bool,
        schema: SchemaRef,
        /// Always `true`; see [`PhysicalPlan::Filter`].
        vectorized: bool,
    },
    /// Nested-loop join (arbitrary condition / cartesian).
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinKind,
        on: Option<Expr>,
        parallel: bool,
        schema: SchemaRef,
    },
    /// Bind join: execute the left side, ship its distinct key values to the
    /// right source as bindings, join the returned rows.
    BindJoin {
        left: Box<PhysicalPlan>,
        left_key: Expr,
        source: String,
        /// Component-query template (bindings filled at run time).
        template: SourceQuery,
        bind_column: String,
        right_schema: SchemaRef,
        residual: Option<Expr>,
        schema: SchemaRef,
    },
    /// Hash aggregation.
    Aggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggItem>,
        schema: SchemaRef,
        /// Always `true`; see [`PhysicalPlan::Filter`].
        vectorized: bool,
    },
    /// Duplicate elimination.
    Distinct { input: Box<PhysicalPlan> },
    /// Sort.
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(Expr, bool)>,
    },
    /// Limit.
    Limit { input: Box<PhysicalPlan>, n: usize },
    /// Bag union.
    UnionAll {
        inputs: Vec<PhysicalPlan>,
        parallel: bool,
        schema: SchemaRef,
    },
    /// Re-tag the input's schema (alias boundaries).
    Rename {
        input: Box<PhysicalPlan>,
        schema: SchemaRef,
    },
}

/// The operator kinds, listed once: each kind's label and the metric name
/// built from it are both constants, so the executor's per-operator counter
/// formats nothing per statement.
macro_rules! operator_names {
    ($($kind:ident),* $(,)?) => {
        /// How many operator kinds there are.
        pub const KINDS: usize = [$(stringify!($kind)),*].len();

        /// This operator's kind, `0..KINDS`, in the order they are listed.
        pub fn kind(&self) -> usize {
            enum Kind { $($kind),* }
            match self {
                $(PhysicalPlan::$kind { .. } => Kind::$kind as usize,)*
            }
        }

        /// Short operator name (stable across queries; used for metric names and
        /// operator profiles).
        pub fn label(&self) -> &'static str {
            match self {
                $(PhysicalPlan::$kind { .. } => stringify!($kind),)*
            }
        }

        /// `exec.rows_emitted.<label>`, the counter the executor adds this
        /// operator's output rows to.
        pub fn rows_emitted_metric(&self) -> &'static str {
            match self {
                $(PhysicalPlan::$kind { .. } => concat!("exec.rows_emitted.", stringify!($kind)),)*
            }
        }
    };
}

impl PhysicalPlan {
    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            PhysicalPlan::Source { schema, .. }
            | PhysicalPlan::Values { schema, .. }
            | PhysicalPlan::MatViewScan { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::HashJoin { schema, .. }
            | PhysicalPlan::NestedLoopJoin { schema, .. }
            | PhysicalPlan::BindJoin { schema, .. }
            | PhysicalPlan::Aggregate { schema, .. }
            | PhysicalPlan::UnionAll { schema, .. }
            | PhysicalPlan::Rename { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    operator_names!(
        Source, Values, MatViewScan, Filter, Project, HashJoin, NestedLoopJoin, BindJoin,
        Aggregate, Distinct, Sort, Limit, UnionAll, Rename,
    );

    /// Child operators, in the order the executor visits them. A
    /// [`PhysicalPlan::BindJoin`]'s probe side runs inside the operator, so
    /// only its build side appears.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Source { .. }
            | PhysicalPlan::Values { .. }
            | PhysicalPlan::MatViewScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Rename { input, .. } => vec![input.as_ref()],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                vec![left.as_ref(), right.as_ref()]
            }
            PhysicalPlan::BindJoin { left, .. } => vec![left.as_ref()],
            PhysicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// One-line description of this operator (no children): the line
    /// [`PhysicalPlan::display`] prints for it, and the line `EXPLAIN
    /// ANALYZE` annotates.
    pub fn describe(&self) -> String {
        match self {
            PhysicalPlan::Source { source, query, .. } => {
                format!("SourceQuery {source}: {}", query.to_sql())
            }
            PhysicalPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
            PhysicalPlan::MatViewScan {
                name,
                filters,
                limit,
                local,
                federated,
                ..
            } => {
                let mut s = format!(
                    "MatViewScan {name} [MATVIEW] (local sim={:.1}ms bytes=0 | \
                     rejected federated sim={:.1}ms bytes={:.0})",
                    local.sim_ms, federated.sim_ms, federated.bytes
                );
                if !filters.is_empty() {
                    let preds: Vec<String> = filters.iter().map(ToString::to_string).collect();
                    s.push_str(&format!(" compensate=[{}]", preds.join(" AND ")));
                }
                if let Some(n) = limit {
                    s.push_str(&format!(" limit={n}"));
                }
                s
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::Project { exprs, .. } => {
                let items: Vec<String> =
                    exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Project [{}]", items.join(", "))
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                kind,
                site,
                parallel,
                ..
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l}={r}"))
                    .collect();
                format!(
                    "HashJoin[{kind}] keys=[{}] site={site}{}",
                    keys.join(", "),
                    if *parallel { " parallel" } else { "" }
                )
            }
            PhysicalPlan::NestedLoopJoin { kind, on, .. } => format!(
                "NestedLoopJoin[{kind}]{}",
                on.as_ref().map(|o| format!(" ON {o}")).unwrap_or_default()
            ),
            PhysicalPlan::BindJoin {
                left_key,
                source,
                bind_column,
                ..
            } => format!("BindJoin {left_key} -> {source}.{bind_column}"),
            PhysicalPlan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(ToString::to_string).collect();
                let a: Vec<String> = aggs.iter().map(|x| x.name.clone()).collect();
                format!("HashAggregate group=[{}] aggs=[{}]", g.join(", "), a.join(", "))
            }
            PhysicalPlan::Distinct { .. } => "Distinct".into(),
            PhysicalPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort [{}]", k.join(", "))
            }
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::UnionAll { parallel, .. } => {
                format!("UnionAll{}", if *parallel { " parallel" } else { "" })
            }
            PhysicalPlan::Rename { schema, .. } => format!("Rename {}", schema),
        }
    }

    /// Does this operator join on some condition (equi keys or an `ON`
    /// clause)? False for non-joins and for pure cross products.
    pub fn join_condition_present(&self) -> bool {
        match self {
            PhysicalPlan::HashJoin { left_keys, .. } => !left_keys.is_empty(),
            PhysicalPlan::NestedLoopJoin { on, .. } => on.is_some(),
            PhysicalPlan::BindJoin { .. } => true,
            _ => false,
        }
    }

    /// What this operator pushed down to a source, when it talks to one:
    /// `pushed=[...]` for [`PhysicalPlan::Source`] and
    /// [`PhysicalPlan::BindJoin`], `None` for hub-side operators.
    pub fn pushdown(&self) -> Option<String> {
        let (query, bound) = match self {
            PhysicalPlan::Source { query, .. } => (query, false),
            PhysicalPlan::BindJoin { template, .. } => (template, true),
            _ => return None,
        };
        let mut parts = Vec::new();
        if let Some(p) = &query.projection {
            parts.push(format!("projection:{}", p.len()));
        }
        if !query.filters.is_empty() {
            parts.push(format!("filters:{}", query.filters.len()));
        }
        if let Some(n) = query.limit {
            parts.push(format!("limit:{n}"));
        }
        if bound {
            parts.push("bindings:1".into());
        }
        if parts.is_empty() {
            parts.push("none".into());
        }
        Some(format!("pushed=[{}]", parts.join(" ")))
    }

    /// Indented EXPLAIN rendering.
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.display_into(0, &mut out);
        out
    }

    fn display_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.describe());
        out.push('\n');
        for c in self.children() {
            c.display_into(depth + 1, out);
        }
    }
}

/// Creates physical plans from optimized logical plans.
pub struct PhysicalPlanner<'a> {
    federation: &'a Federation,
    config: &'a PlannerConfig,
}

impl<'a> PhysicalPlanner<'a> {
    /// New physical planner.
    pub fn new(federation: &'a Federation, config: &'a PlannerConfig) -> Self {
        PhysicalPlanner { federation, config }
    }

    /// Convert an optimized logical plan.
    pub fn create(&self, plan: LogicalPlan) -> Result<PhysicalPlan> {
        self.lower(&plan)
    }

    /// Planning only reads the logical plan: every question (a node's
    /// schema, its estimated rows, whether it is a bare scan) is asked of
    /// the node itself, and a node's own expressions are the only thing
    /// copied into its physical form. A node answers for its schema before
    /// its children are lowered (fields are evaluated as written).
    fn lower(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        let child = |p: &LogicalPlan| self.lower(p).map(Box::new);
        Ok(match plan {
            LogicalPlan::SourceScan {
                source,
                table,
                pushed_filters,
                projection,
                limit,
                ..
            } => {
                // Access-pattern check: a bare scan of a binding-restricted
                // table has no legal component query.
                let handle = self.federation.source(source)?;
                if let Some(p) = handle.connector().capabilities().pattern_for(table) {
                    return Err(EiiError::Plan(format!(
                        "{source}.{table} requires {} bound (access limitation); \
                         join it on that column so a bind join can feed it",
                        p.required_columns.join(", ")
                    )));
                }
                PhysicalPlan::Source {
                    source: source.clone(),
                    query: SourceQuery {
                        table: table.clone(),
                        projection: projection.clone(),
                        filters: pushed_filters.clone(),
                        bindings: vec![],
                        limit: *limit,
                    },
                    schema: plan.schema()?,
                }
            }
            LogicalPlan::Values { schema, rows } => PhysicalPlan::Values {
                schema: schema.clone(),
                rows: rows.clone(),
            },
            LogicalPlan::MatViewScan {
                name,
                schema,
                filters,
                limit,
                local,
                federated,
                saved,
            } => PhysicalPlan::MatViewScan {
                name: name.clone(),
                schema: schema.clone(),
                filters: filters.clone(),
                limit: *limit,
                local: *local,
                federated: *federated,
                saved: saved.clone(),
            },
            LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
                input: child(input)?,
                predicate: predicate.clone(),
                vectorized: true,
            },
            LogicalPlan::Project { input, exprs } => PhysicalPlan::Project {
                schema: plan.schema()?,
                input: child(input)?,
                exprs: exprs.clone(),
                vectorized: true,
            },
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => self.lower_join(plan, left, right, *kind, on.as_ref())?,
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => PhysicalPlan::Aggregate {
                schema: plan.schema()?,
                input: child(input)?,
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                vectorized: true,
            },
            LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
                input: child(input)?,
            },
            LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
                input: child(input)?,
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
                input: child(input)?,
                n: *n,
            },
            LogicalPlan::UnionAll { inputs } => PhysicalPlan::UnionAll {
                schema: plan.schema()?,
                inputs: inputs
                    .iter()
                    .map(|p| self.lower(p))
                    .collect::<Result<_>>()?,
                parallel: self.config.parallel_fetch,
            },
            LogicalPlan::Alias { input, .. } => PhysicalPlan::Rename {
                schema: plan.schema()?,
                input: child(input)?,
            },
        })
    }

    /// `join` is the whole node, `left`, `right`, `kind` and `on` its parts.
    fn lower_join(
        &self,
        join: &LogicalPlan,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: JoinKind,
        on: Option<&Expr>,
    ) -> Result<PhysicalPlan> {
        let (left_schema, right_schema) = (left.schema()?, right.schema()?);
        let joined_schema = join.schema()?;
        let (left_keys, right_keys, residual) = split_join_on(on, &left_schema, &right_schema);

        // Access-limited right (or left) scans force bind joins.
        let model = CostModel::new(self.federation);
        for (probe, build, probe_keys, build_keys, swapped) in [
            (right, left, &right_keys, &left_keys, false),
            (left, right, &left_keys, &right_keys, true),
        ] {
            if let Some((src, table)) = scan_target(probe) {
                let handle = self.federation.source(src)?;
                let caps = handle.connector().capabilities();
                if let Some(pattern) = caps.pattern_for(table) {
                    if kind != JoinKind::Inner {
                        return Err(EiiError::Plan(format!(
                            "access-limited {src}.{table} only supports inner bind joins"
                        )));
                    }
                    let required = &pattern.required_columns[0];
                    let Some(pos) = probe_keys.iter().position(|k| {
                        matches!(k, Expr::Column { name, .. } if name.eq_ignore_ascii_case(required))
                    }) else {
                        return Err(EiiError::Plan(format!(
                            "{src}.{table} requires {required} bound; the join has no \
                             equality on it"
                        )));
                    };
                    // Other equi pairs become residual checks.
                    let mut extra = residual.clone();
                    for (i, (lk, rk)) in build_keys.iter().zip(probe_keys).enumerate() {
                        if i != pos {
                            extra.push(lk.clone().eq(rk.clone()));
                        }
                    }
                    return self.make_bind_join(
                        build,
                        build_keys[pos].clone(),
                        probe,
                        required,
                        conjoin(extra),
                        joined_schema,
                        swapped,
                    );
                }
            }
        }

        // Optional bind join when the probe side is small.
        if self.config.use_bind_joins && kind == JoinKind::Inner && !left_keys.is_empty() {
            if let Some((src, table)) = scan_target(right) {
                let handle = self.federation.source(src)?;
                let caps = handle.connector().capabilities();
                if caps.bindings && caps.pattern_for(table).is_none() {
                    let left_rows = model.rows(left)?;
                    let right_rows = model.rows(right)?;
                    if let Expr::Column { name, .. } = &right_keys[0] {
                        if left_rows * 2.0 < right_rows {
                            let mut extra = residual.clone();
                            for (lk, rk) in left_keys.iter().zip(&right_keys).skip(1) {
                                extra.push(lk.clone().eq(rk.clone()));
                            }
                            return self.make_bind_join(
                                left,
                                left_keys[0].clone(),
                                right,
                                name,
                                conjoin(extra),
                                joined_schema,
                                false,
                            );
                        }
                    }
                }
            }
        }

        let phys_left = self.lower(left)?;
        let phys_right = self.lower(right)?;

        if left_keys.is_empty() {
            return Ok(PhysicalPlan::NestedLoopJoin {
                left: Box::new(phys_left),
                right: Box::new(phys_right),
                kind,
                on: conjoin(residual),
                parallel: self.config.parallel_fetch,
                schema: joined_schema,
            });
        }

        // Assembly-site selection for pure source-to-source hash joins.
        let site = if self.config.choose_assembly_site && kind == JoinKind::Inner {
            match (scan_target(left), scan_target(right)) {
                (Some((ls, _)), Some((rs, _))) if ls != rs => {
                    let le = model.estimate(left)?;
                    let re = model.estimate(right)?;
                    let (big_src, big_bytes, small_bytes) = if le.bytes >= re.bytes {
                        (ls, le.bytes, re.bytes)
                    } else {
                        (rs, re.bytes, le.bytes)
                    };
                    let host = self.federation.source(big_src)?;
                    let host_caps = host.connector().capabilities();
                    // Result still ships to the hub; hosting pays the small
                    // side twice (up to the site, result down).
                    let result_bytes = model.rows(join)? * 24.0;
                    let hub_cost = big_bytes + small_bytes;
                    let site_cost = 2.0 * small_bytes + result_bytes;
                    if host_caps.filters && host_caps.bindings && site_cost < hub_cost {
                        JoinSite::AtSource(big_src.to_string())
                    } else {
                        JoinSite::Hub
                    }
                }
                _ => JoinSite::Hub,
            }
        } else {
            JoinSite::Hub
        };

        Ok(PhysicalPlan::HashJoin {
            left: Box::new(phys_left),
            right: Box::new(phys_right),
            left_keys,
            right_keys,
            kind,
            residual: conjoin(residual),
            site,
            parallel: self.config.parallel_fetch,
            schema: joined_schema,
            vectorized: true,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn make_bind_join(
        &self,
        build_side: &LogicalPlan,
        build_key: Expr,
        probe_scan: &LogicalPlan,
        bind_column: &str,
        residual: Option<Expr>,
        joined_schema: SchemaRef,
        swapped: bool,
    ) -> Result<PhysicalPlan> {
        let LogicalPlan::SourceScan {
            source,
            table,
            pushed_filters,
            projection,
            ..
        } = probe_scan
        else {
            unreachable!("scan_target checked")
        };
        let right_schema = probe_scan.schema()?;
        // The bind column must come back so rows can be matched.
        let projection = projection.clone().map(|mut cols| {
            if !cols.iter().any(|c| c.eq_ignore_ascii_case(bind_column)) {
                cols.push(bind_column.to_string());
            }
            cols
        });
        let left = self.lower(build_side)?;
        let plan = PhysicalPlan::BindJoin {
            left: Box::new(left),
            left_key: build_key,
            source: source.clone(),
            template: SourceQuery {
                table: table.clone(),
                projection,
                filters: pushed_filters.clone(),
                bindings: vec![],
                limit: None,
            },
            bind_column: bind_column.to_string(),
            right_schema: right_schema.clone(),
            residual,
            schema: if swapped {
                // The executor emits build rows (logical right) followed by
                // probe rows (logical left); re-projected to logical order
                // below.
                swapped_schema(&joined_schema, right_schema.len())
            } else {
                joined_schema.clone()
            },
        };
        if swapped {
            // Re-order columns to match the logical join schema.
            let exprs: Vec<(Expr, String)> = joined_schema
                .fields()
                .iter()
                .map(|f| {
                    (
                        Expr::Column {
                            relation: f.relation.clone(),
                            name: f.name.clone(),
                        },
                        f.name.clone(),
                    )
                })
                .collect();
            return Ok(PhysicalPlan::Rename {
                input: Box::new(PhysicalPlan::Project {
                    input: Box::new(plan),
                    exprs,
                    schema: joined_schema.clone(),
                    vectorized: true,
                }),
                schema: joined_schema,
            });
        }
        Ok(plan)
    }
}

/// Column order when the bind join runs with sides swapped: the build side
/// (logical right) emits first, then the probe side (logical left, the
/// access-limited scan) whose schema has `probe_len` columns.
fn swapped_schema(joined: &SchemaRef, probe_len: usize) -> SchemaRef {
    let mut fields = Vec::with_capacity(joined.len());
    fields.extend(joined.fields()[probe_len..].iter().cloned());
    fields.extend(joined.fields()[..probe_len].iter().cloned());
    std::sync::Arc::new(Schema::new(fields))
}

/// Split a join condition into equi pairs and residual conjuncts: `a = b`
/// keys the join when one operand reads only `left`'s columns and the other
/// only `right`'s, and every other conjunct is a predicate over the joined
/// row. Returns `(left_keys, right_keys, residual)`.
pub fn split_join_on(
    on: Option<&Expr>,
    left: &Schema,
    right: &Schema,
) -> (Vec<Expr>, Vec<Expr>, Vec<Expr>) {
    let (mut left_keys, mut right_keys, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    for c in on.into_iter().flat_map(conjuncts) {
        if let Expr::Binary {
            left: l,
            op: BinaryOp::Eq,
            right: r,
        } = &c
        {
            if resolves(l, left) && resolves(r, right) {
                left_keys.push((**l).clone());
                right_keys.push((**r).clone());
                continue;
            }
            if resolves(l, right) && resolves(r, left) {
                left_keys.push((**r).clone());
                right_keys.push((**l).clone());
                continue;
            }
        }
        residual.push(c);
    }
    (left_keys, right_keys, residual)
}

/// Can `expr` key a join side: does it read a column, and only columns of
/// `schema`? A literal resolves in every schema, so without the first test
/// `a.x = 5` would be an equi pair whose other side hashes one constant.
fn resolves(expr: &Expr, schema: &Schema) -> bool {
    !expr.is_constant() && resolves_in(expr, schema)
}

/// The `(source, table)` of a bare scan.
fn scan_target(plan: &LogicalPlan) -> Option<(&str, &str)> {
    match plan {
        LogicalPlan::SourceScan { source, table, .. } => Some((source, table)),
        _ => None,
    }
}
