//! The logical relational algebra the optimizer works on.

use std::fmt;
use std::sync::Arc;

use eii_data::{DataType, EiiError, Field, Result, Row, Schema, SchemaRef};
use eii_expr::{infer_type, AggFunc, Expr};
use eii_sql::JoinKind;

/// One aggregate computation inside an [`LogicalPlan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
    /// Output column name.
    pub name: String,
}

impl AggItem {
    /// Output type of the aggregate given the input schema.
    pub fn output_type(&self, input: &Schema) -> Result<DataType> {
        Ok(match self.func {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                let arg = self.arg.as_ref().ok_or_else(|| {
                    EiiError::Plan(format!("{} requires an argument", self.func.name()))
                })?;
                infer_type(arg, input)?.unwrap_or(DataType::Int)
            }
        })
    }
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of one table at one federated source. `alias` qualifies the
    /// output columns; `pushed_filters` and `projection` are *table-local*
    /// (unqualified) and filled in by the pushdown rules.
    SourceScan {
        source: String,
        table: String,
        alias: String,
        /// The table's native schema (unqualified).
        base_schema: SchemaRef,
        /// Filters the source will evaluate (unqualified column refs).
        pushed_filters: Vec<Expr>,
        /// Columns the source will return, or `None` for all.
        projection: Option<Vec<String>>,
        /// Row cap the source will apply after its filters, when its
        /// capabilities allow (`LIMIT` pushdown).
        limit: Option<usize>,
    },
    /// Literal rows (`SELECT 1`).
    Values { schema: SchemaRef, rows: Vec<Row> },
    /// A scan of a local materialized view that the rewrite pass
    /// substituted for an equivalent (or containing) federated subtree
    /// because the cost model preferred it. Carries both sides of that
    /// decision so EXPLAIN can show the chosen local cost next to the
    /// rejected federated one.
    MatViewScan {
        /// Registered view name.
        name: String,
        /// Output schema, qualified like the subtree this scan replaced.
        schema: SchemaRef,
        /// Compensating predicates the query pushed beyond the view's
        /// definition, evaluated over the *full* materialization (which may
        /// hold columns the output projects away) before projecting.
        filters: Vec<Expr>,
        /// Compensating row cap applied after the filters.
        limit: Option<usize>,
        /// Cost model's estimate for reading the local materialization
        /// (the chosen alternative).
        local: crate::cost::PlanEstimate,
        /// Cost model's estimate for the federated subtree this scan
        /// replaced (the rejected alternative).
        federated: crate::cost::PlanEstimate,
        /// Estimated bytes per source the rewrite avoids shipping.
        saved: Vec<(String, f64)>,
    },
    /// Row filter.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Projection with output names.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
    },
    /// Join.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        on: Option<Expr>,
    },
    /// Grouped aggregation.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggItem>,
    },
    /// Duplicate elimination over full rows.
    Distinct { input: Box<LogicalPlan> },
    /// Sort by output-schema expressions.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(Expr, bool)>,
    },
    /// Row-count limit.
    Limit { input: Box<LogicalPlan>, n: usize },
    /// Bag union of compatible inputs.
    UnionAll { inputs: Vec<LogicalPlan> },
    /// Re-qualify the input's columns under a new relation name (a view or
    /// subquery given an alias in FROM).
    Alias {
        input: Box<LogicalPlan>,
        alias: String,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> Result<SchemaRef> {
        match self {
            LogicalPlan::SourceScan {
                alias,
                base_schema,
                projection,
                ..
            } => {
                let qualified = base_schema.qualified(alias);
                match projection {
                    None => Ok(Arc::new(qualified)),
                    Some(cols) => {
                        let fields = cols
                            .iter()
                            .map(|c| {
                                let i = base_schema.index_of(None, c)?;
                                Ok(qualified.field(i).clone())
                            })
                            .collect::<Result<Vec<_>>>()?;
                        Ok(Arc::new(Schema::new(fields)))
                    }
                }
            }
            LogicalPlan::Values { schema, .. }
            | LogicalPlan::MatViewScan { schema, .. } => Ok(schema.clone()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema()?;
                let fields = exprs
                    .iter()
                    .map(|(e, name)| {
                        let ty = infer_type(e, &in_schema)?.unwrap_or(DataType::Str);
                        Ok(Field::new(name.clone(), ty))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                let l = left.schema()?;
                if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
                    // Semi/anti joins filter the left side; right columns
                    // never surface.
                    return Ok(l);
                }
                let r = right.schema()?;
                let mut joined = l.join(&r);
                if *kind == JoinKind::Left {
                    // Right side becomes nullable.
                    let fields = joined
                        .fields()
                        .iter()
                        .enumerate()
                        .map(|(i, f)| {
                            let mut f = f.clone();
                            if i >= l.len() {
                                f.nullable = true;
                            }
                            f
                        })
                        .collect();
                    joined = Schema::new(fields);
                }
                Ok(Arc::new(joined))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for g in group_by {
                    let ty = infer_type(g, &in_schema)?.unwrap_or(DataType::Str);
                    fields.push(Field::new(g.output_name(), ty));
                }
                for a in aggs {
                    fields.push(Field::new(a.name.clone(), a.output_type(&in_schema)?));
                }
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::UnionAll { inputs } => {
                let first = inputs
                    .first()
                    .ok_or_else(|| EiiError::Plan("empty UNION".into()))?
                    .schema()?;
                for other in &inputs[1..] {
                    let s = other.schema()?;
                    if s.len() != first.len() {
                        return Err(EiiError::Plan(format!(
                            "UNION ALL branches have different widths: {} vs {}",
                            first.len(),
                            s.len()
                        )));
                    }
                    for (a, b) in first.fields().iter().zip(s.fields()) {
                        if a.data_type.unify(b.data_type).is_none() {
                            return Err(EiiError::Plan(format!(
                                "UNION ALL column '{}' mixes {} and {}",
                                a.name, a.data_type, b.data_type
                            )));
                        }
                    }
                }
                // Branch qualifiers differ; the union's columns are
                // addressable by bare name only.
                let fields = first
                    .fields()
                    .iter()
                    .map(|f| {
                        let mut f = f.clone();
                        f.relation = None;
                        f
                    })
                    .collect();
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Alias { input, alias } => {
                Ok(Arc::new(input.schema()?.qualified(alias)))
            }
        }
    }

    /// Children of this node, for generic traversal.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::SourceScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::MatViewScan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Alias { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs } => inputs.iter().collect(),
        }
    }

    /// The same node over `f(child)` for each child, in [`Self::children`]
    /// order: the one place a pass recurses. Each child slot is replaced in
    /// place (no field is named, no box reallocated) and a leaf comes back as
    /// it is. The first `Err` is the call's error; no later child is visited.
    pub fn map_children(
        mut self,
        mut f: impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<LogicalPlan> {
        let mut replace = |slot: &mut LogicalPlan| -> Result<()> {
            // An empty union allocates nothing; it is only ever dropped.
            let child = std::mem::replace(slot, LogicalPlan::UnionAll { inputs: Vec::new() });
            *slot = f(child)?;
            Ok(())
        };
        match &mut self {
            LogicalPlan::SourceScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::MatViewScan { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Alias { input, .. } => replace(input)?,
            LogicalPlan::Join { left, right, .. } => {
                replace(left)?;
                replace(right)?;
            }
            LogicalPlan::UnionAll { inputs } => inputs.iter_mut().try_for_each(replace)?,
        }
        Ok(self)
    }

    /// Every distinct `source.table` the plan scans, first seen first.
    pub fn base_tables(&self) -> Vec<String> {
        fn walk(plan: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::SourceScan { source, table, .. } = plan {
                let qualified = format!("{source}.{table}");
                if !out.contains(&qualified) {
                    out.push(qualified);
                }
            }
            for child in plan.children() {
                walk(child, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Render the plan as an indented tree (EXPLAIN output).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.display_into(0, &mut out);
        out
    }

    fn display_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::SourceScan {
                source,
                table,
                alias,
                pushed_filters,
                projection,
                limit,
                ..
            } => {
                let mut s = format!("Scan {source}.{table} AS {alias}");
                if let Some(p) = projection {
                    s.push_str(&format!(" cols=[{}]", p.join(", ")));
                }
                if !pushed_filters.is_empty() {
                    let preds: Vec<String> =
                        pushed_filters.iter().map(ToString::to_string).collect();
                    s.push_str(&format!(" pushed=[{}]", preds.join(" AND ")));
                }
                if let Some(n) = limit {
                    s.push_str(&format!(" limit={n}"));
                }
                s
            }
            LogicalPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
            LogicalPlan::MatViewScan {
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
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let items: Vec<String> = exprs
                    .iter()
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect();
                format!("Project [{}]", items.join(", "))
            }
            LogicalPlan::Join { kind, on, .. } => match on {
                Some(c) => format!("{kind} ON {c}"),
                None => format!("{kind}"),
            },
            LogicalPlan::Aggregate {
                group_by, aggs, ..
            } => {
                let g: Vec<String> = group_by.iter().map(ToString::to_string).collect();
                let a: Vec<String> = aggs.iter().map(|x| x.name.clone()).collect();
                format!("Aggregate group=[{}] aggs=[{}]", g.join(", "), a.join(", "))
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort [{}]", k.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
            LogicalPlan::UnionAll { .. } => "UnionAll".to_string(),
            LogicalPlan::Alias { alias, .. } => format!("Alias {alias}"),
        };
        out.push_str(&indent);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.display_into(depth + 1, out);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(alias: &str) -> LogicalPlan {
        LogicalPlan::SourceScan {
            source: "crm".into(),
            table: "customers".into(),
            alias: alias.into(),
            base_schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int).not_null(),
                Field::new("name", DataType::Str),
            ])),
            pushed_filters: vec![],
            projection: None,
            limit: None,
        }
    }

    #[test]
    fn scan_schema_is_alias_qualified() {
        let s = scan("c").schema().unwrap();
        assert_eq!(s.field(0).relation.as_deref(), Some("c"));
        assert_eq!(s.index_of(Some("c"), "id").unwrap(), 0);
    }

    #[test]
    fn scan_projection_narrows_schema() {
        let mut p = scan("c");
        if let LogicalPlan::SourceScan { projection, .. } = &mut p {
            *projection = Some(vec!["name".into()]);
        }
        let s = p.schema().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.field(0).name, "name");
    }

    #[test]
    fn join_schema_concats_and_left_join_nullifies() {
        let j = LogicalPlan::Join {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            kind: JoinKind::Left,
            on: Some(Expr::qcol("a", "id").eq(Expr::qcol("b", "id"))),
        };
        let s = j.schema().unwrap();
        assert_eq!(s.len(), 4);
        assert!(!s.field(0).nullable, "left side keeps constraints");
        assert!(s.field(2).nullable, "right side nullable under LEFT JOIN");
    }

    #[test]
    fn project_schema_uses_inferred_types() {
        let p = LogicalPlan::Project {
            input: Box::new(scan("c")),
            exprs: vec![
                (Expr::qcol("c", "id"), "id".into()),
                (
                    Expr::qcol("c", "id").binary(eii_expr::BinaryOp::Multiply, Expr::lit(2i64)),
                    "double_id".into(),
                ),
            ],
        };
        let s = p.schema().unwrap();
        assert_eq!(s.field(1).data_type, DataType::Int);
    }

    #[test]
    fn aggregate_schema() {
        let a = LogicalPlan::Aggregate {
            input: Box::new(scan("c")),
            group_by: vec![Expr::qcol("c", "name")],
            aggs: vec![
                AggItem {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                    name: "n".into(),
                },
                AggItem {
                    func: AggFunc::Avg,
                    arg: Some(Expr::qcol("c", "id")),
                    distinct: false,
                    name: "avg_id".into(),
                },
            ],
        };
        let s = a.schema().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(1).data_type, DataType::Int);
        assert_eq!(s.field(2).data_type, DataType::Float);
    }

    #[test]
    fn union_width_mismatch_rejected() {
        let narrow = LogicalPlan::Project {
            input: Box::new(scan("a")),
            exprs: vec![(Expr::qcol("a", "id"), "id".into())],
        };
        let u = LogicalPlan::UnionAll {
            inputs: vec![scan("a"), narrow],
        };
        assert_eq!(u.schema().unwrap_err().kind(), "plan");
    }

    /// One plan of every variant.
    fn one_of_each() -> Vec<LogicalPlan> {
        let input = || Box::new(scan("c"));
        let schema = scan("c").schema().unwrap();
        vec![
            scan("c"),
            LogicalPlan::Values {
                schema: schema.clone(),
                rows: vec![],
            },
            LogicalPlan::MatViewScan {
                name: "mv".into(),
                schema,
                filters: vec![],
                limit: None,
                local: Default::default(),
                federated: Default::default(),
                saved: vec![],
            },
            LogicalPlan::Filter {
                input: input(),
                predicate: Expr::qcol("c", "id").gt(Expr::lit(5i64)),
            },
            LogicalPlan::Project {
                input: input(),
                exprs: vec![(Expr::qcol("c", "id"), "id".into())],
            },
            LogicalPlan::Join {
                left: Box::new(scan("a")),
                right: Box::new(scan("b")),
                kind: JoinKind::Inner,
                on: Some(Expr::qcol("a", "id").eq(Expr::qcol("b", "id"))),
            },
            LogicalPlan::Aggregate {
                input: input(),
                group_by: vec![Expr::qcol("c", "name")],
                aggs: vec![],
            },
            LogicalPlan::Distinct { input: input() },
            LogicalPlan::Sort {
                input: input(),
                keys: vec![(Expr::qcol("c", "id"), true)],
            },
            LogicalPlan::Limit {
                input: input(),
                n: 3,
            },
            LogicalPlan::UnionAll {
                inputs: vec![scan("a"), scan("b"), scan("c")],
            },
            LogicalPlan::Alias {
                input: input(),
                alias: "v".into(),
            },
        ]
    }

    #[test]
    fn map_children_with_the_identity_changes_nothing() {
        for plan in one_of_each() {
            assert_eq!(plan.clone().map_children(Ok).unwrap(), plan);
        }
    }

    #[test]
    fn map_children_visits_exactly_the_children_in_order() {
        for plan in one_of_each() {
            let mut seen = Vec::new();
            let visit = |c| {
                seen.push(c);
                Ok(scan("z"))
            };
            let mapped = plan.clone().map_children(visit).unwrap();
            assert_eq!(seen.iter().collect::<Vec<_>>(), plan.children());
            assert_eq!(mapped.children().len(), seen.len());
            assert!(mapped.children().iter().all(|c| **c == scan("z")));
        }
    }

    #[test]
    fn map_children_stops_at_the_first_error() {
        for plan in one_of_each() {
            let mut visited = 0;
            let result = plan.clone().map_children(|_| {
                visited += 1;
                Err(EiiError::Plan(format!("child {visited}")))
            });
            if plan.children().is_empty() {
                assert_eq!(result.unwrap(), plan);
            } else {
                assert_eq!(visited, 1, "no child after the failing one is visited");
                assert!(result.unwrap_err().to_string().contains("child 1"));
            }
        }
    }

    #[test]
    fn display_renders_tree() {
        let f = LogicalPlan::Filter {
            input: Box::new(scan("c")),
            predicate: Expr::qcol("c", "id").gt(Expr::lit(5i64)),
        };
        let text = f.display();
        assert!(text.contains("Filter (c.id > 5)"));
        assert!(text.contains("  Scan crm.customers AS c"));
    }
}
