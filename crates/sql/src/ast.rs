//! Statement AST produced by the parser and consumed by the planner.

use std::fmt;


use eii_expr::{AggFunc, Expr};

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query (`SELECT ...` possibly with `UNION ALL`).
    Query(SetQuery),
    /// `CREATE VIEW name AS <query>` — how mediated-schema relations are
    /// defined over source tables (GAV-style).
    CreateView { name: String, query: SetQuery },
    /// `SEARCH 'terms' [IN src1, src2] [LIMIT n]` — enterprise keyword
    /// search across structured and unstructured sources (Sikka §8).
    Search {
        terms: String,
        sources: Vec<String>,
        limit: Option<usize>,
    },
    /// `EXPLAIN [ANALYZE] <query>` — render the physical plan; with
    /// `ANALYZE`, also execute it and annotate each operator with actual
    /// rows, bytes shipped, and simulated time next to the estimates.
    Explain { analyze: bool, query: SetQuery },
}

/// A query with optional `UNION ALL` combinations.
#[derive(Debug, Clone, PartialEq)]
pub enum SetQuery {
    Select(Box<Query>),
    UnionAll(Box<SetQuery>, Box<SetQuery>),
}

impl SetQuery {
    /// Iterate over the leaf SELECT blocks left-to-right.
    pub fn selects(&self) -> Vec<&Query> {
        match self {
            SetQuery::Select(q) => vec![q],
            SetQuery::UnionAll(l, r) => {
                let mut v = l.selects();
                v.extend(r.selects());
                v
            }
        }
    }
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// FROM clause: cross-product of table references (each possibly a join
    /// tree). Empty for `SELECT 1`.
    pub from: Vec<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    /// Subquery predicates pulled out of WHERE (top-level conjuncts only).
    pub subquery_preds: Vec<SubqueryPred>,
    /// Resolved against the output schema (aliases visible).
    pub having: Option<Expr>,
    /// Resolved against the output schema (aliases and ordinals visible).
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` or `alias.*`.
    Wildcard { relation: Option<String> },
    /// An expression with optional alias.
    Expr { expr: SelectExpr, alias: Option<String> },
}

/// A select-list expression: scalar or aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectExpr {
    Scalar(Expr),
    Agg {
        func: AggFunc,
        /// `None` for `COUNT(*)`.
        arg: Option<Expr>,
        distinct: bool,
    },
}

impl SelectExpr {
    /// Display name when no alias is given.
    pub fn output_name(&self) -> String {
        match self {
            SelectExpr::Scalar(e) => e.output_name(),
            SelectExpr::Agg { func, arg, .. } => match arg {
                Some(a) => format!("{}({a})", func.name()),
                None => format!("{}(*)", func.name()),
            },
        }
    }
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table or view, optionally qualified by source
    /// (`crm.customers`) and optionally aliased.
    Table {
        name: String,
        alias: Option<String>,
    },
    /// A parenthesized subquery with mandatory alias.
    Subquery {
        query: Box<SetQuery>,
        alias: String,
    },
    /// An explicit join.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

impl TableRef {
    /// The visible name of this reference (alias if present).
    pub fn visible_name(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

/// Join flavors. `Semi`/`Anti` are never written by users directly — the
/// planner produces them when desugaring `IN (SELECT ...)` / `EXISTS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
    /// Emit left rows with at least one match (output = left columns).
    Semi,
    /// Emit left rows with no match (output = left columns).
    Anti,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Cross => "CROSS JOIN",
            JoinKind::Semi => "SEMI JOIN",
            JoinKind::Anti => "ANTI JOIN",
        };
        f.write_str(s)
    }
}

/// A subquery predicate pulled out of the WHERE clause. Only allowed as a
/// top-level conjunct; the subquery must be uncorrelated.
#[derive(Debug, Clone, PartialEq)]
pub enum SubqueryPred {
    /// `expr [NOT] IN (SELECT single_column ...)`.
    ///
    /// Dialect note: `NOT IN` uses anti-join semantics — subquery NULLs do
    /// not veto rows the way standard SQL's three-valued `NOT IN` does.
    In {
        expr: Expr,
        query: SetQuery,
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)` — uncorrelated, so it acts as a global
    /// gate: all rows pass or none do.
    Exists { query: SetQuery, negated: bool },
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_query_selects_flatten_in_order() {
        let q = |n: i64| {
            SetQuery::Select(Box::new(Query {
                distinct: false,
                items: vec![SelectItem::Expr {
                    expr: SelectExpr::Scalar(Expr::lit(n)),
                    alias: None,
                }],
                from: vec![],
                filter: None,
                group_by: vec![],
                subquery_preds: vec![],
                having: None,
                order_by: vec![],
                limit: None,
            }))
        };
        let u = SetQuery::UnionAll(
            Box::new(SetQuery::UnionAll(Box::new(q(1)), Box::new(q(2)))),
            Box::new(q(3)),
        );
        assert_eq!(u.selects().len(), 3);
    }

    #[test]
    fn visible_names() {
        let t = TableRef::Table {
            name: "customers".into(),
            alias: Some("c".into()),
        };
        assert_eq!(t.visible_name(), Some("c"));
        let t = TableRef::Table {
            name: "customers".into(),
            alias: None,
        };
        assert_eq!(t.visible_name(), Some("customers"));
    }

    #[test]
    fn agg_output_name() {
        let e = SelectExpr::Agg {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        };
        assert_eq!(e.output_name(), "COUNT(*)");
    }
}
