//! The scalar expression AST.
//!
//! The same AST is produced by the SQL parser, transformed by the optimizer,
//! and — crucially for a federated system — *rendered back to SQL text* when a
//! predicate is pushed down to a remote source (`Display` produces canonical
//! SQL; per-vendor dialect rendering lives in `eii-federation`).

use std::fmt;


use eii_data::{DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
}

impl BinaryOp {
    /// True for comparison operators producing booleans from any comparable
    /// operands.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// True for AND/OR.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// True for arithmetic operators.
    pub fn is_arithmetic(self) -> bool {
        !self.is_comparison() && !self.is_logical()
    }

    /// SQL token for the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical negation (three-valued).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    Lower,
    Upper,
    Length,
    Abs,
    /// `COALESCE(a, b, ...)` — first non-null argument.
    Coalesce,
    /// `SUBSTR(s, start [, len])`, 1-based like SQL.
    Substr,
    /// `CONCAT(a, b, ...)`.
    Concat,
    /// `ROUND(x [, digits])`.
    Round,
    /// `TRIM(s)`.
    Trim,
}

impl ScalarFunc {
    /// SQL name of the function.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Length => "LENGTH",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Coalesce => "COALESCE",
            ScalarFunc::Substr => "SUBSTR",
            ScalarFunc::Concat => "CONCAT",
            ScalarFunc::Round => "ROUND",
            ScalarFunc::Trim => "TRIM",
        }
    }

    /// Look a function up by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<Self> {
        let up = name.to_ascii_uppercase();
        Some(match up.as_str() {
            "LOWER" => ScalarFunc::Lower,
            "UPPER" => ScalarFunc::Upper,
            "LENGTH" | "LEN" => ScalarFunc::Length,
            "ABS" => ScalarFunc::Abs,
            "COALESCE" => ScalarFunc::Coalesce,
            "SUBSTR" | "SUBSTRING" => ScalarFunc::Substr,
            "CONCAT" => ScalarFunc::Concat,
            "ROUND" => ScalarFunc::Round,
            "TRIM" => ScalarFunc::Trim,
            _ => return None,
        })
    }
}

/// Aggregate functions (used by the plan layer; listed here so the parser and
/// pushdown rules can reason about them alongside scalar expressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    /// `COUNT(*)`.
    CountStar,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// SQL name of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count | AggFunc::CountStar => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Look an aggregate up by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A (possibly qualified) column reference.
    Column {
        relation: Option<String>,
        name: String,
    },
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] LIKE pattern` with `%` and `_` wildcards.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `CASE WHEN c1 THEN r1 ... [ELSE e] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, to: DataType },
    /// Scalar function call.
    Func { func: ScalarFunc, args: Vec<Expr> },
}

impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            relation: None,
            name: name.into(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(relation: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            relation: Some(relation.into()),
            name: name.into(),
        }
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Build `self OP other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }

    /// `self <= other`.
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }

    /// `self >= other`.
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }

    /// True iff the expression contains no column references (it can be
    /// evaluated to a constant).
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.visit(&mut |e| {
            if matches!(e, Expr::Column { .. }) {
                constant = false;
            }
        });
        constant
    }

    /// Pre-order visit of the expression tree.
    pub fn visit<'a, F: FnMut(&'a Expr)>(&'a self, f: &mut F) {
        f(self);
        match self {
            Expr::Column { .. } | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.visit(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.visit(f);
                    r.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }

    /// Rewrite the tree bottom-up with `f` applied to every node.
    pub fn transform<F: Fn(Expr) -> Expr + Copy>(self, f: F) -> Expr {
        let rebuilt = match self {
            e @ (Expr::Column { .. } | Expr::Literal(_)) => e,
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.transform(f)),
                op,
                right: Box::new(right.transform(f)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(expr.transform(f)),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated,
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(expr.transform(f)),
                to,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.transform(f)),
                pattern: Box::new(pattern.transform(f)),
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.into_iter().map(|e| e.transform(f)).collect(),
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.transform(f)),
                low: Box::new(low.transform(f)),
                high: Box::new(high.transform(f)),
                negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, r)| (c.transform(f), r.transform(f)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.transform(f))),
            },
            Expr::Func { func, args } => Expr::Func {
                func,
                args: args.into_iter().map(|e| e.transform(f)).collect(),
            },
        };
        f(rebuilt)
    }

    /// A short display name used when the expression becomes an output
    /// column without an explicit alias.
    pub fn output_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            other => other.to_string(),
        }
    }
}

fn fmt_sql_str(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "'{}'", s.replace('\'', "''"))
}

impl fmt::Display for Expr {
    /// Canonical SQL rendering (parenthesized conservatively so the output is
    /// unambiguous when pushed to a source).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { relation, name } => match relation {
                Some(r) => write!(f, "{r}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(Value::Str(s)) => fmt_sql_str(s, f),
            Expr::Literal(Value::Null) => write!(f, "NULL"),
            Expr::Literal(Value::Bool(b)) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Func { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display() {
        let e = Expr::qcol("c", "age")
            .gt_eq(Expr::lit(18i64))
            .and(Expr::col("name").eq(Expr::lit("alice")));
        assert_eq!(e.to_string(), "((c.age >= 18) AND (name = 'alice'))");
    }

    #[test]
    fn string_literals_escape_quotes() {
        let e = Expr::lit("o'brien");
        assert_eq!(e.to_string(), "'o''brien'");
    }

    #[test]
    fn is_constant_detects_columns() {
        assert!(Expr::lit(1i64).binary(BinaryOp::Plus, Expr::lit(2i64)).is_constant());
        assert!(!Expr::col("x").eq(Expr::lit(1i64)).is_constant());
    }

    #[test]
    fn transform_rewrites_columns() {
        let e = Expr::col("a").eq(Expr::col("b"));
        let renamed = e.transform(|node| match node {
            Expr::Column { relation, name } => Expr::Column {
                relation,
                name: format!("{name}_renamed"),
            },
            other => other,
        });
        assert_eq!(renamed.to_string(), "(a_renamed = b_renamed)");
    }

    #[test]
    fn visit_counts_nodes() {
        let e = Expr::col("a").eq(Expr::lit(1i64)).and(Expr::col("b").not());
        let mut n = 0;
        e.visit(&mut |_| n += 1);
        assert_eq!(n, 6);
    }

    #[test]
    fn func_lookup_is_case_insensitive() {
        assert_eq!(ScalarFunc::from_name("lower"), Some(ScalarFunc::Lower));
        assert_eq!(ScalarFunc::from_name("SUBSTRING"), Some(ScalarFunc::Substr));
        assert_eq!(ScalarFunc::from_name("nope"), None);
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
    }

    #[test]
    fn case_displays() {
        let e = Expr::Case {
            branches: vec![(Expr::col("x").gt(Expr::lit(0i64)), Expr::lit("pos"))],
            else_expr: Some(Box::new(Expr::lit("neg"))),
        };
        assert_eq!(e.to_string(), "CASE WHEN (x > 0) THEN 'pos' ELSE 'neg' END");
    }
}
