//! Binding of expressions, and the per-value operator table.
//!
//! [`bind`] resolves column names against a [`Schema`] once, producing a
//! [`BoundExpr`] whose column references are positional — evaluation in the
//! executor's inner loop then never touches name resolution. The kernels
//! ([`crate::vector`]) evaluate it; what they do one [`Value`] at a time —
//! an untyped column, a pairing no typed loop covers — goes through the
//! operators here: SQL three-valued logic (comparisons with NULL yield NULL,
//! AND/OR follow Kleene semantics), arithmetic, NOT and negation, LIKE and
//! CAST. The scalar tree walker the kernels are tested against
//! (`tests/support/oracle.rs`) uses the same table.

use eii_data::{DataType, EiiError, Result, Schema, Value};

use crate::ast::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::functions::like_match;
use crate::vector::Arith;

/// An expression whose column references have been resolved to positions.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Column(usize),
    Literal(Value),
    Binary {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Case {
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
    Cast {
        expr: Box<BoundExpr>,
        to: DataType,
    },
    Func {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
    },
}

/// Resolve every column reference in `expr` against `schema`.
pub fn bind(expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Column { relation, name } => {
            BoundExpr::Column(schema.index_of(relation.as_deref(), name)?)
        }
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(bind(left, schema)?),
            op: *op,
            right: Box::new(bind(right, schema)?),
        },
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, schema)?),
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind(expr, schema)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(bind(expr, schema)?),
            pattern: Box::new(bind(pattern, schema)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind(expr, schema)?),
            list: list
                .iter()
                .map(|e| bind(e, schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(bind(expr, schema)?),
            low: Box::new(bind(low, schema)?),
            high: Box::new(bind(high, schema)?),
            negated: *negated,
        },
        Expr::Case {
            branches,
            else_expr,
        } => BoundExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((bind(c, schema)?, bind(r, schema)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind(e, schema)?)),
                None => None,
            },
        },
        Expr::Cast { expr, to } => BoundExpr::Cast {
            expr: Box::new(bind(expr, schema)?),
            to: *to,
        },
        Expr::Func { func, args } => BoundExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|e| bind(e, schema))
                .collect::<Result<_>>()?,
        },
    })
}

/// Kleene AND of two values, the right one already evaluated.
pub fn eval_and(l: &Value, r: &Value) -> Result<Value> {
    Ok(match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ if l.is_null() || r.is_null() => Value::Null,
        _ => return Err(EiiError::Type("AND expects boolean operands".into())),
    })
}

/// Kleene OR of two values, the right one already evaluated.
pub fn eval_or(l: &Value, r: &Value) -> Result<Value> {
    Ok(match (l.as_bool(), r.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ if l.is_null() || r.is_null() => Value::Null,
        _ => return Err(EiiError::Type("OR expects boolean operands".into())),
    })
}

/// Evaluate a non-logical binary operator with SQL NULL propagation.
pub fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    if op.is_comparison() {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        let ord = l.cmp(r);
        let b = match op {
            BinaryOp::Eq => ord.is_eq(),
            BinaryOp::NotEq => !ord.is_eq(),
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::LtEq => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            BinaryOp::GtEq => ord.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Arithmetic. Int op Int stays Int; anything involving Float widens.
    match (l, r) {
        (&Value::Int(a), &Value::Int(b)) => arith(a, op, b).map(Value::Int),
        _ => {
            let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
                if let (Value::Str(a), Value::Str(b), BinaryOp::Plus) = (l, r, op) {
                    return Ok(Value::str(format!("{a}{b}")));
                }
                return Err(EiiError::Type(format!(
                    "arithmetic {} on non-numeric operands {l} and {r}",
                    op.sql()
                )));
            };
            arith(a, op, b).map(Value::Float)
        }
    }
}

/// `a <op> b` in `T`, the kernels' [`Arith`] table: a zero divisor is an
/// error.
fn arith<T: Arith>(a: T, op: BinaryOp, b: T) -> Result<T> {
    if b == T::ZERO && matches!(op, BinaryOp::Divide | BinaryOp::Modulo) {
        return Err(EiiError::Execution("division by zero".into()));
    }
    Ok(match op {
        BinaryOp::Plus => a.add(b),
        BinaryOp::Minus => a.sub(b),
        BinaryOp::Multiply => a.mul(b),
        BinaryOp::Divide => a.div(b),
        BinaryOp::Modulo => a.rem(b),
        _ => unreachable!(),
    })
}

/// NOT or negation of a value: NULL stays NULL, `i64` negation wraps.
pub fn eval_unary(op: UnaryOp, v: &Value) -> Result<Value> {
    Ok(match (op, v) {
        (_, Value::Null) => Value::Null,
        (UnaryOp::Not, Value::Bool(b)) => Value::Bool(!b),
        (UnaryOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
        (UnaryOp::Neg, Value::Float(f)) => Value::Float(-f),
        (UnaryOp::Not, other) => return Err(EiiError::Type(format!("NOT applied to {other}"))),
        (UnaryOp::Neg, other) => return Err(EiiError::Type(format!("negation applied to {other}"))),
    })
}

/// `v [NOT] LIKE p`: NULL when either is NULL, else both must be strings.
pub fn eval_like(v: &Value, p: &Value, negated: bool) -> Result<Value> {
    if v.is_null() || p.is_null() {
        return Ok(Value::Null);
    }
    let (Some(text), Some(pat)) = (v.as_str(), p.as_str()) else {
        return Err(EiiError::Type("LIKE expects string operands".into()));
    };
    Ok(Value::Bool(like_match(text, pat) != negated))
}

/// `CAST(v AS to)`; NULL casts to NULL.
pub fn eval_cast(v: &Value, to: DataType) -> Result<Value> {
    v.cast(to).ok_or_else(|| EiiError::Type(format!("cannot cast {v} to {to}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::vector::{eval_column, eval_filter};
    use eii_data::{row, Batch, ColumnarBatch, Field, Row};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
    }

    /// `e` over the one row `r`, through the kernels.
    fn try_eval(e: &Expr, r: &Row) -> Result<Value> {
        let batch = ColumnarBatch::from_batch(&Batch::new(Arc::new(schema()), vec![r.clone()]));
        Ok(eval_column(&bind(e, &schema())?, &batch)?.value(0))
    }

    fn eval(e: &Expr, r: &Row) -> Value {
        try_eval(e, r).unwrap()
    }

    #[test]
    fn column_and_arithmetic() {
        let r = row![10i64, "x", 2.5];
        let e = Expr::col("a").binary(BinaryOp::Plus, Expr::lit(5i64));
        assert_eq!(eval(&e, &r), Value::Int(15));
        let e = Expr::col("a").binary(BinaryOp::Multiply, Expr::col("c"));
        assert_eq!(eval(&e, &r), Value::Float(25.0));
    }

    #[test]
    fn null_propagates_through_comparison() {
        let r = Row::new(vec![Value::Null, Value::str("x"), Value::Float(1.0)]);
        let e = Expr::col("a").eq(Expr::lit(1i64));
        assert_eq!(eval(&e, &r), Value::Null);
        let batch = ColumnarBatch::from_batch(&Batch::new(Arc::new(schema()), vec![r]));
        assert!(eval_filter(&bind(&e, &schema()).unwrap(), &batch).unwrap().is_empty());
    }

    #[test]
    fn kleene_and_or() {
        let r = Row::new(vec![Value::Null, Value::str("x"), Value::Float(1.0)]);
        // NULL AND FALSE = FALSE
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::lit(false));
        assert_eq!(eval(&e, &r), Value::Bool(false));
        // NULL OR TRUE = TRUE
        let e = Expr::col("a").eq(Expr::lit(1i64)).or(Expr::lit(true));
        assert_eq!(eval(&e, &r), Value::Bool(true));
        // NULL AND TRUE = NULL
        let e = Expr::col("a").eq(Expr::lit(1i64)).and(Expr::lit(true));
        assert_eq!(eval(&e, &r), Value::Null);
    }

    #[test]
    fn in_list_with_null_semantics() {
        let r = row![2i64, "x", 0.0];
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::lit(2i64)],
            negated: false,
        };
        assert_eq!(eval(&e, &r), Value::Bool(true));
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(eval(&e, &r), Value::Null, "no match + NULL in list is NULL");
    }

    #[test]
    fn between_and_like() {
        let r = row![5i64, "hello world", 0.0];
        let e = Expr::Between {
            expr: Box::new(Expr::col("a")),
            low: Box::new(Expr::lit(1i64)),
            high: Box::new(Expr::lit(10i64)),
            negated: false,
        };
        assert_eq!(eval(&e, &r), Value::Bool(true));
        let e = Expr::Like {
            expr: Box::new(Expr::col("b")),
            pattern: Box::new(Expr::lit("hello%")),
            negated: false,
        };
        assert_eq!(eval(&e, &r), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_is_execution_error() {
        let r = row![1i64, "x", 0.0];
        let e = Expr::col("a").binary(BinaryOp::Divide, Expr::lit(0i64));
        let err = try_eval(&e, &r).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn case_expression() {
        let r = row![5i64, "x", 0.0];
        let e = Expr::Case {
            branches: vec![
                (Expr::col("a").lt(Expr::lit(0i64)), Expr::lit("neg")),
                (Expr::col("a").eq(Expr::lit(5i64)), Expr::lit("five")),
            ],
            else_expr: None,
        };
        assert_eq!(eval(&e, &r), Value::str("five"));
        let r0 = row![1i64, "x", 0.0];
        assert_eq!(eval(&e, &r0), Value::Null, "no ELSE yields NULL");
    }

    #[test]
    fn cast_in_expression() {
        let r = row![5i64, "37", 0.0];
        let e = Expr::Cast {
            expr: Box::new(Expr::col("b")),
            to: DataType::Int,
        };
        assert_eq!(eval(&e, &r), Value::Int(37));
    }

    #[test]
    fn binding_unknown_column_fails() {
        let e = Expr::col("zzz");
        assert_eq!(bind(&e, &schema()).unwrap_err().kind(), "not_found");
    }

    #[test]
    fn string_concat_with_plus() {
        let r = row![1i64, "ab", 0.0];
        let e = Expr::col("b").binary(BinaryOp::Plus, Expr::lit("cd"));
        assert_eq!(eval(&e, &r), Value::str("abcd"));
    }

    proptest! {
        #[test]
        fn comparison_agrees_with_native(a in -1000i64..1000, b in -1000i64..1000) {
            let r = row![a, "x", 0.0];
            let e = Expr::col("a").lt(Expr::lit(b));
            prop_assert_eq!(eval(&e, &r), Value::Bool(a < b));
        }

        #[test]
        fn arithmetic_agrees_with_native(a in -10_000i64..10_000, b in 1i64..10_000) {
            let r = row![a, "x", 0.0];
            for (op, want) in [
                (BinaryOp::Plus, a + b),
                (BinaryOp::Minus, a - b),
                (BinaryOp::Multiply, a * b),
                (BinaryOp::Divide, a / b),
                (BinaryOp::Modulo, a % b),
            ] {
                let e = Expr::col("a").binary(op, Expr::lit(b));
                prop_assert_eq!(eval(&e, &r), Value::Int(want));
            }
        }

        #[test]
        fn not_not_is_identity(a in any::<bool>()) {
            let r = row![1i64, "x", 0.0];
            let e = Expr::lit(a).not().not();
            prop_assert_eq!(eval(&e, &r), Value::Bool(a));
        }
    }
}
