//! Binding and evaluation of expressions against rows.
//!
//! [`bind`] resolves column names against a [`Schema`] once, producing a
//! [`BoundExpr`] whose column references are positional — evaluation in the
//! executor's inner loop then never touches name resolution. Evaluation
//! implements SQL three-valued logic: comparisons with NULL yield NULL, and
//! AND/OR follow Kleene semantics.

use eii_data::{DataType, EiiError, Result, Row, Schema, Value};

use crate::ast::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::functions::{eval_scalar, like_match};
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

impl BoundExpr {
    /// Evaluate against a row, producing a [`Value`].
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            BoundExpr::Column(i) => Ok(row.get(*i).clone()),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { left, op, right } => {
                // Kleene short-circuit for AND/OR must inspect both sides'
                // nullness, so evaluate lazily only where safe.
                match op {
                    BinaryOp::And => {
                        let l = left.eval(row)?;
                        if l == Value::Bool(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval(row)?;
                        eval_and(&l, &r)
                    }
                    BinaryOp::Or => {
                        let l = left.eval(row)?;
                        if l == Value::Bool(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval(row)?;
                        eval_or(&l, &r)
                    }
                    _ => {
                        let l = left.eval(row)?;
                        let r = right.eval(row)?;
                        eval_binary(&l, *op, &r)
                    }
                }
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Not => Ok(match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(EiiError::Type(format!("NOT applied to {other}")));
                        }
                    }),
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(EiiError::Type(format!("negation applied to {other}"))),
                    },
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let (Some(text), Some(pat)) = (v.as_str(), p.as_str()) else {
                    return Err(EiiError::Type("LIKE expects string operands".into()));
                };
                Ok(Value::Bool(like_match(text, pat) != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv == v {
                        return Ok(Value::Bool(!negated));
                    }
                }
                // SQL: x IN (..., NULL) is NULL when no match was found.
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = lo <= v && v <= hi;
                Ok(Value::Bool(inside != *negated))
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    if cond.eval(row)?.is_true() {
                        return result.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::Cast { expr, to } => {
                let v = expr.eval(row)?;
                v.cast(*to)
                    .ok_or_else(|| EiiError::Type(format!("cannot cast {v} to {to}")))
            }
            BoundExpr::Func { func, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row))
                    .collect::<Result<_>>()?;
                eval_scalar(*func, &vals)
            }
        }
    }

    /// Evaluate as a predicate: true iff the result is `Bool(true)`
    /// (NULL and false both reject, per SQL WHERE semantics).
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)?.is_true())
    }
}

pub(crate) fn eval_and(l: &Value, r: &Value) -> Result<Value> {
    Ok(match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ if l.is_null() || r.is_null() => Value::Null,
        _ => return Err(EiiError::Type("AND expects boolean operands".into())),
    })
}

pub(crate) fn eval_or(l: &Value, r: &Value) -> Result<Value> {
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
    // Arithmetic. Int op Int stays Int (except division by zero handling);
    // anything involving Float widens.
    match (l, r) {
        (&Value::Int(a), &Value::Int(b)) => {
            if b == 0 && matches!(op, BinaryOp::Divide | BinaryOp::Modulo) {
                return Err(EiiError::Execution("division by zero".into()));
            }
            let v = match op {
                BinaryOp::Plus => Arith::add(a, b),
                BinaryOp::Minus => Arith::sub(a, b),
                BinaryOp::Multiply => Arith::mul(a, b),
                BinaryOp::Divide => Arith::div(a, b),
                BinaryOp::Modulo => Arith::rem(a, b),
                _ => unreachable!(),
            };
            Ok(Value::Int(v))
        }
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
            let v = match op {
                BinaryOp::Plus => a + b,
                BinaryOp::Minus => a - b,
                BinaryOp::Multiply => a * b,
                BinaryOp::Divide => {
                    if b == 0.0 {
                        return Err(EiiError::Execution("division by zero".into()));
                    }
                    a / b
                }
                BinaryOp::Modulo => {
                    if b == 0.0 {
                        return Err(EiiError::Execution("division by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use eii_data::{row, Field};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
    }

    fn eval(e: &Expr, r: &Row) -> Value {
        bind(e, &schema()).unwrap().eval(r).unwrap()
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
        assert!(!bind(&e, &schema()).unwrap().eval_predicate(&r).unwrap());
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
        let err = bind(&e, &schema()).unwrap().eval(&r).unwrap_err();
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
