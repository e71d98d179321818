//! The scalar evaluator: a [`BoundExpr`] walked over one [`Row`], the oracle
//! the kernels (`eii_expr::eval_column`, `eii_expr::eval_filter`) and the
//! reference evaluator are checked against. No program code calls it.
//!
//! It shares with the kernels only the per-value operator table
//! (`eii_expr::eval`: `eval_binary`, `eval_and`, `eval_or`, `eval_unary`,
//! `eval_like`, `eval_cast`; `eval_scalar`). Which subexpressions a row
//! reaches, and in which order, is its own: AND/OR stop at a deciding left
//! side, CASE at the first WHEN that holds, IN at the first item equal to
//! the operand — so a failing subexpression a row never reaches is no error.
//!
//! A suite includes this file by path — `#[path = ".."] mod oracle;` — and
//! calls `.eval(row)` and `.eval_predicate(row)` with [`Oracle`] in scope.
//! Inside `eii-expr` itself, `eii_expr` names the crate through an
//! `extern crate self` in its test build.

// Not every suite reads every item.
#![allow(dead_code)]

use eii_data::{Result, Row, Value};
use eii_expr::ast::BinaryOp;
use eii_expr::eval::{eval_and, eval_binary, eval_cast, eval_like, eval_or, eval_unary};
use eii_expr::functions::eval_scalar;
use eii_expr::BoundExpr;

/// A [`BoundExpr`] evaluated one row at a time.
pub trait Oracle {
    /// The expression's value on `row`, or its first error.
    fn eval(&self, row: &Row) -> Result<Value>;

    /// As a predicate: true iff the value is `Bool(true)` (NULL and false
    /// both reject, per SQL WHERE semantics).
    fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)?.is_true())
    }
}

impl Oracle for BoundExpr {
    fn eval(&self, row: &Row) -> Result<Value> {
        Ok(match self {
            BoundExpr::Column(i) => row.get(*i).clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Binary { left, op: BinaryOp::And, right } => {
                let l = left.eval(row)?;
                if l == Value::Bool(false) {
                    return Ok(l);
                }
                eval_and(&l, &right.eval(row)?)?
            }
            BoundExpr::Binary { left, op: BinaryOp::Or, right } => {
                let l = left.eval(row)?;
                if l == Value::Bool(true) {
                    return Ok(l);
                }
                eval_or(&l, &right.eval(row)?)?
            }
            BoundExpr::Binary { left, op, right } => {
                let l = left.eval(row)?;
                eval_binary(&l, *op, &right.eval(row)?)?
            }
            BoundExpr::Unary { op, expr } => eval_unary(*op, &expr.eval(row)?)?,
            BoundExpr::IsNull { expr, negated } => Value::Bool(expr.eval(row)?.is_null() != *negated),
            BoundExpr::Like { expr, pattern, negated } => {
                let v = expr.eval(row)?;
                eval_like(&v, &pattern.eval(row)?, *negated)?
            }
            BoundExpr::InList { expr, list, negated } => {
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
                // SQL: x IN (..., NULL) is NULL when no item matched.
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            BoundExpr::Between { expr, low, high, negated } => {
                let (v, lo, hi) = (expr.eval(row)?, low.eval(row)?, high.eval(row)?);
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                Value::Bool((lo <= v && v <= hi) != *negated)
            }
            BoundExpr::Case { branches, else_expr } => {
                for (when, then) in branches {
                    if when.eval(row)?.is_true() {
                        return then.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row)?,
                    None => Value::Null,
                }
            }
            BoundExpr::Cast { expr, to } => eval_cast(&expr.eval(row)?, *to)?,
            BoundExpr::Func { func, args } => {
                let vals = args.iter().map(|a| a.eval(row)).collect::<Result<Vec<_>>>()?;
                eval_scalar(*func, &vals)?
            }
        })
    }
}
