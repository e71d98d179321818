//! Vectorized expression kernels: evaluate a [`BoundExpr`] over a whole
//! [`ColumnarBatch`] at once instead of row-at-a-time.
//!
//! The contract with the scalar path is *exact semantic equivalence*: for any
//! expression and any batch, [`eval_column`] must produce, position by
//! position, the same [`Value`]s (and the same errors) as calling
//! [`BoundExpr::eval`] on each materialized row. The kernel proptests below
//! and the reference-evaluator proptest (`tests/reference.rs`) hold this
//! line. Four rules keep it honest:
//!
//! - **NULL propagation and Kleene AND/OR** are re-implemented over columns,
//!   but AND/OR evaluate their right side only on the *sub-selection* of rows
//!   the scalar path would have reached (short-circuiting is observable:
//!   a row the scalar path skips must not be able to raise an error here);
//! - **type-specialized fast paths** (Int/Float/Str comparisons, Int and
//!   Float arithmetic) fall back to the scalar kernels of
//!   [`crate::eval::eval_binary`] element-wise whenever operand columns are
//!   not cleanly typed, so `Mixed` columns cost speed, never correctness;
//! - operators with row-dependent control flow (`CASE`, `IN` with non-literal
//!   list items) materialize rows and delegate to the scalar evaluator;
//! - **error identity**: column-at-a-time order can trip over a different
//!   failing row than the scalar path when distinct rows fail in distinct
//!   subexpressions, so on any kernel error [`eval_column`] re-runs the
//!   expression row-at-a-time and reports the scalar path's first error.

// The kernel loops below walk several parallel structures in lockstep by
// index (output vector, null bitmap, one or more operand columns, and for
// Kleene AND/OR a separate cursor into a sub-selected right-hand side);
// iterator rewrites would obscure that alignment.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use eii_data::columnar::{Column, ColumnData, ColumnarBatch, NullBitmap};
use eii_data::value::cmp_int_float;
use eii_data::{EiiError, Result, Value};

use crate::ast::{BinaryOp, UnaryOp};
use crate::eval::{eval_and, eval_binary, eval_or, BoundExpr};
use crate::functions::{eval_scalar, like_match};

/// Evaluate `expr` for every live row of `batch`, producing a compact column
/// whose position `k` holds the value for logical row `k`.
pub fn eval_column(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Arc<Column>> {
    match eval_column_typed(expr, batch) {
        Ok(c) => Ok(c),
        // The kernels evaluate column-at-a-time (all of the left operand,
        // then all of the right), so when different rows fail in different
        // subexpressions the first error they hit can differ from the one
        // the scalar path reports. Re-running row-at-a-time surfaces exactly
        // the scalar path's first error — and, defensively, the scalar
        // result should only the kernel have erred.
        Err(_) => eval_by_rows(expr, batch),
    }
}

/// The typed kernel dispatch behind [`eval_column`]; may surface errors in a
/// different order than the scalar path (the wrapper reconciles that).
fn eval_column_typed(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Arc<Column>> {
    let n = batch.num_rows();
    match expr {
        BoundExpr::Column(i) => Ok(match batch.selection() {
            None => Arc::clone(batch.column(*i)),
            Some(sel) => Arc::new(batch.column(*i).gather(sel)),
        }),
        BoundExpr::Literal(v) => Ok(Arc::new(Column::broadcast(v, n))),
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::And => eval_logical(left, right, batch, true),
            BinaryOp::Or => eval_logical(left, right, batch, false),
            _ => {
                let l = eval_column(left, batch)?;
                let r = eval_column(right, batch)?;
                if op.is_comparison() {
                    Ok(Arc::new(cmp_kernel(&l, *op, &r, n)))
                } else {
                    Ok(Arc::new(arith_kernel(&l, *op, &r, n)?))
                }
            }
        },
        BoundExpr::Unary { op, expr } => {
            let c = eval_column(expr, batch)?;
            let vals = (0..n)
                .map(|i| {
                    let v = c.value(i);
                    match op {
                        UnaryOp::Not => match v {
                            Value::Null => Ok(Value::Null),
                            Value::Bool(b) => Ok(Value::Bool(!b)),
                            other => Err(EiiError::Type(format!("NOT applied to {other}"))),
                        },
                        UnaryOp::Neg => match v {
                            Value::Null => Ok(Value::Null),
                            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                            Value::Float(f) => Ok(Value::Float(-f)),
                            other => {
                                Err(EiiError::Type(format!("negation applied to {other}")))
                            }
                        },
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(Arc::new(from_values_auto(&vals)))
        }
        BoundExpr::IsNull { expr, negated } => {
            let c = eval_column(expr, batch)?;
            let out: Vec<bool> = (0..n).map(|i| c.is_null(i) != *negated).collect();
            Ok(Arc::new(Column::new(ColumnData::Bool(out), None)))
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let c = eval_column(expr, batch)?;
            let p = eval_column(pattern, batch)?;
            let mut out = vec![false; n];
            let mut nulls = NullBitmap::new_valid(n);
            let mut any_null = false;
            for i in 0..n {
                if c.is_null(i) || p.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                    continue;
                }
                let (v, pv) = (c.value(i), p.value(i));
                let (Some(text), Some(pat)) = (v.as_str(), pv.as_str()) else {
                    return Err(EiiError::Type("LIKE expects string operands".into()));
                };
                out[i] = like_match(text, pat) != *negated;
            }
            Ok(Arc::new(Column::new(
                ColumnData::Bool(out),
                any_null.then_some(nulls),
            )))
        }
        BoundExpr::InList {
            expr: inner,
            list,
            negated,
        } => {
            // Scalar IN short-circuits across list items per row; with
            // non-literal items a skipped item could otherwise error here.
            if !list.iter().all(|e| matches!(e, BoundExpr::Literal(_))) {
                return eval_by_rows(expr, batch);
            }
            let c = eval_column(inner, batch)?;
            let items: Vec<Value> = list
                .iter()
                .map(|e| match e {
                    BoundExpr::Literal(v) => v.clone(),
                    _ => unreachable!("checked above"),
                })
                .collect();
            let saw_null = items.iter().any(Value::is_null);
            let mut out = vec![false; n];
            let mut nulls = NullBitmap::new_valid(n);
            let mut any_null = false;
            for i in 0..n {
                if c.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                    continue;
                }
                let v = c.value(i);
                if items.iter().any(|item| !item.is_null() && *item == v) {
                    out[i] = !*negated;
                } else if saw_null {
                    nulls.set_null(i);
                    any_null = true;
                } else {
                    out[i] = *negated;
                }
            }
            Ok(Arc::new(Column::new(
                ColumnData::Bool(out),
                any_null.then_some(nulls),
            )))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let c = eval_column(expr, batch)?;
            let lo = eval_column(low, batch)?;
            let hi = eval_column(high, batch)?;
            let mut out = vec![false; n];
            let mut nulls = NullBitmap::new_valid(n);
            let mut any_null = false;
            for i in 0..n {
                if c.is_null(i) || lo.is_null(i) || hi.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                    continue;
                }
                let (v, l, h) = (c.value(i), lo.value(i), hi.value(i));
                out[i] = (l <= v && v <= h) != *negated;
            }
            Ok(Arc::new(Column::new(
                ColumnData::Bool(out),
                any_null.then_some(nulls),
            )))
        }
        // CASE has per-row control flow (later branches must not be
        // evaluated once one matches); delegate to the scalar evaluator.
        BoundExpr::Case { .. } => eval_by_rows(expr, batch),
        BoundExpr::Cast { expr, to } => {
            let c = eval_column(expr, batch)?;
            let vals = (0..n)
                .map(|i| {
                    let v = c.value(i);
                    v.cast(*to)
                        .ok_or_else(|| EiiError::Type(format!("cannot cast {v} to {to}")))
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(Arc::new(from_values_auto(&vals)))
        }
        BoundExpr::Func { func, args } => {
            let cols = args
                .iter()
                .map(|a| eval_column(a, batch))
                .collect::<Result<Vec<_>>>()?;
            let mut scratch = Vec::with_capacity(cols.len());
            let vals = (0..n)
                .map(|i| {
                    scratch.clear();
                    scratch.extend(cols.iter().map(|c| c.value(i)));
                    eval_scalar(*func, &scratch)
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(Arc::new(from_values_auto(&vals)))
        }
    }
}

/// Evaluate a predicate over the batch, returning the logical indices of rows
/// where it is `Bool(true)` (NULL and false both reject, per SQL WHERE).
pub fn eval_filter(pred: &BoundExpr, batch: &ColumnarBatch) -> Result<Vec<u32>> {
    let c = eval_column(pred, batch)?;
    let n = batch.num_rows();
    let mut keep = Vec::new();
    match c.data() {
        ColumnData::Bool(v) => match c.nulls() {
            None => {
                for (i, &b) in v.iter().enumerate().take(n) {
                    if b {
                        keep.push(i as u32);
                    }
                }
            }
            Some(nulls) => {
                for (i, &b) in v.iter().enumerate().take(n) {
                    if b && !nulls.is_null(i) {
                        keep.push(i as u32);
                    }
                }
            }
        },
        _ => {
            for i in 0..n {
                if c.value(i).is_true() {
                    keep.push(i as u32);
                }
            }
        }
    }
    Ok(keep)
}

/// Row-materializing fallback: semantically the scalar path by construction.
fn eval_by_rows(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Arc<Column>> {
    let vals = (0..batch.num_rows())
        .map(|i| expr.eval(&batch.row(i)))
        .collect::<Result<Vec<_>>>()?;
    Ok(Arc::new(from_values_auto(&vals)))
}

/// Kleene AND/OR with observable short-circuiting: the right side is
/// evaluated only over the sub-selection of rows whose left value does not
/// already decide the result, mirroring the scalar path's lazy `eval`.
fn eval_logical(
    left: &BoundExpr,
    right: &BoundExpr,
    batch: &ColumnarBatch,
    is_and: bool,
) -> Result<Arc<Column>> {
    let n = batch.num_rows();
    let l = eval_column(left, batch)?;
    let decided = |i: usize| -> bool {
        !l.is_null(i)
            && match l.value(i) {
                Value::Bool(b) => b != is_and,
                _ => false,
            }
    };
    let need: Vec<u32> = (0..n as u32).filter(|&i| !decided(i as usize)).collect();
    let r = if need.is_empty() {
        None
    } else if need.len() == n {
        Some(eval_column(right, batch)?)
    } else {
        Some(eval_column(right, &batch.select(need.clone()))?)
    };
    let mut out = vec![false; n];
    let mut nulls = NullBitmap::new_valid(n);
    let mut any_null = false;
    let mut k = 0usize;
    for i in 0..n {
        if decided(i) {
            out[i] = !is_and;
            continue;
        }
        let rv = r.as_ref().expect("undecided row implies rhs").value(k);
        k += 1;
        let lv = l.value(i);
        let merged = if is_and {
            eval_and(&lv, &rv)?
        } else {
            eval_or(&lv, &rv)?
        };
        match merged {
            Value::Bool(b) => out[i] = b,
            Value::Null => {
                nulls.set_null(i);
                any_null = true;
            }
            other => unreachable!("AND/OR produced {other}"),
        }
    }
    Ok(Arc::new(Column::new(
        ColumnData::Bool(out),
        any_null.then_some(nulls),
    )))
}

fn cmp_ord(ord: std::cmp::Ordering, op: BinaryOp) -> bool {
    match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => !ord.is_eq(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("comparison op"),
    }
}

/// Comparison kernel: NULL on either side propagates, otherwise total-order
/// compare. Typed fast paths mirror `Value::cmp` exactly (Int/Float
/// cross-compare through `cmp_int_float`).
fn cmp_kernel(l: &Column, op: BinaryOp, r: &Column, n: usize) -> Column {
    let mut out = vec![false; n];
    let mut nulls = NullBitmap::new_valid(n);
    let mut any_null = false;
    macro_rules! typed {
        ($a:expr, $b:expr, $cmp:expr) => {{
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                } else {
                    #[allow(clippy::redundant_closure_call)]
                    {
                        out[i] = cmp_ord($cmp(&$a[i], &$b[i]), op);
                    }
                }
            }
        }};
    }
    match (l.data(), r.data()) {
        (ColumnData::Int(a), ColumnData::Int(b)) => typed!(a, b, |x: &i64, y: &i64| x.cmp(y)),
        (ColumnData::Float(a), ColumnData::Float(b)) => {
            typed!(a, b, |x: &f64, y: &f64| x.total_cmp(y))
        }
        (ColumnData::Int(a), ColumnData::Float(b)) => {
            typed!(a, b, |x: &i64, y: &f64| cmp_int_float(*x, *y))
        }
        (ColumnData::Float(a), ColumnData::Int(b)) => {
            typed!(a, b, |x: &f64, y: &i64| cmp_int_float(*y, *x).reverse())
        }
        (ColumnData::Str(a), ColumnData::Str(b)) => {
            typed!(a, b, |x: &Arc<str>, y: &Arc<str>| x.cmp(y))
        }
        (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => {
            typed!(a, b, |x: &i64, y: &i64| x.cmp(y))
        }
        _ => {
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                } else {
                    out[i] = cmp_ord(l.value(i).cmp(&r.value(i)), op);
                }
            }
        }
    }
    Column::new(ColumnData::Bool(out), any_null.then_some(nulls))
}

/// Arithmetic kernel with the scalar path's widening rules: Int op Int stays
/// Int (wrapping, zero-divide errors), any Float widens to f64, Str + Str
/// concatenates; everything else defers to `eval_binary` element-wise.
fn arith_kernel(l: &Column, op: BinaryOp, r: &Column, n: usize) -> Result<Column> {
    match (l.data(), r.data()) {
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            let mut out = vec![0i64; n];
            let mut nulls = NullBitmap::new_valid(n);
            let mut any_null = false;
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                    continue;
                }
                let (x, y) = (a[i], b[i]);
                out[i] = match op {
                    BinaryOp::Plus => x.wrapping_add(y),
                    BinaryOp::Minus => x.wrapping_sub(y),
                    BinaryOp::Multiply => x.wrapping_mul(y),
                    BinaryOp::Divide | BinaryOp::Modulo => {
                        if y == 0 {
                            return Err(EiiError::Execution("division by zero".into()));
                        }
                        if matches!(op, BinaryOp::Divide) {
                            x.wrapping_div(y)
                        } else {
                            x.wrapping_rem(y)
                        }
                    }
                    _ => unreachable!("arithmetic op"),
                };
            }
            Ok(Column::new(
                ColumnData::Int(out),
                any_null.then_some(nulls),
            ))
        }
        (ColumnData::Int(_) | ColumnData::Float(_), ColumnData::Int(_) | ColumnData::Float(_)) => {
            let at = |c: &Column, i: usize| -> f64 {
                match c.data() {
                    ColumnData::Int(v) => v[i] as f64,
                    ColumnData::Float(v) => v[i],
                    _ => unreachable!("numeric checked"),
                }
            };
            let mut out = vec![0f64; n];
            let mut nulls = NullBitmap::new_valid(n);
            let mut any_null = false;
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    nulls.set_null(i);
                    any_null = true;
                    continue;
                }
                let (x, y) = (at(l, i), at(r, i));
                out[i] = match op {
                    BinaryOp::Plus => x + y,
                    BinaryOp::Minus => x - y,
                    BinaryOp::Multiply => x * y,
                    BinaryOp::Divide | BinaryOp::Modulo => {
                        if y == 0.0 {
                            return Err(EiiError::Execution("division by zero".into()));
                        }
                        if matches!(op, BinaryOp::Divide) {
                            x / y
                        } else {
                            x % y
                        }
                    }
                    _ => unreachable!("arithmetic op"),
                };
            }
            Ok(Column::new(
                ColumnData::Float(out),
                any_null.then_some(nulls),
            ))
        }
        _ => {
            let vals = (0..n)
                .map(|i| {
                    let (lv, rv) = (l.value(i), r.value(i));
                    if lv.is_null() || rv.is_null() {
                        return Ok(Value::Null);
                    }
                    eval_binary(&lv, op, &rv)
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(from_values_auto(&vals))
        }
    }
}

/// Build a column from computed values, picking a typed layout when the
/// non-null values share one variant (Mixed otherwise).
fn from_values_auto(values: &[Value]) -> Column {
    let mut ty = None;
    for v in values {
        if let Some(t) = v.data_type() {
            match ty {
                None => ty = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => {
                    return Column::new(ColumnData::Mixed(values.to_vec()), None);
                }
            }
        }
    }
    match ty {
        Some(t) => Column::from_values(values, t),
        // All NULL (or empty): an Int vector under an all-null bitmap.
        None => Column::broadcast(&Value::Null, values.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::eval::bind;
    use eii_data::{row, Batch, DataType, Field, Row, Schema};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
    }

    fn batch(rows: Vec<Row>) -> ColumnarBatch {
        ColumnarBatch::from_batch(&Batch::new(Arc::new(schema()), rows))
    }

    /// Assert vectorized == scalar, value by value (or both error).
    fn check(e: &Expr, rows: Vec<Row>) {
        let bound = bind(e, &schema()).unwrap();
        let cb = batch(rows.clone());
        let vec_result = eval_column(&bound, &cb);
        let row_results: Vec<Result<Value>> = rows.iter().map(|r| bound.eval(r)).collect();
        match vec_result {
            Ok(col) => {
                for (i, rr) in row_results.iter().enumerate() {
                    assert_eq!(col.value(i), *rr.as_ref().unwrap(), "row {i} for {e:?}");
                }
            }
            Err(ve) => {
                let re = row_results
                    .into_iter()
                    .find_map(Result::err)
                    .expect("scalar path should also error");
                assert_eq!(ve.kind(), re.kind());
            }
        }
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            row![10i64, "alpha", 1.5f64],
            Row::new(vec![Value::Null, Value::str("beta"), Value::Float(2.0)]),
            row![-3i64, "gamma", -0.5f64],
            Row::new(vec![Value::Int(7), Value::Null, Value::Null]),
        ]
    }

    #[test]
    fn comparisons_match_scalar_path() {
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            check(
                &Expr::col("a").binary(op, Expr::lit(5i64)),
                sample_rows(),
            );
            check(
                &Expr::col("a").binary(op, Expr::col("c")),
                sample_rows(),
            );
            check(
                &Expr::col("b").binary(op, Expr::lit("beta")),
                sample_rows(),
            );
        }
    }

    #[test]
    fn arithmetic_matches_scalar_path() {
        for op in [
            BinaryOp::Plus,
            BinaryOp::Minus,
            BinaryOp::Multiply,
            BinaryOp::Divide,
            BinaryOp::Modulo,
        ] {
            check(&Expr::col("a").binary(op, Expr::lit(3i64)), sample_rows());
            check(&Expr::col("c").binary(op, Expr::col("a")), sample_rows());
        }
    }

    #[test]
    fn error_surfaces_scalar_paths_first_failing_row() {
        // Left operand errors on row 1, right operand on row 0. Column-at-a-
        // time evaluation hits the left error first; the surfaced error must
        // nonetheless be the scalar path's (row 0's right-operand failure).
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::str("s"), Value::Float(1.0)]),
            Row::new(vec![Value::str("x"), Value::str("t"), Value::Float(2.0)]),
        ];
        let e = Expr::col("a").binary(BinaryOp::Plus, Expr::lit(1i64)).binary(
            BinaryOp::Plus,
            Expr::col("b").binary(BinaryOp::Plus, Expr::lit(1i64)),
        );
        let bound = bind(&e, &schema()).unwrap();
        let ve = eval_column(&bound, &batch(rows.clone())).unwrap_err();
        let re = rows
            .iter()
            .map(|r| bound.eval(r))
            .find_map(Result::err)
            .expect("scalar path errors");
        assert_eq!(ve.to_string(), re.to_string());
    }

    #[test]
    fn kleene_logic_matches_and_short_circuits() {
        let e = Expr::col("a")
            .gt(Expr::lit(0i64))
            .and(Expr::col("c").lt(Expr::lit(1.0f64)));
        check(&e, sample_rows());
        let e = Expr::col("a")
            .lt(Expr::lit(0i64))
            .or(Expr::col("b").eq(Expr::lit("beta")));
        check(&e, sample_rows());
        // Short-circuit shields the rhs: a != 0 AND 10/a > 1 must not
        // divide by zero on the a = 0 row.
        let rows = vec![row![0i64, "x", 1.0f64], row![5i64, "y", 1.0f64]];
        let e = Expr::col("a").binary(BinaryOp::NotEq, Expr::lit(0i64)).and(
            Expr::lit(10i64)
                .binary(BinaryOp::Divide, Expr::col("a"))
                .gt(Expr::lit(1i64)),
        );
        check(&e, rows.clone());
        let bound = bind(&e, &schema()).unwrap();
        let col = eval_column(&bound, &batch(rows)).unwrap();
        assert_eq!(col.value(0), Value::Bool(false));
        assert_eq!(col.value(1), Value::Bool(true));
    }

    #[test]
    fn misc_operators_match_scalar_path() {
        let rows = sample_rows();
        check(
            &Expr::IsNull {
                expr: Box::new(Expr::col("a")),
                negated: false,
            },
            rows.clone(),
        );
        check(
            &Expr::IsNull {
                expr: Box::new(Expr::col("b")),
                negated: true,
            },
            rows.clone(),
        );
        check(
            &Expr::Like {
                expr: Box::new(Expr::col("b")),
                pattern: Box::new(Expr::lit("%a%")),
                negated: false,
            },
            rows.clone(),
        );
        check(
            &Expr::InList {
                expr: Box::new(Expr::col("a")),
                list: vec![Expr::lit(7i64), Expr::Literal(Value::Null)],
                negated: false,
            },
            rows.clone(),
        );
        check(
            &Expr::Between {
                expr: Box::new(Expr::col("a")),
                low: Box::new(Expr::lit(0i64)),
                high: Box::new(Expr::lit(8i64)),
                negated: true,
            },
            rows.clone(),
        );
        check(
            &Expr::Case {
                branches: vec![(Expr::col("a").gt(Expr::lit(0i64)), Expr::lit("pos"))],
                else_expr: Some(Box::new(Expr::lit("neg"))),
            },
            rows.clone(),
        );
        check(
            &Expr::Cast {
                expr: Box::new(Expr::col("a")),
                to: DataType::Str,
            },
            rows.clone(),
        );
        check(
            &Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::col("a")),
            },
            rows.clone(),
        );
        check(&Expr::col("a").gt(Expr::lit(0i64)).not(), rows);
    }

    #[test]
    fn filter_selection_matches_predicate() {
        let rows = sample_rows();
        let e = Expr::col("a").gt(Expr::lit(0i64));
        let bound = bind(&e, &schema()).unwrap();
        let keep = eval_filter(&bound, &batch(rows.clone())).unwrap();
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| bound.eval_predicate(r).unwrap())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(keep, expect);
    }

    proptest! {
        #[test]
        fn vectorized_agrees_on_random_int_exprs(
            vals in proptest::collection::vec(-100i64..100, 1..40),
            lit in -100i64..100,
        ) {
            // Every fifth value stands in for NULL to exercise the bitmaps.
            let rows: Vec<Row> = vals
                .iter()
                .map(|&v| Row::new(vec![
                    if v % 5 == 0 { Value::Null } else { Value::Int(v) },
                    Value::str("s"),
                    Value::Float(0.25),
                ]))
                .collect();
            let e = Expr::col("a")
                .gt(Expr::lit(lit))
                .and(Expr::col("a").binary(BinaryOp::Plus, Expr::lit(1i64))
                    .lt(Expr::lit(50i64)));
            check(&e, rows);
        }
    }
}
