//! The kernels against the scalar evaluator, over one hazard set.
//!
//! [`eval_column`] must answer, row by row, what [`BoundExpr::eval`] answers
//! — values to the bit, and when a row fails, the first failing row's error —
//! and [`eval_filter`] must keep exactly the rows whose scalar predicate is
//! true, or fail with that same first error. The cells are the ones the kernels' shortcuts could get wrong: NULL-heavy
//! and all-NULL columns (a bitmap, or none), `i64::MIN`/`MAX` (wrapping, and
//! `MIN / -1`), the Int/Float twins at ±2^53 ± 1 (Int × Float must compare
//! exactly, not through `as f64`), `-0.0`, NaN, zero divisors (an error only
//! where the result is not NULL anyway, so the placeholder `0` under a NULL
//! must not trip it), empty strings, and a column whose values do not fit its
//! type (`Mixed`).

use std::sync::Arc;

use eii_data::{Batch, ColumnData, ColumnarBatch, DataType, Field, Row, Schema, Value};
use eii_expr::{bind, eval_column, eval_filter, BinaryOp, BoundExpr, Expr, UnaryOp};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const P53: i64 = 1 << 53;

/// `(name, declared type)`; `m` is declared `Int` and holds anything.
const COLUMNS: [(&str, DataType); 10] = [
    ("i", DataType::Int),
    ("j", DataType::Int),
    ("f", DataType::Float),
    ("g", DataType::Float),
    ("s", DataType::Str),
    ("u", DataType::Str),
    ("t", DataType::Timestamp),
    ("v", DataType::Timestamp),
    ("b", DataType::Bool),
    ("m", DataType::Int),
];

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(COLUMNS.iter().map(|(n, t)| Field::new(*n, *t)).collect()))
}

fn ints() -> Vec<Value> {
    let hazards = [0, 0, 1, -1, 2, 7, i64::MIN, i64::MAX, P53 - 1, P53, P53 + 1, -P53 - 1, -P53];
    hazards.map(Value::Int).to_vec()
}

fn floats() -> Vec<Value> {
    let p53 = P53 as f64;
    let hazards = [0.0, -0.0, 1.0, -1.0, 2.5, 0.5, f64::NAN, f64::INFINITY, p53, p53 + 2.0, -p53];
    hazards.map(Value::Float).to_vec()
}

/// The non-NULL cells column `c` draws from.
fn pool(c: usize) -> Vec<Value> {
    match COLUMNS[c].0 {
        "i" | "j" => ints(),
        "f" | "g" => floats(),
        "s" | "u" => ["", "a", "b", "ab"].map(Value::str).to_vec(),
        "t" | "v" => [0, 1, 2].map(Value::Timestamp).to_vec(),
        "b" => [true, false].map(Value::Bool).to_vec(),
        _ => (ints().into_iter().chain(floats()))
            .chain([Value::str(""), Value::str("a"), Value::Bool(true), Value::Bool(false)])
            .chain([Value::Timestamp(1)])
            .collect(),
    }
}

/// Cell of column `c` under null mode 0 (no NULL, so no bitmap), 1 (a bitmap
/// with NULLs) or 2 (all NULL).
fn cell(c: usize, mode: usize, pick: usize) -> Value {
    let pool = pool(c);
    match mode {
        0 => pool[pick % pool.len()].clone(),
        1 if !pick.is_multiple_of(3) => pool[(pick / 3) % pool.len()].clone(),
        _ => Value::Null,
    }
}

/// The batch the picks describe, full or under a selection that repeats and
/// reorders rows.
fn batch(picks: &[Vec<usize>], modes: &[usize], sel: Option<&[usize]>) -> ColumnarBatch {
    let rows = picks
        .iter()
        .map(|p| Row::new((0..COLUMNS.len()).map(|c| cell(c, modes[c], p[c])).collect()))
        .collect();
    let cb = ColumnarBatch::from_batch(&Batch::new(schema(), rows));
    match sel {
        Some(sel) if !picks.is_empty() => {
            cb.select(sel.iter().map(|p| (p % picks.len()) as u32).collect())
        }
        _ => cb,
    }
}

/// A value to the bit: `Int(2)` is not `Float(2.0)`, `-0.0` is not `0.0`. Only
/// NaNs are one class — the sign and payload of a computed NaN are the
/// hardware's business, not the evaluator's.
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) if !f.is_nan() => format!("Float({:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// `eval_column` ≡ `BoundExpr::eval` row by row over `batch`, or both fail
/// with the scalar path's first error.
fn check(expr: &Expr, batch: &ColumnarBatch) -> Result<(), TestCaseError> {
    let bound = bind(expr, batch.schema()).unwrap();
    let scalar: Result<Vec<Value>, _> =
        (0..batch.num_rows()).map(|i| bound.eval(&batch.row(i))).collect();
    match (eval_column(&bound, batch), scalar) {
        (Ok(col), Ok(want)) => {
            prop_assert_eq!(col.len(), want.len(), "{:?}", expr);
            for (i, w) in want.iter().enumerate() {
                prop_assert_eq!(exact(&col.value(i)), exact(w), "row {} of {:?}", i, expr);
            }
        }
        (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string(), "{:?}", expr),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "{expr:?}: kernel {:?}, scalar {:?}",
                got.map(|c| c.len()),
                want.map(|v| v.len())
            )))
        }
    }
    Ok(())
}

/// `eval_filter` ≡ the rows whose scalar `eval_predicate` is true, in order,
/// or both fail with the scalar path's first error.
fn check_filter(expr: &Expr, batch: &ColumnarBatch) -> Result<(), TestCaseError> {
    let bound = bind(expr, batch.schema()).unwrap();
    let scalar: Result<Vec<u32>, _> = (0..batch.num_rows())
        .filter_map(|i| match bound.eval_predicate(&batch.row(i)) {
            Ok(keep) => keep.then_some(Ok(i as u32)),
            Err(e) => Some(Err(e)),
        })
        .collect();
    match (eval_filter(&bound, batch), scalar) {
        (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{:?}", expr),
        (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string(), "{:?}", expr),
        (got, want) => {
            return Err(TestCaseError::fail(format!("{expr:?}: filter {got:?}, scalar {want:?}")))
        }
    }
    Ok(())
}

const OPS: [BinaryOp; 11] = [
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::Plus,
    BinaryOp::Minus,
    BinaryOp::Multiply,
    BinaryOp::Divide,
    BinaryOp::Modulo,
];

/// Scalar operands: NULL, zero divisors of both types, the hazards again.
fn scalars() -> Vec<Value> {
    let p53 = P53 as f64;
    vec![
        Value::Null,
        Value::Int(0),
        Value::Int(3),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(P53 + 1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(2.5),
        Value::Float(f64::NAN),
        Value::Float(p53),
        Value::str(""),
        Value::str("a"),
        Value::Timestamp(1),
        Value::Bool(true),
    ]
}

fn col(c: usize) -> Expr {
    Expr::col(COLUMNS[c].0)
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..1000, 10..11), 0..20)
}

/// Leaves of the logical trees: the right-hand ones divide by a column that
/// the left-hand ones test, compare across types, or are not boolean at all.
fn leaf(pick: usize) -> Expr {
    let div = |a: Expr, b: Expr| a.binary(BinaryOp::Divide, b);
    let is_null = |e: Expr| Expr::IsNull { expr: Box::new(e), negated: false };
    match pick % 15 {
        0 => col(0).binary(BinaryOp::NotEq, Expr::lit(0i64)),
        1 => div(Expr::lit(10i64), col(0)).gt(Expr::lit(1i64)),
        2 => col(1).binary(BinaryOp::Modulo, col(0)).eq(Expr::lit(0i64)),
        3 => div(col(2), col(3)).lt(Expr::lit(2.0f64)),
        4 => col(8),
        5 => col(8).not(),
        6 => is_null(col(0)),
        7 => col(9).eq(Expr::lit(1i64)),
        8 => col(9),
        9 => div(col(0), col(1)).gt_eq(Expr::lit(0i64)),
        10 => col(3).binary(BinaryOp::NotEq, Expr::lit(0.0f64)),
        11 => col(4).lt(col(5)),
        12 => col(0).eq(Expr::Literal(Value::Null)),
        13 => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(col(0)) }.lt(col(2)),
        _ => col(9).not(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every binary operator × operand shape (col∘col over every pair of
    /// column types, col∘scalar, scalar∘col, scalar NULL) × {no bitmap,
    /// bitmap with NULLs, all NULL} × {full batch, selected batch}, and the
    /// unary and `IS [NOT] NULL` loops over every column.
    #[test]
    fn binary_and_unary_kernels_equal_the_scalar_evaluator(
        picks in rows_strategy(),
        modes in proptest::collection::vec(0usize..3, 10..11),
        sel in proptest::collection::vec(0usize..64, 0..30),
        selected in any::<bool>(),
    ) {
        let batch = batch(&picks, &modes, selected.then_some(&sel[..]));
        for op in OPS {
            for a in 0..COLUMNS.len() {
                for b in 0..COLUMNS.len() {
                    check(&col(a).binary(op, col(b)), &batch)?;
                }
                for scalar in scalars() {
                    check(&col(a).binary(op, Expr::Literal(scalar.clone())), &batch)?;
                    check(&Expr::Literal(scalar).binary(op, col(a)), &batch)?;
                }
            }
            check(&Expr::lit(7i64).binary(op, Expr::lit(0.5f64)), &batch)?;
        }
        for c in 0..COLUMNS.len() {
            check(&col(c).not(), &batch)?;
            check(&Expr::Unary { op: UnaryOp::Neg, expr: Box::new(col(c)) }, &batch)?;
            for negated in [false, true] {
                check(&Expr::IsNull { expr: Box::new(col(c)), negated }, &batch)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Nested AND/OR/NOT trees whose right side would divide by zero on rows
    /// the left side decides: the kernels evaluate a right side only where
    /// the scalar path reaches it, and merge NULLs as Kleene does. As a WHERE
    /// — the tree, its negation and the all-`AND` chain of its leaves, over
    /// the full batch and a selected one — `eval_filter` narrows conjunct by
    /// conjunct to the same rows and the same first error.
    #[test]
    fn logical_trees_equal_the_scalar_evaluator(
        picks in rows_strategy(),
        modes in proptest::collection::vec(0usize..3, 10..11),
        sel in proptest::collection::vec(0usize..64, 0..30),
        selected in any::<bool>(),
        leaves in proptest::collection::vec((0usize..15, any::<bool>()), 4..5),
        ands in proptest::collection::vec(any::<bool>(), 3..4),
        layout in 0usize..3,
    ) {
        let batch_of = |sel| batch(&picks, &modes, sel);
        let batch = batch_of(selected.then_some(&sel[..]));
        let l: Vec<Expr> = leaves
            .iter()
            .map(|&(pick, not)| if not { leaf(pick).not() } else { leaf(pick) })
            .collect();
        let join = |and: bool, a: Expr, b: Expr| if and { a.and(b) } else { a.or(b) };
        let [a, b, c, d] = [l[0].clone(), l[1].clone(), l[2].clone(), l[3].clone()];
        let tree = match layout {
            0 => join(ands[1], join(ands[0], a, b), join(ands[2], c, d)),
            1 => join(ands[0], a, join(ands[1], b, join(ands[2], c, d))),
            _ => join(ands[2], join(ands[1], join(ands[0], a, b), c), d),
        };
        let negated = tree.clone().not();
        check(&tree, &batch)?;
        check(&negated, &batch)?;
        let chain = l[1..].iter().fold(l[0].clone(), |acc, e| acc.and(e.clone()));
        for batch in [batch_of(None), batch_of(Some(&sel[..]))] {
            for pred in [&tree, &negated, &chain] {
                check_filter(pred, &batch)?;
            }
        }
    }
}

/// The columns are what the properties above say they cover.
#[test]
fn the_hazard_columns_come_typed_with_and_without_bitmaps_and_mixed() {
    let picks: Vec<Vec<usize>> = (0..120).map(|r| vec![r; 10]).collect();
    let column = |c: usize, mode: usize| {
        let whole = batch(&picks, &[mode; 10], None);
        eval_column(&BoundExpr::Column(c), &whole).unwrap()
    };
    for (c, (name, _)) in COLUMNS.iter().enumerate().take(9) {
        assert!(!matches!(column(c, 0).data(), ColumnData::Mixed(_)), "{name}");
        assert!(column(c, 0).nulls().is_none());
        assert!(column(c, 1).nulls().is_some_and(|n| !n.all_valid() && n.null_count() < 120));
        assert_eq!(column(c, 2).nulls().map(|n| n.null_count()), Some(120));
    }
    assert!(matches!(column(9, 0).data(), ColumnData::Mixed(_)));
    assert!(matches!(column(9, 1).data(), ColumnData::Mixed(_)));
}

/// The guard every `x <> 0 AND k / x > …` filter relies on, spelled out: the
/// zero rows are decided on the left, so the division never sees them — also
/// when the zero sits under a NULL's placeholder.
#[test]
fn a_decided_row_shields_its_right_side_from_division_by_zero() {
    let rows = [Value::Int(0), Value::Int(5), Value::Null, Value::Int(20)];
    let schema = Arc::new(Schema::new(vec![Field::new("i", DataType::Int)]));
    let rows = rows.into_iter().map(|v| Row::new(vec![v])).collect();
    let batch = ColumnarBatch::from_batch(&Batch::new(schema, rows));
    let guarded = Expr::col("i")
        .binary(BinaryOp::NotEq, Expr::lit(0i64))
        .and(Expr::lit(10i64).binary(BinaryOp::Divide, Expr::col("i")).gt(Expr::lit(1i64)));
    let got = eval_column(&bind(&guarded, batch.schema()).unwrap(), &batch).unwrap();
    let got: Vec<Value> = (0..4).map(|i| got.value(i)).collect();
    assert_eq!(got, [Value::Bool(false), Value::Bool(true), Value::Null, Value::Bool(false)]);
    // Unguarded, the first zero divisor that is not under a NULL is the error.
    let bare = Expr::lit(10i64).binary(BinaryOp::Modulo, Expr::col("i"));
    let err = eval_column(&bind(&bare, batch.schema()).unwrap(), &batch).unwrap_err();
    assert_eq!(err.to_string(), "execution error: division by zero");
}
