//! Vectorized expression kernels: evaluate a [`BoundExpr`] over a whole
//! [`ColumnarBatch`] at once. They are the only evaluator the engine runs.
//!
//! The contract is the scalar semantics of SQL, row by row: for any
//! expression and any batch, [`eval_column`] must produce, position by
//! position, the value a row-at-a-time walk of the expression produces (the
//! oracle `tests/support/oracle.rs`), and on an error that walk's first
//! failing row's error. The kernel proptests (`tests/kernel_identities.rs`,
//! over one hazard set) and the reference-evaluator proptest
//! (`tests/reference.rs`) hold this line. Three rules keep it honest:
//!
//! - **Kleene AND/OR** are re-implemented over columns, but evaluate their
//!   right side only on the *sub-selection* of rows the scalar path would have
//!   reached (short-circuiting is observable: a row the scalar path skips
//!   must not be able to raise an error here). Two typed `Bool` operands are
//!   merged from their slices and bitmaps; anything else one [`Value`] at a
//!   time through the operator table's `eval_and`/`eval_or`. That merge is
//!   for a logical *value*; a WHERE ([`eval_filter`]) builds none: it narrows
//!   a selection conjunct by conjunct, each conjunct evaluated on the rows
//!   every earlier one left TRUE or NULL — the same reach — and keeps the
//!   rows every conjunct left TRUE;
//! - **one binary kernel** serves comparisons and arithmetic. Each side of a
//!   binary node is an operand — a column or a *scalar*: a literal is read
//!   where it stands and never broadcast into a column. The result's validity
//!   is computed once per call (no bitmap on either operand, none on the
//!   result; otherwise the word-wise AND of the two), and the values come from
//!   one slice-or-scalar loop with no NULL test in it — a slot under a NULL
//!   holds a placeholder, and whatever is computed from it lands under the
//!   result's NULL. Typed loops exist for Int ∘ Int, anything with a Float
//!   (widened to `f64`; *compared* exactly, through `cmp_int_float`), Str and
//!   Timestamp comparisons; `Mixed`, `Bool`, Str + Str and operands of two
//!   different types fall back to [`crate::eval::eval_binary`] element-wise,
//!   so an untyped column costs speed, never correctness. `/` and `%` look
//!   for a zero divisor before the loop, and only where the result is not
//!   NULL anyway;
//! - **reach-exact kernels, and the first failing row.** A kernel evaluates
//!   a subexpression only on the rows the scalar path reaches, a node's
//!   children in its order: `CASE` runs WHEN k on the rows no earlier branch
//!   took and THEN k where WHEN k holds, `IN` item j on the rows whose operand
//!   is not NULL and that no earlier item matched. So a one-row batch fails
//!   with that row's scalar error, and on an error [`eval_column`] and
//!   [`eval_filter`] report [`first_failing_row`]'s: column-at-a-time order
//!   (all of a left operand before any right one) can meet a later row's
//!   error first.
//!
//! What still allocates: one output vector per node (and its bitmap, when an
//! operand has one), the gather of a column read under a selection, a
//! sub-selection per AND/OR value whose left side decides some rows but not
//! all (and per CASE branch and IN item that some rows no longer reach), a
//! WHERE's selection per conjunct that drops a row, and — the one broadcast
//! left — a bare literal in an *output* position (`SELECT 1`) or an all-NULL
//! result (`x = NULL`). A `Str` column is a dictionary and a code per row: a
//! comparison, `LIKE` or an `IN` item against a scalar evaluate once per
//! dictionary entry and map the result by code ([`by_entry`]; row by row
//! through the dictionary when it is larger than the rows), and two `Str`
//! columns are walked row by row. `BETWEEN`, `CAST`, function calls and the
//! values `CASE` picks still walk their operands a [`Value`] at a time.

// The kernel loops below walk several parallel structures in lockstep by
// index (output vector, null bitmap, one or more operand columns, and for
// Kleene AND/OR a separate cursor into a sub-selected right-hand side);
// iterator rewrites would obscure that alignment.
#![allow(clippy::needless_range_loop)]

use std::cmp::Ordering;
use std::sync::Arc;

use eii_data::columnar::{by_entry, Column, ColumnData, ColumnarBatch, NullBitmap};
use eii_data::value::cmp_int_float;
use eii_data::{EiiError, Result, Value};

use crate::ast::{BinaryOp, UnaryOp};
use crate::eval::{eval_and, eval_binary, eval_cast, eval_like, eval_or, eval_unary, BoundExpr};
use crate::functions::{eval_scalar, like_match};

/// Evaluate `expr` for every live row of `batch`, producing a compact column
/// whose position `k` holds the value for logical row `k`; on an error, the
/// first failing row's.
pub fn eval_column(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Arc<Column>> {
    let kernel = |b: &ColumnarBatch| eval_column_typed(expr, b);
    kernel(batch).map_err(|e| first_failing_row(batch, kernel).map_or(e, |(_, first)| first))
}

/// The least row `i` of `batch` for which `f` over the one-row batch of row
/// `i` alone errs, and that error: with reach-exact kernels (module doc), the
/// row and error the scalar path fails on first. `None` only if no row fails
/// alone, when a caller keeps the error the whole batch met.
pub fn first_failing_row<T>(
    batch: &ColumnarBatch,
    f: impl Fn(&ColumnarBatch) -> Result<T>,
) -> Option<(usize, EiiError)> {
    (0..batch.num_rows()).find_map(|i| f(&batch.select(vec![i as u32])).err().map(|e| (i, e)))
}

/// The kernel dispatch behind [`eval_column`]; may meet a later row's error
/// before an earlier row's (the wrapper reconciles that).
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
                let l = Operand::eval(left, batch)?;
                let r = Operand::eval(right, batch)?;
                binary_kernel(&l, *op, &r, n)
            }
        },
        BoundExpr::Unary { op, expr: inner } => {
            let c = eval_column_typed(inner, batch)?;
            let data = match (op, c.data()) {
                (UnaryOp::Not, ColumnData::Bool(v)) => {
                    ColumnData::Bool(v.iter().map(|b| !b).collect())
                }
                (UnaryOp::Neg, ColumnData::Int(v)) => {
                    ColumnData::Int(v.iter().map(|i| i.wrapping_neg()).collect())
                }
                (UnaryOp::Neg, ColumnData::Float(v)) => {
                    ColumnData::Float(v.iter().map(|f| -f).collect())
                }
                // `Mixed`, or a type the operator rejects wherever the
                // operand is not NULL.
                _ => return by_values(n, |i| eval_unary(*op, &c.value(i))),
            };
            Ok(Arc::new(Column::new(data, c.nulls().cloned())))
        }
        BoundExpr::IsNull { expr, negated } => {
            let c = eval_column_typed(expr, batch)?;
            let out = match (c.data(), c.nulls()) {
                (ColumnData::Mixed(v), _) => v.iter().map(|x| x.is_null() != *negated).collect(),
                (_, None) => vec![*negated; n],
                (_, Some(nulls)) => (0..n).map(|i| nulls.is_null(i) != *negated).collect(),
            };
            Ok(Arc::new(Column::new(ColumnData::Bool(out), None)))
        }
        BoundExpr::Like {
            expr: text,
            pattern,
            negated,
        } => {
            // A literal pattern is a scalar, read once; a `Str` text or
            // pattern is walked in its typed vector, a placeholder under a
            // NULL. Anything else — a NULL literal, `Mixed`, another type —
            // goes a value at a time, NULL or a type error.
            let (t, p) = (Operand::eval(text, batch)?, Operand::eval(pattern, batch)?);
            let (Lanes::Str(ts), Lanes::Str(ps)) = (t.lanes(), p.lanes()) else {
                return by_values(n, |i| eval_like(&t.value(i), &p.value(i), *negated));
            };
            let out = strs(ts, ps, n, |t, p| like_match(t, p) != *negated);
            let valid = NullBitmap::both_valid(t.nulls(), p.nulls());
            Ok(Arc::new(Column::new(ColumnData::Bool(out), valid)))
        }
        BoundExpr::InList {
            expr: inner,
            list,
            negated,
        } => {
            // Item j is compared on the rows whose operand is not NULL and
            // that no earlier item matched — a literal as a scalar, so a
            // `Str` operand meets it once per dictionary entry — by the
            // binary kernel's `=`, NULL where the item is NULL.
            let c = eval_column_typed(inner, batch)?;
            let mut open: Vec<u32> = (0..n as u32).filter(|&i| !c.is_null(i as usize)).collect();
            let (mut found, mut saw_null) = (vec![false; n], vec![false; n]);
            for item in list {
                if open.is_empty() {
                    break;
                }
                let sub = (open.len() < n).then(|| batch.select(open.clone()));
                let operand = match sub {
                    None => Arc::clone(&c),
                    Some(_) => Arc::new(c.gather(&open)),
                };
                let item = Operand::eval(item, sub.as_ref().unwrap_or(batch))?;
                let eq = binary_kernel(&Operand::Col(operand), BinaryOp::Eq, &item, open.len())?;
                for (k, &i) in open.iter().enumerate() {
                    match eq.value(k) {
                        Value::Bool(b) => found[i as usize] = b,
                        _ => saw_null[i as usize] = true,
                    }
                }
                open.retain(|&i| !found[i as usize]);
            }
            let mut nulls = NullBitmap::new_valid(n);
            let mut any_null = false;
            for i in (0..n).filter(|&i| c.is_null(i) || (saw_null[i] && !found[i])) {
                nulls.set_null(i);
                any_null = true;
            }
            let out = found.iter().map(|&f| f != *negated).collect();
            Ok(Arc::new(Column::new(ColumnData::Bool(out), any_null.then_some(nulls))))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let c = eval_column_typed(expr, batch)?;
            let lo = eval_column_typed(low, batch)?;
            let hi = eval_column_typed(high, batch)?;
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
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            // WHEN k runs on the rows no earlier branch took, THEN k where
            // WHEN k holds, the ELSE (or NULL) on the rest; each result is
            // scattered to its rows by position.
            let mut vals = vec![Value::Null; n];
            let mut scatter = |e: &BoundExpr, rows: &[u32]| -> Result<()> {
                let c = eval_on(e, batch, rows)?;
                (rows.iter().enumerate()).for_each(|(k, &i)| vals[i as usize] = c.value(k));
                Ok(())
            };
            let mut open: Vec<u32> = (0..n as u32).collect();
            for (when, then) in branches {
                if open.is_empty() {
                    break;
                }
                let holds = eval_on(when, batch, &open)?;
                let mut hit = (0..open.len()).map(|k| holds.value(k).is_true());
                let (took, rest): (Vec<u32>, Vec<u32>) =
                    open.iter().partition(|_| hit.next() == Some(true));
                if !took.is_empty() {
                    scatter(then, &took)?;
                }
                open = rest;
            }
            match else_expr {
                Some(e) if !open.is_empty() => scatter(e, &open)?,
                _ => {}
            }
            Ok(Arc::new(from_values_auto(&vals)))
        }
        BoundExpr::Cast { expr, to } => {
            let c = eval_column_typed(expr, batch)?;
            by_values(n, |i| eval_cast(&c.value(i), *to))
        }
        BoundExpr::Func { func, args } => {
            let cols = args
                .iter()
                .map(|a| eval_column_typed(a, batch))
                .collect::<Result<Vec<_>>>()?;
            let mut scratch = Vec::with_capacity(cols.len());
            by_values(n, |i| {
                scratch.clear();
                scratch.extend(cols.iter().map(|c| c.value(i)));
                eval_scalar(*func, &scratch)
            })
        }
    }
}

/// `expr` over the rows `rows` of `batch` (logical positions, ascending):
/// the batch itself when that is every row.
fn eval_on(expr: &BoundExpr, batch: &ColumnarBatch, rows: &[u32]) -> Result<Arc<Column>> {
    if rows.len() == batch.num_rows() {
        eval_column_typed(expr, batch)
    } else {
        eval_column_typed(expr, &batch.select(rows.to_vec()))
    }
}

/// `f` at each of `n` positions, one [`Value`] at a time: the operator
/// table's path for what no typed loop covers.
fn by_values(n: usize, f: impl FnMut(usize) -> Result<Value>) -> Result<Arc<Column>> {
    let vals = (0..n).map(f).collect::<Result<Vec<_>>>()?;
    Ok(Arc::new(from_values_auto(&vals)))
}

/// Evaluate a predicate over the batch, returning the logical indices of rows
/// where it is `Bool(true)` (NULL and false both reject, per SQL WHERE); on
/// an error, the first failing row's.
///
/// A WHERE narrows a selection rather than building a Kleene column: the
/// predicate's `AND` tree is flattened into conjuncts, and conjunct `j` is
/// evaluated only on the rows where every earlier one was TRUE or NULL —
/// exactly where the scalar path's short-circuit reaches. A conjunct that is
/// not a typed `Bool` column sends the whole predicate through the Kleene
/// column instead.
pub fn eval_filter(pred: &BoundExpr, batch: &ColumnarBatch) -> Result<Vec<u32>> {
    let kernel = |b: &ColumnarBatch| filter(pred, b);
    kernel(batch).map_err(|e| first_failing_row(batch, kernel).map_or(e, |(_, first)| first))
}

/// [`eval_filter`]'s kernels, errors in column-at-a-time order.
fn filter(pred: &BoundExpr, batch: &ColumnarBatch) -> Result<Vec<u32>> {
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);
    if let Some(keep) = narrow(&conjuncts, batch)? {
        return Ok(keep);
    }
    let c = eval_column_typed(pred, batch)?;
    Ok((0..batch.num_rows() as u32).filter(|&i| c.value(i as usize).is_true()).collect())
}
/// The conjuncts of `e`'s `AND` tree, left to right, whatever its nesting.
fn flatten_and<'e>(e: &'e BoundExpr, out: &mut Vec<&'e BoundExpr>) {
    match e {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        _ => out.push(e),
    }
}

/// [`eval_filter`] conjunct by conjunct, or `None` when a conjunct is not a
/// typed `Bool` column. `reach` holds the rows every conjunct so far left
/// TRUE or NULL (`None` before the first); while it holds every row the batch
/// is left unselected. `nulled` marks, once a NULL appears, the rows one left
/// NULL — still reached by the next conjunct, never kept.
fn narrow(conjuncts: &[&BoundExpr], batch: &ColumnarBatch) -> Result<Option<Vec<u32>>> {
    let n = batch.num_rows();
    let mut reach: Option<Vec<u32>> = None;
    let mut nulled: Option<Vec<bool>> = None;
    for conj in conjuncts {
        // A narrowed list moves into the batch's selection; an unselected
        // batch keeps it as it is, so `rows` reads it back there.
        let copy = reach.as_ref().filter(|rows| rows.len() < n && batch.selection().is_some()).cloned();
        let sub = reach.take_if(|rows| rows.len() < n).map(|rows| batch.select(rows));
        let rows = (copy.as_deref().or(reach.as_deref()))
            .or_else(|| sub.as_ref().and_then(ColumnarBatch::selection));
        let col = eval_column_typed(conj, sub.as_ref().unwrap_or(batch))?;
        let Some(bools) = col.as_bools() else { return Ok(None) };
        let at = |k: usize| rows.map_or(k as u32, |rows| rows[k]);
        let next = match (col.nulls(), rows) {
            (None, None) => select_true(bools, |k| k as u32),
            (None, Some(rows)) => select_true(bools, |k| rows[k]),
            (Some(nulls), _) => {
                let nulled = nulled.get_or_insert_with(|| vec![false; n]);
                let mut next = Vec::with_capacity(bools.len());
                for (k, &b) in bools.iter().enumerate() {
                    if nulls.is_null(k) {
                        nulled[at(k) as usize] = true;
                    } else if !b {
                        continue;
                    }
                    next.push(at(k));
                }
                next
            }
        };
        if next.is_empty() {
            return Ok(Some(next));
        }
        reach = Some(next);
    }
    Ok(reach.map(|reach| match nulled {
        None => reach,
        Some(nulled) => reach.into_iter().filter(|&r| !nulled[r as usize]).collect(),
    }))
}

/// `at(k)` for each `k` where `bools[k]`, in order, written without a branch
/// per row: every row's entry is stored, and the length moves past it only
/// when the row is kept.
fn select_true(bools: &[bool], at: impl Fn(usize) -> u32) -> Vec<u32> {
    let mut next = vec![0; bools.len()];
    let mut len = 0;
    for (k, &b) in bools.iter().enumerate() {
        next[len] = at(k);
        len += usize::from(b);
    }
    next.truncate(len);
    next
}

/// Kleene AND/OR with observable short-circuiting: the right side is
/// evaluated only over the sub-selection of rows whose left value does not
/// already decide the result, mirroring the scalar path's lazy `eval`. Two
/// typed `Bool` operands are merged from their slices and bitmaps; anything
/// else (a `Mixed` column, an all-NULL or wrongly typed operand) through
/// [`eval_and`]/[`eval_or`] and their type errors.
fn eval_logical(
    left: &BoundExpr,
    right: &BoundExpr,
    batch: &ColumnarBatch,
    is_and: bool,
) -> Result<Arc<Column>> {
    let n = batch.num_rows();
    let l = eval_column_typed(left, batch)?;
    // The value that decides a row from the left alone: FALSE for AND, TRUE
    // for OR.
    let dominant = !is_and;
    let undecided = |i: usize| match l.as_bools() {
        Some(b) => b[i] == is_and || l.nulls().is_some_and(|v| v.is_null(i)),
        None => l.value(i) != Value::Bool(dominant),
    };
    let need: Vec<u32> = (0..n as u32).filter(|&i| undecided(i as usize)).collect();
    if need.is_empty() {
        // Every row decided, each by its own left value.
        return Ok(l);
    }
    let r = eval_on(right, batch, &need)?;
    let typed = l.as_bools().zip(r.as_bools());
    if typed.is_some() && r.len() == n && l.nulls().is_none() {
        // Every left value is the neutral one: the right side is the answer.
        return Ok(r);
    }
    let mut out = vec![dominant; n];
    let mut nulls = NullBitmap::new_valid(n);
    let mut any_null = false;
    for (k, i) in (0..n).filter(|&i| undecided(i)).enumerate() {
        let merged = match typed {
            // The left is neutral or NULL here, so the right is the answer
            // unless it is NULL itself, or the left is and it cannot decide.
            Some((_, rb)) => {
                let null = r.nulls().is_some_and(|v| v.is_null(k))
                    || (rb[k] != dominant && l.nulls().is_some_and(|v| v.is_null(i)));
                (!null).then_some(rb[k])
            }
            None => {
                let (lv, rv) = (l.value(i), r.value(k));
                if is_and {
                    eval_and(&lv, &rv)?
                } else {
                    eval_or(&lv, &rv)?
                }
                .as_bool()
            }
        };
        match merged {
            Some(b) => out[i] = b,
            None => {
                nulls.set_null(i);
                any_null = true;
            }
        }
    }
    Ok(Arc::new(Column::new(
        ColumnData::Bool(out),
        any_null.then_some(nulls),
    )))
}

/// One side of a binary node: a column, or a scalar — a literal is read where
/// it stands, never broadcast into a column.
enum Operand {
    Col(Arc<Column>),
    Scalar(Value),
}

/// A typed operand as the kernels' loops read it.
enum Lane<'a, T> {
    Slice(&'a [T]),
    Scalar(&'a T),
}

/// A `Str` operand: a dictionary and a code per row, or a scalar.
enum StrLane<'a> {
    Dict(&'a [Arc<str>], &'a [u32]),
    Scalar(&'a Arc<str>),
}

/// The typed views the kernels have loops for; `Other` (`Bool`, `Mixed`) goes
/// by [`Value`].
enum Lanes<'a> {
    Int(Lane<'a, i64>),
    Float(Lane<'a, f64>),
    Str(StrLane<'a>),
    Timestamp(Lane<'a, i64>),
    Other,
}

impl Operand {
    fn eval(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Operand> {
        Ok(match expr {
            BoundExpr::Literal(v) => Operand::Scalar(v.clone()),
            _ => Operand::Col(eval_column_typed(expr, batch)?),
        })
    }

    fn nulls(&self) -> Option<&NullBitmap> {
        match self {
            Operand::Col(c) => c.nulls(),
            Operand::Scalar(_) => None,
        }
    }

    fn value(&self, i: usize) -> Value {
        match self {
            Operand::Col(c) => c.value(i),
            Operand::Scalar(v) => v.clone(),
        }
    }

    fn lanes(&self) -> Lanes<'_> {
        match self {
            Operand::Col(c) => match c.data() {
                ColumnData::Int(v) => Lanes::Int(Lane::Slice(v)),
                ColumnData::Float(v) => Lanes::Float(Lane::Slice(v)),
                ColumnData::Str { dict, codes } => Lanes::Str(StrLane::Dict(dict, codes)),
                ColumnData::Timestamp(v) => Lanes::Timestamp(Lane::Slice(v)),
                ColumnData::Bool(_) | ColumnData::Mixed(_) => Lanes::Other,
            },
            Operand::Scalar(v) => match v {
                Value::Int(i) => Lanes::Int(Lane::Scalar(i)),
                Value::Float(f) => Lanes::Float(Lane::Scalar(f)),
                Value::Str(s) => Lanes::Str(StrLane::Scalar(s)),
                Value::Timestamp(t) => Lanes::Timestamp(Lane::Scalar(t)),
                Value::Bool(_) | Value::Null => Lanes::Other,
            },
        }
    }
}

/// `f` over `n` positions of two lanes: one plain loop per operand shape, no
/// NULL test in any of them (a slot under a NULL holds a placeholder, and what
/// is computed from it lands under the result's NULL).
fn zip<A, B, O: Clone>(a: Lane<A>, b: Lane<B>, n: usize, f: impl Fn(&A, &B) -> O) -> Vec<O> {
    match (a, b) {
        (Lane::Slice(a), Lane::Slice(b)) => a.iter().zip(b).map(|(x, y)| f(x, y)).collect(),
        (Lane::Slice(a), Lane::Scalar(y)) => a.iter().map(|x| f(x, y)).collect(),
        (Lane::Scalar(x), Lane::Slice(b)) => b.iter().map(|y| f(x, y)).collect(),
        (Lane::Scalar(x), Lane::Scalar(y)) => vec![f(x, y); n],
    }
}

/// `f` over `n` positions of two string operands: once per dictionary entry
/// against a scalar ([`by_entry`]), row by row through both dictionaries
/// otherwise.
fn strs(a: StrLane, b: StrLane, n: usize, f: impl Fn(&str, &str) -> bool) -> Vec<bool> {
    use StrLane::{Dict, Scalar};
    match (a, b) {
        (Dict(dict, codes), Scalar(y)) => by_entry(dict, codes, |x| f(x, y)),
        (Scalar(x), Dict(dict, codes)) => by_entry(dict, codes, |y| f(x, y)),
        (Dict(dx, cx), Dict(dy, cy)) => {
            (cx.iter().zip(cy)).map(|(&i, &j)| f(&dx[i as usize], &dy[j as usize])).collect()
        }
        (Scalar(x), Scalar(y)) => vec![f(x, y); n],
    }
}

fn compare<A, B>(
    a: Lane<A>,
    b: Lane<B>,
    n: usize,
    op: BinaryOp,
    ord: impl Fn(&A, &B) -> Ordering,
) -> Vec<bool> {
    match op {
        BinaryOp::Eq => zip(a, b, n, |x, y| ord(x, y).is_eq()),
        BinaryOp::NotEq => zip(a, b, n, |x, y| ord(x, y).is_ne()),
        BinaryOp::Lt => zip(a, b, n, |x, y| ord(x, y).is_lt()),
        BinaryOp::LtEq => zip(a, b, n, |x, y| ord(x, y).is_le()),
        BinaryOp::Gt => zip(a, b, n, |x, y| ord(x, y).is_gt()),
        BinaryOp::GtEq => zip(a, b, n, |x, y| ord(x, y).is_ge()),
        _ => unreachable!("comparison op"),
    }
}

/// The arithmetic of one result type, for the kernels and the scalar path's
/// Int op Int alike: `i64` wraps, `f64` is IEEE. Dividing by zero answers a
/// placeholder — it is reached only under a NULL ([`arith`] and
/// `eval_binary` refuse the rest).
pub(crate) trait Arith: Copy + PartialEq {
    const ZERO: Self;
    fn add(self, y: Self) -> Self;
    fn sub(self, y: Self) -> Self;
    fn mul(self, y: Self) -> Self;
    fn div(self, y: Self) -> Self;
    fn rem(self, y: Self) -> Self;
}

impl Arith for i64 {
    const ZERO: i64 = 0;
    fn add(self, y: i64) -> i64 {
        self.wrapping_add(y)
    }
    fn sub(self, y: i64) -> i64 {
        self.wrapping_sub(y)
    }
    fn mul(self, y: i64) -> i64 {
        self.wrapping_mul(y)
    }
    fn div(self, y: i64) -> i64 {
        if y == 0 {
            0
        } else {
            self.wrapping_div(y)
        }
    }
    fn rem(self, y: i64) -> i64 {
        if y == 0 {
            0
        } else {
            self.wrapping_rem(y)
        }
    }
}

impl Arith for f64 {
    const ZERO: f64 = 0.0;
    fn add(self, y: f64) -> f64 {
        self + y
    }
    fn sub(self, y: f64) -> f64 {
        self - y
    }
    fn mul(self, y: f64) -> f64 {
        self * y
    }
    fn div(self, y: f64) -> f64 {
        self / y
    }
    fn rem(self, y: f64) -> f64 {
        self % y
    }
}

/// `a <op> b` in `T`, each side widened by `wa`/`wb`. A zero divisor is an
/// error only where the result is not NULL anyway, so it is looked for first,
/// and the bitmap consulted only where a divisor is zero.
fn arith<A, B, T: Arith>(
    (a, wa): (Lane<A>, impl Fn(&A) -> T),
    op: BinaryOp,
    (b, wb): (Lane<B>, impl Fn(&B) -> T),
    n: usize,
    valid: Option<&NullBitmap>,
) -> Result<Vec<T>> {
    if matches!(op, BinaryOp::Divide | BinaryOp::Modulo) {
        let live = |i: usize| valid.is_none_or(|v| !v.is_null(i));
        let any = match &b {
            Lane::Slice(ys) => ys.iter().enumerate().any(|(i, y)| wb(y) == T::ZERO && live(i)),
            Lane::Scalar(y) => wb(y) == T::ZERO && (0..n).any(live),
        };
        if any {
            return Err(EiiError::Execution("division by zero".into()));
        }
    }
    Ok(match op {
        BinaryOp::Plus => zip(a, b, n, |x, y| wa(x).add(wb(y))),
        BinaryOp::Minus => zip(a, b, n, |x, y| wa(x).sub(wb(y))),
        BinaryOp::Multiply => zip(a, b, n, |x, y| wa(x).mul(wb(y))),
        BinaryOp::Divide => zip(a, b, n, |x, y| wa(x).div(wb(y))),
        BinaryOp::Modulo => zip(a, b, n, |x, y| wa(x).rem(wb(y))),
        _ => unreachable!("arithmetic op"),
    })
}

/// The one binary kernel, comparisons and arithmetic: NULL on either side
/// propagates — the result's validity is the AND of the operands', computed
/// once — and the values come from one typed loop. Comparisons mirror
/// `Value::cmp` (Int × Float exactly, through `cmp_int_float`); arithmetic
/// keeps the scalar path's widening (Int op Int stays Int and wraps, any Float
/// widens to f64, a zero divisor is an error). Every other pairing (`Mixed`,
/// `Bool`, Str + Str, two different types) defers to `eval_binary` element-wise.
fn binary_kernel(l: &Operand, op: BinaryOp, r: &Operand, n: usize) -> Result<Arc<Column>> {
    use Lanes::{Float, Int, Str, Timestamp};
    if matches!(l, Operand::Scalar(Value::Null)) || matches!(r, Operand::Scalar(Value::Null)) {
        return Ok(Arc::new(Column::broadcast(&Value::Null, n)));
    }
    let valid = NullBitmap::both_valid(l.nulls(), r.nulls());
    let (int, float, widen) = (|x: &i64| *x, |x: &f64| *x, |x: &i64| *x as f64);
    let data = match (l.lanes(), r.lanes(), op.is_comparison()) {
        (Int(a), Int(b), true) | (Timestamp(a), Timestamp(b), true) => {
            ColumnData::Bool(compare(a, b, n, op, i64::cmp))
        }
        (Float(a), Float(b), true) => ColumnData::Bool(compare(a, b, n, op, f64::total_cmp)),
        (Int(a), Float(b), true) => {
            ColumnData::Bool(compare(a, b, n, op, |x, y| cmp_int_float(*x, *y)))
        }
        (Float(a), Int(b), true) => {
            ColumnData::Bool(compare(a, b, n, op, |x, y| cmp_int_float(*y, *x).reverse()))
        }
        (Str(a), Str(b), true) => ColumnData::Bool(strs(a, b, n, |x, y| match op {
            BinaryOp::Eq => x == y,
            BinaryOp::NotEq => x != y,
            BinaryOp::Lt => x < y,
            BinaryOp::LtEq => x <= y,
            BinaryOp::Gt => x > y,
            _ => x >= y,
        })),
        (Int(a), Int(b), false) => {
            ColumnData::Int(arith((a, int), op, (b, int), n, valid.as_ref())?)
        }
        (Int(a), Float(b), false) => {
            ColumnData::Float(arith((a, widen), op, (b, float), n, valid.as_ref())?)
        }
        (Float(a), Int(b), false) => {
            ColumnData::Float(arith((a, float), op, (b, widen), n, valid.as_ref())?)
        }
        (Float(a), Float(b), false) => {
            ColumnData::Float(arith((a, float), op, (b, float), n, valid.as_ref())?)
        }
        _ => return by_values(n, |i| eval_binary(&l.value(i), op, &r.value(i))),
    };
    Ok(Arc::new(Column::new(data, valid)))
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
    use crate::oracle::Oracle;
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
    fn a_literal_operand_is_never_materialised_as_a_column() {
        let cb = batch(sample_rows());
        let five = BoundExpr::Literal(Value::Int(5));
        assert!(matches!(
            Operand::eval(&five, &cb),
            Ok(Operand::Scalar(Value::Int(5)))
        ));
        assert!(matches!(
            Operand::eval(&BoundExpr::Column(0), &cb),
            Ok(Operand::Col(_))
        ));
        // Both sides scalar is still a kernel, not a broadcast.
        let sum = Expr::lit(5i64).binary(BinaryOp::Plus, Expr::lit(0.5f64));
        check(&sum, sample_rows());
        // A bare literal *output* column is the one broadcast left.
        let out = eval_column(&five, &cb).unwrap();
        assert_eq!(out.as_ints(), Some(&[5i64; 4][..]));
    }

    #[test]
    fn a_zero_under_a_null_keeps_the_kernel_on_its_typed_path() {
        // The divisor's NULL sits over the placeholder 0; the dividend's NULL
        // sits beside a real 0. Neither row divides, so the typed kernel must
        // answer, not err.
        let rows = vec![
            Row::new(vec![Value::Null, Value::str("x"), Value::Float(1.0)]),
            Row::new(vec![Value::Int(4), Value::str("y"), Value::Null]),
        ];
        // A literal zero divisor under a dividend that is NULL everywhere.
        let no_dividend = vec![Row::new(vec![
            Value::Null,
            Value::str("z"),
            Value::Float(0.0),
        ])];
        let col = Expr::col;
        for (e, rows) in [
            (Expr::lit(10i64).binary(BinaryOp::Divide, col("a")), &rows),
            (col("c").binary(BinaryOp::Modulo, col("a")), &rows),
            (col("a").binary(BinaryOp::Divide, col("c")), &rows),
            (
                col("a").binary(BinaryOp::Divide, Expr::lit(0i64)),
                &no_dividend,
            ),
            (col("a").binary(BinaryOp::Modulo, col("c")), &no_dividend),
        ] {
            let bound = bind(&e, &schema()).unwrap();
            let typed = eval_column_typed(&bound, &batch(rows.clone()))
                .unwrap_or_else(|err| panic!("{e:?}: {err}"));
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(typed.value(i), bound.eval(row).unwrap(), "row {i} of {e:?}");
            }
        }
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
