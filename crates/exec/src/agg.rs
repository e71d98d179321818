//! Grouped aggregate state with SQL NULL semantics: the one aggregate, which
//! the executor's `GROUP BY` and IVM's maintained groups both fold through.
//!
//! One [`GroupedAgg`] is one aggregate of a `GROUP BY` and holds its state for
//! *every* group, indexed by group id, in only the vectors its function reads
//! (a `COUNT` is a `Vec<i64>`). A row weighs `+1` unless the caller passes one
//! weight per row (IVM's `-1` retracts). [`fold_chunk`] takes a chunk in one
//! of two ways per aggregate, chosen by [`GroupedAgg::typed`]:
//! [`GroupedAgg::update`] is one loop over a typed `Int`/`Float` argument
//! vector beside the chunk's group ids — no `Value`, no failure;
//! [`GroupedAgg::push`] takes one cell as a [`Value`] — `DISTINCT`,
//! `Mixed`/`Str`/`Bool`/`Timestamp` arguments (the only cells a `SUM` can fail
//! on) and a retractable MIN/MAX. Both keep one arithmetic: SUM is integral
//! (wrapping) until the first float and adds floats in input order, SUM/AVG
//! are NULL while no non-NULL argument is counted, MIN/MAX follow [`Value`]'s
//! total order and keep the first of equals. A [`GroupedAgg::retractable`]
//! state keeps a counted ordered multiset per group for MIN/MAX, and refuses a
//! non-integer SUM/AVG cell (a float total does not survive retraction).

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

use eii_data::value::cmp_int_float;
use eii_data::{Column, ColumnData, ColumnarBatch, EiiError, Result, Value};
use eii_expr::AggFunc::{self, Avg, Count, CountStar, Max, Min, Sum};
use eii_expr::{eval_column, BoundExpr};

/// Running sum that stays integral until a float arrives.
#[derive(Debug, Clone, Copy)]
enum Total {
    Int(i64),
    Float(f64),
}

impl Total {
    /// Where every sum starts, so a first float `f` contributes `0.0 + f`.
    const ZERO: Total = Total::Int(0);

    #[inline]
    fn add_int(&mut self, i: i64, w: i64) {
        let i = i.wrapping_mul(w);
        match self {
            Total::Int(acc) => *acc = acc.wrapping_add(i),
            Total::Float(acc) => *acc += i as f64,
        }
    }

    #[inline]
    fn add_float(&mut self, f: f64, w: i64) {
        let f = f * w as f64;
        match self {
            Total::Int(acc) => *self = Total::Float(*acc as f64 + f),
            Total::Float(acc) => *acc += f,
        }
    }
}

/// Make `x` the new `best` when it lies on the `want` side of it (`Less` for
/// MIN, `Greater` for MAX); `best` is NULL until a group's first value.
#[inline]
fn offer_int(best: &mut Value, x: i64, want: Ordering) {
    let ord = match &*best {
        Value::Null => want,
        Value::Int(b) => x.cmp(b),
        Value::Float(b) => cmp_int_float(x, *b),
        other => Value::Int(x).cmp(other),
    };
    if ord == want {
        *best = Value::Int(x);
    }
}

#[inline]
fn offer_float(best: &mut Value, x: f64, want: Ordering) {
    let ord = match &*best {
        Value::Null => want,
        Value::Float(b) => x.total_cmp(b),
        Value::Int(b) => cmp_int_float(*b, x).reverse(),
        other => Value::Float(x).cmp(other),
    };
    if ord == want {
        *best = Value::Float(x);
    }
}

/// Add `w` to `key`'s count in a multiset; a count that reaches 0 leaves.
pub fn merge_weight<K: Ord>(map: &mut BTreeMap<K, i64>, key: K, w: i64) {
    use std::collections::btree_map::Entry;
    match map.entry(key) {
        Entry::Occupied(o) if *o.get() == -w => _ = o.remove(),
        Entry::Occupied(mut o) => *o.get_mut() += w,
        Entry::Vacant(v) if w != 0 => _ = v.insert(w),
        Entry::Vacant(_) => {}
    }
}

/// Call `f(ids[i], cells[i], w(i))` for each non-NULL position `i` of `col`,
/// whose typed vector is `cells`: a NULL-free loop, or one that reads the
/// bitmap.
#[inline]
fn fold<T: Copy>(
    ids: &[u32],
    col: &Column,
    cells: &[T],
    w: impl Fn(usize) -> i64,
    mut f: impl FnMut(usize, T, i64),
) {
    if col.no_nulls() {
        let rows = ids.iter().zip(cells).enumerate();
        rows.for_each(|(i, (&g, &x))| f(g as usize, x, w(i)));
    } else {
        let valid = (0..cells.len()).filter(|&i| !col.is_null(i));
        valid.for_each(|i| f(ids[i] as usize, cells[i], w(i)));
    }
}

/// Keep only the entries `ids` (ascending) of `v`, in order.
fn keep_ids<T>(v: &mut Vec<T>, ids: &[u32]) {
    let (mut ids, mut all) = (ids.iter().peekable(), 0u32..);
    v.retain(|_| all.next().is_some_and(|g| ids.next_if_eq(&&g).is_some()));
}

/// One aggregate's state over all groups.
#[derive(Debug)]
pub struct GroupedAgg {
    func: AggFunc,
    distinct: bool,
    /// Built by [`Self::retractable`]: a weight may be negative.
    retract: bool,
    /// MIN, MAX: the side of the best value so far a better one lies on.
    want: Ordering,
    /// COUNT, COUNT(*), SUM, AVG: the weight of the rows (non-NULL arguments)
    /// counted; a SUM or AVG whose count is 0 is NULL.
    counts: Vec<i64>,
    /// SUM, AVG: the weighted total.
    sums: Vec<Total>,
    /// MIN, MAX: NULL until the group's first non-NULL argument.
    best: Vec<Value>,
    /// MIN, MAX when retractable, in place of `best`: each argument value's
    /// weighted count, in [`Value`]'s order.
    counted: Vec<BTreeMap<Value, i64>>,
    /// DISTINCT: the argument values already counted.
    seen: Vec<HashSet<Value>>,
}

impl GroupedAgg {
    /// State for one aggregate, no groups yet.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        let want = if func == Min { Ordering::Less } else { Ordering::Greater };
        let (counts, sums, best, counted, seen) = Default::default();
        let retract = false;
        GroupedAgg { func, distinct, retract, want, counts, sums, best, counted, seen }
    }

    /// State for one aggregate whose rows may be retracted, no groups yet.
    pub fn retractable(func: AggFunc) -> Self {
        GroupedAgg { retract: true, ..GroupedAgg::new(func, false) }
    }

    /// Make room for group ids below `groups`; new groups start empty.
    pub fn grow(&mut self, groups: usize) {
        match self.func {
            Min | Max if self.retract => self.counted.resize_with(groups, BTreeMap::new),
            Min | Max => self.best.resize(groups, Value::Null),
            Count | CountStar => self.counts.resize(groups, 0),
            Sum | Avg => {
                self.counts.resize(groups, 0);
                self.sums.resize(groups, Total::ZERO);
            }
        }
        if self.distinct {
            self.seen.resize_with(groups, HashSet::new);
        }
    }

    /// Can this chunk's argument go through [`Self::update`]? Yes for
    /// `COUNT(*)` (no argument), a plain `COUNT` (it reads only the NULLs),
    /// and a typed `Int`/`Float` vector — unless the aggregate is `DISTINCT`,
    /// or retractable and a MIN/MAX or a SUM/AVG over floats.
    pub fn typed(&self, arg: Option<&Column>) -> bool {
        let typed = |c: &Column| match (self.func, c.data()) {
            (Count | CountStar, _) => true,
            (Min | Max, _) | (Sum | Avg, ColumnData::Float(_)) if self.retract => false,
            (_, data) => matches!(data, ColumnData::Int(_) | ColumnData::Float(_)),
        };
        arg.is_none_or(|c| !self.distinct && typed(c))
    }

    /// Fold a whole chunk in: position `i` of `arg` (every row, for
    /// `COUNT(*)`) belongs to group `ids[i]` and weighs `w(i)`. Requires
    /// [`Self::typed`].
    pub fn update(&mut self, ids: &[u32], arg: Option<&Column>, w: impl Fn(usize) -> i64) {
        use ColumnData::{Float, Int};
        let want = self.want;
        let (counts, sums, best) = (&mut self.counts, &mut self.sums, &mut self.best);
        let Some(col) = arg else {
            // No argument is COUNT(*): it counts rows unconditionally.
            return ids.iter().enumerate().for_each(|(i, &g)| counts[g as usize] += w(i));
        };
        match (self.func, col.data()) {
            // Only the positions matter: the ids stand in for the cells.
            (Count | CountStar, _) => fold(ids, col, ids, w, |g, _, w| counts[g] += w),
            (Sum | Avg, Int(v)) => fold(ids, col, v, w, |g, x, w| {
                counts[g] += w;
                sums[g].add_int(x, w);
            }),
            (Sum | Avg, Float(v)) => fold(ids, col, v, w, |g, x, w| {
                counts[g] += w;
                sums[g].add_float(x, w);
            }),
            (Min | Max, Int(v)) => fold(ids, col, v, w, |g, x, _| offer_int(&mut best[g], x, want)),
            (Min | Max, Float(v)) => {
                fold(ids, col, v, w, |g, x, _| offer_float(&mut best[g], x, want))
            }
            _ => unreachable!("typed() admits only Int and Float argument vectors"),
        }
    }

    /// Feed one argument cell of group `group` as a [`Value`], weighing `w`
    /// (NULLs are ignored, per SQL).
    pub fn push(&mut self, group: usize, v: &Value, w: i64) -> Result<()> {
        if v.is_null() || (self.distinct && !self.seen[group].insert(v.clone())) {
            return Ok(());
        }
        match self.func {
            Count | CountStar => self.counts[group] += w,
            Sum | Avg => {
                match v {
                    Value::Int(i) => self.sums[group].add_int(*i, w),
                    Value::Float(f) if !self.retract => self.sums[group].add_float(*f, w),
                    _ if self.retract => return Err(EiiError::Execution(format!(
                        "retractable SUM/AVG over non-integer value {v} \
                         (plan-time validation should have fallen back)"
                    ))),
                    _ => return Err(EiiError::Type(format!("SUM over non-numeric {v}"))),
                }
                self.counts[group] += w;
            }
            Min | Max if self.retract => merge_weight(&mut self.counted[group], v.clone(), w),
            Min | Max => {
                if self.best[group].is_null() || v.cmp(&self.best[group]) == self.want {
                    self.best[group] = v.clone();
                }
            }
        }
        Ok(())
    }

    /// Group `g`'s value.
    pub fn value(&self, g: usize) -> Value {
        let n = self.counts.get(g).copied().unwrap_or(0);
        match (self.func, self.sums.get(g)) {
            (Count | CountStar, _) => Value::Int(n),
            (Sum | Avg, _) if n == 0 => Value::Null,
            (Sum, Some(&Total::Int(i))) => Value::Int(i),
            (Sum, Some(&Total::Float(f))) => Value::Float(f),
            // AVG is total ÷ count.
            (Avg, Some(&Total::Int(i))) => Value::Float(i as f64 / n as f64),
            (Avg, Some(&Total::Float(f))) => Value::Float(f / n as f64),
            _ if self.retract => {
                let mut values = self.counted[g].keys();
                let v = if self.want == Ordering::Less { values.next() } else { values.next_back() };
                v.cloned().unwrap_or(Value::Null)
            }
            _ => self.best[g].clone(),
        }
    }

    /// The value of every group below `groups`, in group-id order; the ones
    /// never fed are empty (a global aggregate's over zero rows).
    pub fn finish(&mut self, groups: usize) -> Vec<Value> {
        self.grow(groups);
        (0..groups).map(|g| self.value(g)).collect()
    }

    /// Keep only groups `ids` (ascending), renumbered `0..ids.len()` in order.
    pub fn keep(&mut self, ids: &[u32]) {
        keep_ids(&mut self.counts, ids);
        keep_ids(&mut self.sums, ids);
        keep_ids(&mut self.best, ids);
        keep_ids(&mut self.counted, ids);
        keep_ids(&mut self.seen, ids);
    }
}

/// Fold one chunk into every aggregate: `aggs[a]` reads `args[a]` (`None` is
/// `COUNT(*)`) over `chunk`, row `i` into group `ids[i]`, weighing `w(i)`;
/// groups below `groups` exist. An unweighted chunk passes `|_| 1`, which
/// compiles to the plain loops.
pub fn fold_chunk(
    aggs: &mut [GroupedAgg],
    args: &[Option<BoundExpr>],
    chunk: &ColumnarBatch,
    ids: &[u32],
    groups: usize,
    w: impl Fn(usize) -> i64 + Copy,
) -> Result<()> {
    let cols = (args.iter())
        .map(|a| a.as_ref().map(|e| eval_column(e, chunk)).transpose())
        .collect::<Result<Vec<_>>>()?;
    // Typed arguments cannot fail, so each gets a loop of its own; the rest
    // are walked row-major together, so that the error is the first failing
    // row's (and in that row the first failing aggregate's).
    let mut by_value = Vec::new();
    for (agg, col) in aggs.iter_mut().zip(&cols) {
        agg.grow(groups);
        match col {
            Some(col) if !agg.typed(Some(col)) => by_value.push((agg, col)),
            _ => agg.update(ids, col.as_deref(), w),
        }
    }
    let rows = if by_value.is_empty() { &[][..] } else { ids };
    for (row, &group) in rows.iter().enumerate() {
        for (agg, col) in &mut by_value {
            agg.push(group as usize, &col.value(row), w(row))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::DataType;

    /// One group fed `vals`: through the `Value` path, and — where the values
    /// make a typed column — through the typed path, which must agree.
    fn run(func: AggFunc, distinct: bool, vals: &[Value]) -> Value {
        let mut by_value = GroupedAgg::new(func, distinct);
        by_value.grow(1);
        for v in vals {
            by_value.push(0, v, 1).unwrap();
        }
        let want = by_value.finish(1).pop().unwrap();
        for ty in [DataType::Int, DataType::Float] {
            let col = Column::from_values(vals, ty);
            let mut typed = GroupedAgg::new(func, distinct);
            typed.grow(1);
            if typed.typed(Some(&col)) {
                typed.update(&vec![0; vals.len()], Some(&col), |_| 1);
                assert_eq!(typed.finish(1), std::slice::from_ref(&want), "{func:?} over {ty:?}");
            }
        }
        want
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggFunc::Count, false, &vals), Value::Int(2));
        let mut star = GroupedAgg::new(AggFunc::CountStar, false);
        star.grow(2);
        assert!(star.typed(None));
        star.update(&[1, 0, 1], None, |_| 1);
        assert_eq!(star.finish(2), [Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn sum_stays_integer_until_float() {
        assert_eq!(
            run(AggFunc::Sum, false, &[Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
        assert_eq!(
            run(AggFunc::Sum, false, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
        assert_eq!(run(AggFunc::Sum, false, &[Value::Null]), Value::Null);
        // A first float is added to an integral zero: `0.0 + -0.0` is `+0.0`.
        let zero = run(AggFunc::Sum, false, &[Value::Float(-0.0)]);
        assert!(matches!(zero, Value::Float(z) if z.to_bits() == 0));
        assert_eq!(
            run(AggFunc::Sum, false, &[Value::Int(i64::MAX), Value::Int(1)]),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn avg_min_max() {
        let vals = [Value::Int(1), Value::Int(2), Value::Int(3), Value::Null];
        assert_eq!(run(AggFunc::Avg, false, &vals), Value::Float(2.0));
        assert_eq!(run(AggFunc::Min, false, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, false, &vals), Value::Int(3));
        // The total order, not IEEE's: NaN is the largest float.
        let floats = [Value::Float(f64::NAN), Value::Float(1.0), Value::Float(-0.0)];
        assert!(matches!(run(AggFunc::Max, false, &floats), Value::Float(f) if f.is_nan()));
        assert!(matches!(run(AggFunc::Min, false, &floats), Value::Float(f) if f == 0.0));
    }

    #[test]
    fn distinct_dedups() {
        let vals = [Value::Int(5), Value::Int(5), Value::Int(7)];
        assert_eq!(run(AggFunc::Count, true, &vals), Value::Int(2));
        assert_eq!(run(AggFunc::Sum, true, &vals), Value::Int(12));
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(run(AggFunc::Count, false, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Sum, false, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, false, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, false, &[]), Value::Null);
    }

    #[test]
    fn sum_over_strings_errors() {
        let mut acc = GroupedAgg::new(AggFunc::Sum, false);
        acc.grow(1);
        assert!(!acc.typed(Some(&Column::from_values(&[Value::str("x")], DataType::Str))));
        assert!(acc.push(0, &Value::str("x"), 1).is_err());
    }
}
