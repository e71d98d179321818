//! Grouped aggregate state with SQL NULL semantics.
//!
//! One [`GroupedAgg`] is one aggregate of a `GROUP BY` and holds its state for
//! *every* group, indexed by group id, in only the vectors its function reads
//! (a `COUNT` is a `Vec<i64>`). A chunk enters one of two ways, chosen by
//! [`GroupedAgg::typed`]: [`GroupedAgg::update`] is one loop over a typed
//! `Int`/`Float` argument vector beside the chunk's group ids — no `Value`, no
//! failure; [`GroupedAgg::push`] takes one cell as a [`Value`] — `DISTINCT`,
//! and `Mixed`/`Str`/`Bool`/`Timestamp` arguments, the only cells a `SUM` can
//! fail on. Both keep one arithmetic: SUM is integral (wrapping) until the
//! first float and adds floats in input order, MIN/MAX follow [`Value`]'s
//! total order and keep the first of equals.

use std::cmp::Ordering;
use std::collections::HashSet;

use eii_data::value::cmp_int_float;
use eii_data::{Column, ColumnData, EiiError, Result, Value};
use eii_expr::AggFunc;

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
    fn add_int(&mut self, i: i64) {
        match self {
            Total::Int(acc) => *acc = acc.wrapping_add(i),
            Total::Float(acc) => *acc += i as f64,
        }
    }

    #[inline]
    fn add_float(&mut self, f: f64) {
        match self {
            Total::Int(acc) => *self = Total::Float(*acc as f64 + f),
            Total::Float(acc) => *acc += f,
        }
    }

    fn add(&mut self, v: &Value) -> Result<()> {
        match v {
            Value::Int(i) => self.add_int(*i),
            Value::Float(f) => self.add_float(*f),
            other => return Err(EiiError::Type(format!("SUM over non-numeric {other}"))),
        }
        Ok(())
    }

    fn value(self) -> Value {
        match self {
            Total::Int(i) => Value::Int(i),
            Total::Float(f) => Value::Float(f),
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

/// Call `f(ids[i], cells[i])` for each non-NULL position `i` of `col`, whose
/// typed vector is `cells`: a NULL-free loop, or one that reads the bitmap.
#[inline]
fn fold<T: Copy>(ids: &[u32], col: &Column, cells: &[T], mut f: impl FnMut(usize, T)) {
    if col.no_nulls() {
        ids.iter().zip(cells).for_each(|(&g, &x)| f(g as usize, x));
    } else {
        let valid = (0..cells.len()).filter(|&i| !col.is_null(i));
        valid.for_each(|i| f(ids[i] as usize, cells[i]));
    }
}

/// One aggregate's state over all groups.
#[derive(Debug)]
pub struct GroupedAgg {
    func: AggFunc,
    distinct: bool,
    /// MIN, MAX: the side of the best value so far a better one lies on.
    want: Ordering,
    /// COUNT, COUNT(*), AVG: rows (non-NULL arguments) counted.
    counts: Vec<i64>,
    /// SUM, AVG: `None` until the group's first non-NULL argument.
    sums: Vec<Option<Total>>,
    /// MIN, MAX: NULL until the group's first non-NULL argument.
    best: Vec<Value>,
    /// DISTINCT: the argument values already counted.
    seen: Vec<HashSet<Value>>,
}

impl GroupedAgg {
    /// State for one aggregate, no groups yet.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        let want = if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
        let (counts, sums, best, seen) = Default::default();
        GroupedAgg { func, distinct, want, counts, sums, best, seen }
    }

    /// Make room for group ids below `groups`; new groups start empty.
    pub fn grow(&mut self, groups: usize) {
        if matches!(self.func, AggFunc::Count | AggFunc::CountStar | AggFunc::Avg) {
            self.counts.resize(groups, 0);
        }
        match self.func {
            AggFunc::Sum | AggFunc::Avg => self.sums.resize(groups, None),
            AggFunc::Min | AggFunc::Max => self.best.resize(groups, Value::Null),
            AggFunc::Count | AggFunc::CountStar => {}
        }
        if self.distinct {
            self.seen.resize_with(groups, HashSet::new);
        }
    }

    /// Can this chunk's argument go through [`Self::update`]? Yes for
    /// `COUNT(*)` (no argument), a plain `COUNT` (it reads only the NULLs),
    /// and a typed `Int`/`Float` vector — unless the aggregate is `DISTINCT`.
    pub fn typed(&self, arg: Option<&Column>) -> bool {
        let numeric = |c: &Column| matches!(c.data(), ColumnData::Int(_) | ColumnData::Float(_));
        arg.is_none_or(|c| !self.distinct && (self.func == AggFunc::Count || numeric(c)))
    }

    /// Fold a whole chunk in: position `i` of `arg` (every row, for
    /// `COUNT(*)`) belongs to group `ids[i]`. Requires [`Self::typed`].
    pub fn update(&mut self, ids: &[u32], arg: Option<&Column>) {
        use AggFunc::{Avg, Count, CountStar, Max, Min, Sum};
        use ColumnData::{Float, Int};
        let want = self.want;
        let (counts, sums, best) = (&mut self.counts, &mut self.sums, &mut self.best);
        let Some(col) = arg else {
            // No argument is COUNT(*): it counts rows unconditionally.
            return ids.iter().for_each(|&g| counts[g as usize] += 1);
        };
        if matches!(self.func, Count | Avg) {
            // Only the positions matter: the ids stand in for the cells.
            fold(ids, col, ids, |g, _| counts[g] += 1);
        }
        let zero = Total::ZERO;
        match (self.func, col.data()) {
            (Count | CountStar, _) => {}
            (Sum | Avg, Int(v)) => fold(ids, col, v, |g, x| sums[g].get_or_insert(zero).add_int(x)),
            (Sum | Avg, Float(v)) => {
                fold(ids, col, v, |g, x| sums[g].get_or_insert(zero).add_float(x))
            }
            (Min | Max, Int(v)) => fold(ids, col, v, |g, x| offer_int(&mut best[g], x, want)),
            (Min | Max, Float(v)) => fold(ids, col, v, |g, x| offer_float(&mut best[g], x, want)),
            _ => unreachable!("typed() admits only Int and Float argument vectors"),
        }
    }

    /// Feed one argument cell of group `group` as a [`Value`] (NULLs are
    /// ignored, per SQL).
    pub fn push(&mut self, group: usize, v: &Value) -> Result<()> {
        if v.is_null() || (self.distinct && !self.seen[group].insert(v.clone())) {
            return Ok(());
        }
        if let Some(count) = self.counts.get_mut(group) {
            *count += 1;
        }
        match self.func {
            AggFunc::Count | AggFunc::CountStar => {}
            AggFunc::Sum | AggFunc::Avg => self.sums[group].get_or_insert(Total::ZERO).add(v)?,
            AggFunc::Min | AggFunc::Max => {
                if self.best[group].is_null() || v.cmp(&self.best[group]) == self.want {
                    self.best[group] = v.clone();
                }
            }
        }
        Ok(())
    }

    /// Produce every group's final value, in group-id order.
    pub fn finish(self) -> Vec<Value> {
        let sums = self.sums.into_iter();
        match self.func {
            AggFunc::Count | AggFunc::CountStar => {
                self.counts.into_iter().map(Value::Int).collect()
            }
            AggFunc::Sum => sums.map(|s| s.map_or(Value::Null, Total::value)).collect(),
            // AVG is total ÷ count.
            AggFunc::Avg => (sums.zip(self.counts))
                .map(|(s, n)| match s {
                    Some(Total::Int(i)) => Value::Float(i as f64 / n as f64),
                    Some(Total::Float(f)) => Value::Float(f / n as f64),
                    None => Value::Null,
                })
                .collect(),
            AggFunc::Min | AggFunc::Max => self.best,
        }
    }
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
            by_value.push(0, v).unwrap();
        }
        let want = by_value.finish().pop().unwrap();
        for ty in [DataType::Int, DataType::Float] {
            let col = Column::from_values(vals, ty);
            let mut typed = GroupedAgg::new(func, distinct);
            typed.grow(1);
            if typed.typed(Some(&col)) {
                typed.update(&vec![0; vals.len()], Some(&col));
                assert_eq!(typed.finish(), std::slice::from_ref(&want), "{func:?} over {ty:?}");
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
        star.update(&[1, 0, 1], None);
        assert_eq!(star.finish(), [Value::Int(1), Value::Int(2)]);
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
        assert!(acc.push(0, &Value::str("x")).is_err());
    }
}
