//! Grouped aggregate state with SQL NULL semantics: the one aggregate, which
//! the executor's `GROUP BY` and IVM's maintained groups both fold through.
//!
//! One [`GroupedAgg`] is one aggregate of a `GROUP BY` and holds its state for
//! *every* group, indexed by group id, in typed lanes: a `COUNT` is a
//! `Vec<i64>`; a SUM or AVG an `i64` total per group, which moves to an `f64`
//! total at the group's first float; a MIN or MAX an `i64` lane (`Int`, and
//! `Bool`/`Timestamp` bests), an `f64` lane and, once a string is offered, a
//! string lane, with a per-group [`Lane`] tag saying which one holds the best
//! value (none yet, Int, Float, …). A row weighs `+1` unless the caller passes
//! one weight per row (IVM's `-1` retracts). [`fold_chunk`] takes a chunk in
//! one of two ways per aggregate, chosen by [`GroupedAgg::typed`]:
//! [`GroupedAgg::update`] is one loop over a typed `Int`/`Float` argument
//! vector beside the chunk's group ids that reads and writes the lanes only —
//! no `Value`, no failure; [`GroupedAgg::push`], the only entry that takes a
//! [`Value`], updates the same lanes one cell at a time — `DISTINCT`,
//! `Mixed`/`Str`/`Bool`/`Timestamp` arguments (the only cells a `SUM` can fail
//! on) and a retractable MIN/MAX. `value`/`finish` build one `Value` per group.
//! Both entries keep one arithmetic: SUM is integral (wrapping) until the
//! first float and adds floats in input order, SUM/AVG are NULL while no
//! non-NULL argument is counted, MIN/MAX follow [`Value`]'s total order
//! (`cmp_int_float` between the two numeric lanes) and keep the first of
//! equals. A [`GroupedAgg::retractable`] state keeps a counted ordered
//! multiset per group for MIN/MAX, and refuses a non-integer SUM/AVG cell (a
//! float total does not survive retraction).

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use eii_data::value::cmp_int_float;
use eii_data::{Column, ColumnData, ColumnarBatch, EiiError, Result, Value};
use eii_expr::AggFunc::{self, Avg, Count, CountStar, Max, Min, Sum};
use eii_expr::{eval_column, BoundExpr};

/// Which lane holds a group's MIN/MAX, in [`Value`]'s order of types (the
/// numbers compare with each other); for SUM/AVG, whether the group's total
/// is still the integral one (`Empty`) or has moved to the float (`Float`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Lane {
    Empty,
    Bool,
    Int,
    Float,
    Str,
    Timestamp,
}

impl Lane {
    /// Off the integer lane: a group whose value is neither absent nor an
    /// `Int` (an integral total).
    fn off(self) -> bool {
        !matches!(self, Lane::Empty | Lane::Int)
    }
}

/// Put group `g` in `lane`, keeping `off` — the number of groups off the
/// integer lane — true.
#[inline]
fn relane(lanes: &mut [Lane], off: &mut usize, g: usize, lane: Lane) {
    *off = *off + usize::from(lane.off()) - usize::from(lanes[g].off());
    lanes[g] = lane;
}

/// Add `x · w` to a group's total: the integral one (wrapping), or the float
/// one once the group has moved there.
#[inline]
fn add_int(lane: Lane, int: &mut i64, float: &mut f64, x: i64, w: i64) {
    let x = x.wrapping_mul(w);
    if lane == Lane::Float {
        *float += x as f64;
    } else {
        *int = int.wrapping_add(x);
    }
}

/// Add `x · w` to group `g`'s float total, moving it there first: a first
/// float `f` contributes `total as f64 + f`.
#[inline]
fn add_float(lanes: &mut [Lane], off: &mut usize, g: usize, int: i64, float: &mut f64, x: f64, w: i64) {
    if lanes[g] != Lane::Float {
        relane(lanes, off, g, Lane::Float);
        *float = int as f64;
    }
    *float += x * w as f64;
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

/// The first class of equal cells (an `Int` and its `Float` twin) in `cells`
/// whose counts sum above 0, answered by one of its cells counted above 0.
fn live<'a>(cells: impl Iterator<Item = (&'a (Value, bool), &'a i64)>) -> Value {
    let mut cells = cells.peekable();
    while let Some(((v, _), &n)) = cells.next() {
        let (mut total, mut cell) = (n, (n > 0).then_some(v));
        while let Some(((twin, _), &m)) = cells.next_if(|((u, _), _)| u == v) {
            total += m;
            cell = cell.or((m > 0).then_some(twin));
        }
        if let Some(cell) = cell.filter(|_| total > 0) {
            return cell.clone();
        }
    }
    Value::Null
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
    /// SUM, AVG, MIN, MAX: which lane holds the group's total or best value.
    lanes: Vec<Lane>,
    /// How many `lanes` are off the integer lane. At 0 an `Int` chunk needs
    /// no tag per row; at `lanes.len()` neither does a SUM's `Float` chunk.
    off: usize,
    /// The integral total; an `Int`, `Bool` (0/1) or `Timestamp` best — for
    /// a MIN (MAX) group with none yet, `i64::MAX` (`i64::MIN`), so that the
    /// first `Int` beats it.
    ints: Vec<i64>,
    /// The float total; a `Float` best.
    floats: Vec<f64>,
    /// A `Str` best; grown only once a string is offered.
    strs: Vec<Arc<str>>,
    /// MIN, MAX when retractable, in place of the lanes: each argument
    /// cell's weighted count in [`Value`]'s order, a `Float` apart (`true`);
    /// a retraction may come off an equal cell of the other flavor.
    counted: Vec<BTreeMap<(Value, bool), i64>>,
    /// DISTINCT: the argument values already counted.
    seen: Vec<HashSet<Value>>,
}

impl GroupedAgg {
    /// State for one aggregate, no groups yet.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        let want = if func == Min { Ordering::Less } else { Ordering::Greater };
        let (counts, lanes, ints, floats, strs, counted, seen) = Default::default();
        let (retract, off) = (false, 0);
        GroupedAgg { func, distinct, retract, want, counts, lanes, off, ints, floats, strs, counted, seen }
    }

    /// State for one aggregate whose rows may be retracted, no groups yet.
    pub fn retractable(func: AggFunc) -> Self {
        GroupedAgg { retract: true, ..GroupedAgg::new(func, false) }
    }

    /// Make room for group ids below `groups`; new groups start empty.
    pub fn grow(&mut self, groups: usize) {
        match self.func {
            Min | Max if self.retract => self.counted.resize_with(groups, BTreeMap::new),
            Count | CountStar => self.counts.resize(groups, 0),
            Sum | Avg | Min | Max => {
                if matches!(self.func, Sum | Avg) {
                    self.counts.resize(groups, 0);
                }
                let none = match self.func {
                    Min => i64::MAX,
                    Max => i64::MIN,
                    _ => 0,
                };
                self.lanes.resize(groups, Lane::Empty);
                self.ints.resize(groups, none);
                self.floats.resize(groups, 0.0);
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
        let (func, want) = (self.func, self.want);
        let GroupedAgg { counts, lanes, off, ints, floats, .. } = self;
        let Some(col) = arg else {
            // No argument is COUNT(*): it counts rows unconditionally.
            return ids.iter().enumerate().for_each(|(i, &g)| counts[g as usize] += w(i));
        };
        // Every group on the integer lane, or (SUM) every one on the float.
        let (ints_only, floats_only) = (*off == 0, *off == lanes.len());
        match (func, col.data()) {
            // Only the positions matter: the ids stand in for the cells.
            (Count | CountStar, _) => fold(ids, col, ids, w, |g, _, w| counts[g] += w),
            (Sum | Avg, Int(v)) if ints_only => fold(ids, col, v, w, |g, x, w| {
                counts[g] += w;
                ints[g] = ints[g].wrapping_add(x.wrapping_mul(w));
            }),
            (Sum | Avg, Int(v)) => fold(ids, col, v, w, |g, x, w| {
                counts[g] += w;
                add_int(lanes[g], &mut ints[g], &mut floats[g], x, w);
            }),
            (Sum | Avg, Float(v)) if floats_only => fold(ids, col, v, w, |g, x, w| {
                counts[g] += w;
                floats[g] += x * w as f64;
            }),
            (Sum | Avg, Float(v)) => fold(ids, col, v, w, |g, x, w| {
                counts[g] += w;
                add_float(lanes, off, g, ints[g], &mut floats[g], x, w);
            }),
            // An empty group's `ints` entry loses to any `Int`, and two equal
            // `Int`s are one value, so no tag is read.
            (Min | Max, Int(v)) if ints_only => fold(ids, col, v, w, |g, x, _| {
                if x.cmp(&ints[g]) != want.reverse() {
                    (lanes[g], ints[g]) = (Lane::Int, x);
                }
            }),
            (Min | Max, Int(v)) => fold(ids, col, v, w, |g, x, _| {
                let ord = match lanes[g] {
                    Lane::Int => x.cmp(&ints[g]),
                    Lane::Float => cmp_int_float(x, floats[g]),
                    Lane::Empty => want,
                    // A number lies above a Bool, below a Str or Timestamp.
                    lane => Lane::Int.cmp(&lane),
                };
                if ord == want {
                    relane(lanes, off, g, Lane::Int);
                    ints[g] = x;
                }
            }),
            (Min | Max, Float(v)) => fold(ids, col, v, w, |g, x, _| {
                let ord = match lanes[g] {
                    Lane::Float => x.total_cmp(&floats[g]),
                    Lane::Int => cmp_int_float(ints[g], x).reverse(),
                    Lane::Empty => want,
                    // A number lies above a Bool, below a Str or Timestamp.
                    lane => Lane::Int.cmp(&lane),
                };
                if ord == want {
                    relane(lanes, off, g, Lane::Float);
                    floats[g] = x;
                }
            }),
            _ => unreachable!("typed() admits only Int and Float argument vectors"),
        }
    }

    /// Feed one argument cell of group `g` as a [`Value`], weighing `w`
    /// (NULLs are ignored, per SQL).
    pub fn push(&mut self, g: usize, v: &Value, w: i64) -> Result<()> {
        if v.is_null() || (self.distinct && !self.seen[g].insert(v.clone())) {
            return Ok(());
        }
        match self.func {
            Count | CountStar => self.counts[g] += w,
            Sum | Avg => {
                let GroupedAgg { lanes, off, ints, floats, .. } = self;
                match v {
                    Value::Int(i) => add_int(lanes[g], &mut ints[g], &mut floats[g], *i, w),
                    Value::Float(f) if !self.retract => {
                        add_float(lanes, off, g, ints[g], &mut floats[g], *f, w)
                    }
                    _ if self.retract => return Err(EiiError::Execution(format!(
                        "retractable SUM/AVG over non-integer value {v} \
                         (plan-time validation should have fallen back)"
                    ))),
                    _ => return Err(EiiError::Type(format!("SUM over non-numeric {v}"))),
                }
                self.counts[g] += w;
            }
            Min | Max if self.retract => {
                merge_weight(&mut self.counted[g], (v.clone(), matches!(v, Value::Float(_))), w)
            }
            Min | Max => {
                let ord = match (self.lanes[g], v) {
                    (Lane::Empty, _) => self.want,
                    (Lane::Str, Value::Str(s)) => s.cmp(&self.strs[g]),
                    _ => v.cmp(&self.best(g)),
                };
                if ord == self.want {
                    self.set_best(g, v);
                }
            }
        }
        Ok(())
    }

    /// Group `g`'s MIN/MAX lane as a [`Value`] (NULL before its first).
    fn best(&self, g: usize) -> Value {
        let (i, f) = (self.ints[g], self.floats[g]);
        match self.lanes[g] {
            Lane::Empty => Value::Null,
            Lane::Bool => Value::Bool(i != 0),
            Lane::Int => Value::Int(i),
            Lane::Float => Value::Float(f),
            Lane::Str => Value::Str(Arc::clone(&self.strs[g])),
            Lane::Timestamp => Value::Timestamp(i),
        }
    }

    /// Make the non-NULL `v` group `g`'s MIN/MAX.
    fn set_best(&mut self, g: usize, v: &Value) {
        let GroupedAgg { lanes, off, ints, floats, strs, .. } = self;
        let lane = match *v {
            Value::Bool(b) => {
                ints[g] = i64::from(b);
                Lane::Bool
            }
            Value::Int(i) => {
                ints[g] = i;
                Lane::Int
            }
            Value::Float(f) => {
                floats[g] = f;
                Lane::Float
            }
            Value::Timestamp(t) => {
                ints[g] = t;
                Lane::Timestamp
            }
            Value::Str(ref s) => {
                strs.resize(lanes.len(), Arc::clone(s));
                strs[g] = Arc::clone(s);
                Lane::Str
            }
            Value::Null => unreachable!("push ignores NULLs"),
        };
        relane(lanes, off, g, lane);
    }

    /// Group `g`'s value.
    pub fn value(&self, g: usize) -> Value {
        let n = self.counts.get(g).copied().unwrap_or(0);
        match self.func {
            Count | CountStar => Value::Int(n),
            Sum | Avg if n == 0 => Value::Null,
            Sum | Avg => match (self.func, self.lanes[g]) {
                (Sum, Lane::Float) => Value::Float(self.floats[g]),
                (Sum, _) => Value::Int(self.ints[g]),
                // AVG is total ÷ count.
                (_, Lane::Float) => Value::Float(self.floats[g] / n as f64),
                _ => Value::Float(self.ints[g] as f64 / n as f64),
            },
            Min | Max if self.retract => {
                let cells = self.counted[g].iter();
                if self.want == Ordering::Less { live(cells) } else { live(cells.rev()) }
            }
            Min | Max => self.best(g),
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
        keep_ids(&mut self.lanes, ids);
        self.off = self.lanes.iter().filter(|l| l.off()).count();
        keep_ids(&mut self.ints, ids);
        keep_ids(&mut self.floats, ids);
        keep_ids(&mut self.strs, ids);
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
    fn min_max_lanes_follow_the_total_order_across_types() {
        // Numbers arrive as one-row typed chunks, everything else as cells:
        // every rotation of the list through both entries agrees with a fold
        // of `Value`'s order that keeps the first of equals.
        let vals = [
            Value::str("b"),
            Value::Int(2),
            Value::Bool(true),
            Value::Float(2.0),
            Value::Timestamp(5),
            Value::Float(f64::NAN),
            Value::Str("a".into()),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Bool(false),
        ];
        for func in [AggFunc::Min, AggFunc::Max] {
            let want = if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
            for r in 0..vals.len() {
                let order: Vec<&Value> = vals[r..].iter().chain(&vals[..r]).collect();
                let mut agg = GroupedAgg::new(func, false);
                agg.grow(1);
                let mut best = Value::Null;
                for v in order {
                    if best.is_null() || v.cmp(&best) == want {
                        best = v.clone();
                    }
                    let ty = match v {
                        Value::Int(_) => DataType::Int,
                        Value::Float(_) => DataType::Float,
                        _ => DataType::Str,
                    };
                    let col = Column::from_values(std::slice::from_ref(v), ty);
                    if agg.typed(Some(&col)) {
                        agg.update(&[0], Some(&col), |_| 1);
                    } else {
                        agg.push(0, v, 1).unwrap();
                    }
                    assert_eq!(format!("{:?}", agg.value(0)), format!("{best:?}"), "{func:?} from {r}");
                }
            }
        }
    }

    #[test]
    fn a_retracted_min_max_answers_a_cell_still_counted() {
        // `Int(2)` and `Float(2.0)` are equal `Value`s; once the `Int` is
        // retracted, the surviving row's own cell answers, as a recompute
        // over it does.
        for func in [AggFunc::Min, AggFunc::Max] {
            let mut agg = GroupedAgg::retractable(func);
            agg.grow(1);
            agg.push(0, &Value::Int(2), 1).unwrap();
            agg.push(0, &Value::Float(2.0), 1).unwrap();
            agg.push(0, &Value::Int(2), -1).unwrap();
            assert_eq!(format!("{:?}", agg.value(0)), format!("{:?}", Value::Float(2.0)), "{func:?}");
            agg.push(0, &Value::Float(2.0), -1).unwrap();
            assert_eq!(format!("{:?}", agg.value(0)), "Null", "{func:?}");
            // A retraction may come off the equal cell of the other flavor:
            // the class is empty, and the next one answers.
            agg.push(0, &Value::Int(3), 1).unwrap();
            agg.push(0, &Value::Int(5), 2).unwrap();
            agg.push(0, &Value::Float(3.0), -1).unwrap();
            agg.push(0, &Value::Float(5.0), -1).unwrap();
            assert_eq!(format!("{:?}", agg.value(0)), "Int(5)", "{func:?}");
        }
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
