//! The identities the chunk-list data path rests on, as properties over one
//! hazard set (NULL-heavy cells, Int/Float twins at 2^53 ± 1, `i64::MAX`,
//! `-0.0`, NaN, columns that are typed in one chunk and `Mixed` in the next):
//!
//! - the typed, column-at-a-time [`VecAggregate`] is the `Value`-at-a-time
//!   accumulator it replaced, bit for bit, for 0–3 group keys, however the
//!   input is cut into chunks;
//! - a retractable [`GroupedAgg`] fed weighted rows is an unweighted one fed
//!   the rows that survive the retractions;
//! - the shared key table — join build/probe and DISTINCT — is a
//!   `HashMap<Vec<Value>, _>`;
//! - a failing `SUM` reports the first failing *row*, not the first failing
//!   aggregate;
//! - a sort told that only its first `k` rows will be read returns, in those
//!   `k` positions, the rows the full (stable) sort returns, and every row
//!   still; and the executor tells it so only through nodes that emit exactly
//!   their input rows in input order;
//! - a join asked for some of its columns emits the full-width join's rows,
//!   projected — whatever the subset, the residual and the chunking — and it
//!   is asked only by the nodes that read by name.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use eii_data::{
    Batch, Column, ColumnarBatch, DataType, EiiError, Field, Row, Schema, SchemaRef, Value,
};
use eii_exec::agg::{fold_chunk, GroupedAgg};
use eii_exec::{
    drive, sort_batch, BatchOperator, Chunks, ColumnPick, Executor, VecAggregate, VecHashJoin,
};
use eii_expr::{eval_column, AggFunc, BinaryOp, BoundExpr, Expr};
use eii_federation::Federation;
use eii_planner::{AggItem, JoinSite, PhysicalPlan};
use eii_sql::JoinKind;
use proptest::prelude::*;

#[path = "../../../tests/support/hazards.rs"]
mod hazards;
#[path = "../../../tests/support/oracle.rs"]
mod oracle;
use oracle::Oracle;

const P53: i64 = 1 << 53;

/// Cell `pick` of a column of the given flavor: 0 is all `Int`, 1 all
/// `Float`, 2 all `Str` (so the column is a typed vector with a bitmap), 3
/// anything at all (`Mixed`). Every flavor is NULL-heavy.
fn cell(flavor: usize, pick: usize) -> Value {
    let ints = [0, 1, 2, -1, P53 - 1, P53, P53 + 1, i64::MAX].map(Value::Int);
    let floats = [0.0, -0.0, 1.0, 2.0, 2.5, P53 as f64, f64::NAN, -1.0].map(Value::Float);
    let strs = ["", "a", "b", "2"].map(Value::str);
    let nulls = [Value::Null, Value::Null, Value::Null];
    let pool: Vec<Value> = match flavor {
        0 => ints.into_iter().chain(nulls).collect(),
        1 => floats.into_iter().chain(nulls).collect(),
        2 => strs.into_iter().chain(nulls).collect(),
        _ => (ints.into_iter().chain(floats).chain(strs).chain(nulls))
            .chain([Value::Bool(true), Value::Timestamp(2)])
            .collect(),
    };
    pool[pick % pool.len()].clone()
}

/// Numeric cells only (a `SUM` over them cannot fail): `Int`, `Float`, or a
/// mix whose early rows are integers — the Int → Float ladder.
fn numeric_cell(flavor: usize, pick: usize, row: usize) -> Value {
    match flavor {
        0 | 1 => cell(flavor, pick),
        _ => cell(usize::from(row >= 3 && pick.is_multiple_of(3)), pick),
    }
}

fn schema(types: &[DataType]) -> SchemaRef {
    let fields = types.iter().enumerate().map(|(i, t)| Field::new(format!("c{i}"), *t));
    Arc::new(Schema::new(fields.collect()))
}

/// Where `cuts` cut `len` rows: the ascending, distinct chunk bounds, `0` and
/// `len` included.
fn bounds(len: usize, cuts: &[usize]) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
    bounds.extend([0, len]);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

/// Which chunk of `bounds` row `r` falls in.
fn chunk_of(bounds: &[usize], r: usize) -> usize {
    bounds.partition_point(|&b| b <= r) - 1
}

/// Cut `rows` at `cuts` into a chunk list. Each chunk is pivoted on its own,
/// so a column can be typed in one chunk and `Mixed` in the next; every other
/// chunk carries a selection. Column `twin`, if any, is pivoted at the type
/// of its chunk's cells — `Float` where one is a float, else the declared
/// type — as the chunks of a UNION ALL's `Float` branch arrive under its
/// `Int` branch's schema.
fn chunk_list(schema: &SchemaRef, rows: &[Row], cuts: &[usize], twin: Option<usize>) -> Chunks {
    let mut list = Chunks::new(schema.clone());
    for (i, w) in bounds(rows.len(), cuts).windows(2).enumerate() {
        let part = rows[w[0]..w[1]].to_vec();
        let own = |c: usize, f: &Field| match twin {
            Some(t) if t == c && part.iter().any(|r| matches!(r.get(c), Value::Float(_))) => {
                DataType::Float
            }
            _ => f.data_type,
        };
        let types: Vec<DataType> = schema.fields().iter().enumerate().map(|(c, f)| own(c, f)).collect();
        let chunk = ColumnarBatch::from_batch(&Batch::new(self::schema(&types), part))
            .with_schema(schema.clone());
        list.push(if i.is_multiple_of(2) {
            chunk
        } else {
            chunk.select((0..(w[1] - w[0]) as u32).collect())
        });
    }
    list
}

fn run(op: &mut dyn BatchOperator, input: &Chunks, out: &SchemaRef, batch_size: usize) -> Vec<Row> {
    let emitted = drive(op, input, out.clone(), batch_size, || Ok(())).unwrap();
    emitted.into_one().to_batch().into_rows()
}

/// Rows compared to the bit: `Int(2)` is not `Float(2.0)` here, nor `-0.0`
/// `0.0`.
fn exact(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// The accumulator `VecAggregate` used before it went typed: one `Value` in,
/// every function's state kept.
#[derive(Default)]
struct RefAcc {
    seen: HashSet<Value>,
    count: i64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
}

impl RefAcc {
    fn push(&mut self, distinct: bool, v: Option<&Value>) -> Result<(), String> {
        let Some(v) = v else {
            self.count += 1; // COUNT(*)
            return Ok(());
        };
        if v.is_null() || (distinct && !self.seen.insert(v.clone())) {
            return Ok(());
        }
        self.count += 1;
        self.sum = Some(match (self.sum.take().unwrap_or(Value::Int(0)), v) {
            (Value::Int(acc), Value::Int(i)) => Value::Int(acc.wrapping_add(*i)),
            (Value::Int(acc), Value::Float(f)) => Value::Float(acc as f64 + f),
            (Value::Float(acc), Value::Int(i)) => Value::Float(acc + *i as f64),
            (Value::Float(acc), Value::Float(f)) => Value::Float(acc + f),
            (_, other) => return Err(format!("SUM over non-numeric {other}")),
        });
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
            AggFunc::Sum => self.sum.clone().unwrap_or(Value::Null),
            AggFunc::Avg => match &self.sum {
                Some(s) => Value::Float(s.as_float().unwrap() / self.count as f64),
                None => Value::Null,
            },
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

const FUNCS: [AggFunc; 5] = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];

/// `func` fed `(group, cell, weight)` rows, groups below 3, through
/// [`fold_chunk`], cut into chunks at `cuts`: a retractable state, each row
/// weighing its weight, when `retract`; else a plain one, unweighted
/// (`|_| 1`). A chunk of an `Int` stream that holds a float is pivoted as
/// `Float`, as a UNION ALL's `Float` branch arrives under its `Int` branch's
/// schema (`Mixed` if it holds an integer too).
fn fold_rows(
    func: AggFunc,
    retract: bool,
    rows: &[(u32, Value, i64)],
    ty: DataType,
    cuts: &[usize],
) -> eii_data::Result<Vec<Value>> {
    let mut agg = if retract { GroupedAgg::retractable(func) } else { GroupedAgg::new(func, false) };
    let arg = (func != AggFunc::CountStar).then_some(BoundExpr::Column(0));
    for w in bounds(rows.len(), cuts).windows(2) {
        let part = &rows[w[0]..w[1]];
        let cells: Vec<Value> = part.iter().map(|r| r.1.clone()).collect();
        let float = ty == DataType::Int && cells.iter().any(|v| matches!(v, Value::Float(_)));
        let ty = if float { DataType::Float } else { ty };
        let col = Arc::new(Column::from_values(&cells, ty));
        let chunk = ColumnarBatch::new(schema(&[ty]), vec![col], part.len());
        let ids: Vec<u32> = part.iter().map(|r| r.0).collect();
        let (aggs, args) = (std::slice::from_mut(&mut agg), std::slice::from_ref(&arg));
        if retract {
            fold_chunk(aggs, args, &chunk, &ids, 3, |i| part[i].2)?;
        } else {
            fold_chunk(aggs, args, &chunk, &ids, 3, |_| 1)?;
        }
    }
    Ok(agg.finish(3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Identity (a): typed aggregation ≡ the `Value`-at-a-time reference.
    /// Argument column 6 is a UNION ALL's: a typed `Int` vector in one chunk
    /// and a typed `Float` vector in the next, or the reverse, drawn from the
    /// `2`/`2.0` ties, `i64::MAX`, NaN and `-0.0`, and NULL wherever key
    /// column 0 is (so a group keyed by it may count nothing).
    #[test]
    fn typed_aggregate_equals_the_value_at_a_time_reference(
        picks in proptest::collection::vec(proptest::collection::vec(0usize..64, 7..8), 0..40),
        flavors in proptest::collection::vec(0usize..4, 7..8),
        shape in (0usize..4, 0usize..4, proptest::collection::vec(0usize..64, 0..6)),
    ) {
        let (n_keys, size_pick, cuts) = shape;
        let chunks = bounds(picks.len(), &cuts);
        // Columns 0..3 are the candidate group keys, 3..7 the arguments.
        let rows: Vec<Row> = (picks.iter().enumerate())
            .map(|(r, p)| {
                let keys = (0..3).map(|c| cell(flavors[c], p[c]));
                let args = (3..6).map(|c| numeric_cell(flavors[c] % 3, p[c], r));
                let twin = match cell(flavors[0], p[0]) {
                    Value::Null => Value::Null,
                    _ => cell((chunk_of(&chunks, r) + flavors[6]) % 2, p[6]),
                };
                Row::new(keys.chain(args).chain([twin]).collect())
            })
            .collect();
        let input_schema = schema(&[
            DataType::Int, DataType::Str, DataType::Float,
            DataType::Int, DataType::Float, DataType::Int, DataType::Int,
        ]);
        // Every function over every argument column, plain and DISTINCT, and
        // COUNT(*).
        let mut aggs: Vec<(AggFunc, bool, Option<usize>)> = vec![(AggFunc::CountStar, false, None)];
        for arg in 3..7 {
            for func in FUNCS {
                aggs.extend([(func, false, Some(arg)), (func, true, Some(arg))]);
            }
        }
        let out_schema = {
            let keys = input_schema.fields()[..n_keys].iter().map(|f| f.data_type);
            let types: Vec<DataType> = keys.chain(aggs.iter().map(|_| DataType::Float)).collect();
            schema(&types)
        };
        let mut op = VecAggregate::new(
            (0..n_keys).map(BoundExpr::Column).collect(),
            aggs.iter().map(|a| a.2.map(BoundExpr::Column)).collect(),
            aggs.iter().map(|a| (a.0, a.1)).collect(),
            out_schema.clone(),
        );
        let batch_size = [1, 2, 3, 4096][size_pick];
        let got = run(&mut op, &chunk_list(&input_schema, &rows, &cuts, Some(6)), &out_schema, batch_size);

        // The reference: groups in first-seen order, one accumulator per
        // group and aggregate, fed row-major.
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<RefAcc>)> = Vec::new();
        if n_keys == 0 {
            groups.push((Vec::new(), aggs.iter().map(|_| RefAcc::default()).collect()));
            index.insert(Vec::new(), 0);
        }
        for row in &rows {
            let key: Vec<Value> = (0..n_keys).map(|c| row.get(c).clone()).collect();
            let g = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, aggs.iter().map(|_| RefAcc::default()).collect()));
                groups.len() - 1
            });
            for (acc, (_, distinct, arg)) in groups[g].1.iter_mut().zip(&aggs) {
                acc.push(*distinct, arg.map(|c| row.get(c))).unwrap();
            }
        }
        let want: Vec<Row> = groups
            .into_iter()
            .map(|(key, accs)| {
                let finished = accs.iter().zip(&aggs).map(|(acc, a)| acc.finish(a.0));
                Row::new(key.into_iter().chain(finished).collect())
            })
            .collect();
        prop_assert_eq!(exact(&got), exact(&want));
    }

    /// Identity (a′): a retractable `GroupedAgg` fed `(group, cell, weight)`
    /// rows, weights in −2..=3 and every value's running count in its group
    /// kept non-negative, ≡ a fresh unweighted one fed the rows that survive
    /// (each value its net count of times) — all six functions, through
    /// `fold_chunk` (typed wherever `typed()` admits the chunk, however it is
    /// cut) and through `push` row by row (COUNT(*) has no cell to push);
    /// and that reference's SUM/AVG is NULL exactly where no non-NULL cell
    /// survives. The cells are one flavor per stream: NULLs, `i64::MAX` for
    /// the wrapping SUM, the 2^53 twins, `-0.0` and NaN — or, in flavor 3, a
    /// UNION ALL's: `Int` cells in one chunk and `Float` cells in the next,
    /// weights ±1 and group 2 only NULLs. A retractable SUM/AVG refuses a
    /// non-integer cell instead.
    #[test]
    fn weighted_aggregate_equals_the_surviving_rows_unweighted(
        stream in proptest::collection::vec((0u32..3, 0usize..64, -2i64..4), 0..40),
        flavor in 0usize..4,
        cuts in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let ty = [DataType::Int, DataType::Float, DataType::Str, DataType::Int][flavor];
        let chunks = bounds(stream.len(), &cuts);
        let draw = |r: usize, g: u32, pick: usize| match flavor {
            3 if g == 2 => Value::Null,
            3 => cell(chunk_of(&chunks, r) % 2, pick),
            _ => cell(flavor, pick),
        };
        let mut net: BTreeMap<(u32, Value), i64> = BTreeMap::new();
        let rows: Vec<(u32, Value, i64)> = (stream.iter().enumerate())
            .map(|(r, &(g, pick, w))| {
                let w = if flavor == 3 { if w > 0 { 1 } else { -1 } } else { w };
                let count = net.entry((g, draw(r, g, pick))).or_default();
                let w = w.max(-*count);
                *count += w;
                (g, draw(r, g, pick), w)
            })
            .collect();
        let survivors: Vec<(u32, Value, i64)> = (net.iter())
            .flat_map(|((g, v), &c)| std::iter::repeat_n((*g, v.clone(), 1), c as usize))
            .collect();
        for func in [AggFunc::CountStar].into_iter().chain(FUNCS) {
            let folded = fold_rows(func, true, &rows, ty, &cuts);
            let pushed = (func != AggFunc::CountStar).then(|| {
                let mut agg = GroupedAgg::retractable(func);
                agg.grow(3);
                let fed = rows.iter().try_for_each(|(g, v, w)| agg.push(*g as usize, v, *w));
                fed.map(|_| agg.finish(3))
            });
            let refused = matches!(func, AggFunc::Sum | AggFunc::Avg)
                && rows.iter().any(|r| !matches!(r.1, Value::Null | Value::Int(_)));
            if refused {
                let typed_err = |r: &eii_data::Result<_>| matches!(r, Err(EiiError::Execution(_)));
                prop_assert!(typed_err(&folded), "{func:?} over {ty:?}: {folded:?}");
                prop_assert!(pushed.as_ref().is_none_or(typed_err), "{func:?}: {pushed:?}");
                continue;
            }
            let want = fold_rows(func, false, &survivors, ty, &[]).unwrap();
            // The NULL rule is the count's, not the total's: a SUM/AVG is
            // NULL exactly where no non-NULL cell survives.
            for (g, v) in (0..).zip(&want) {
                let counted = survivors.iter().any(|(h, c, _)| *h == g && !c.is_null());
                let sum = matches!(func, AggFunc::Sum | AggFunc::Avg);
                prop_assert!(!sum || v.is_null() != counted, "{func:?} of group {g}: {v:?}");
            }
            // A counted multiset holds one entry per class of equal values,
            // keyed by its first cell still counted; which twin of a `2`/`2.0`
            // tie that is, the surviving rows alone do not say. So the
            // UNION ALL's MIN/MAX are compared as values, everything else to
            // the bit.
            let twins = flavor == 3 && matches!(func, AggFunc::Min | AggFunc::Max);
            let paths = [("fold_chunk", Some(folded)), ("push", pushed)];
            for (path, got) in paths.into_iter().filter_map(|(p, got)| Some((p, got?))) {
                let got = got.unwrap();
                let same = if twins { got == want } else { format!("{got:?}") == format!("{want:?}") };
                prop_assert!(same, "{func:?} by {path} over {ty:?}: {got:?} != {want:?}");
            }
        }
    }

    /// Identity (b): the shared key table ≡ `HashMap<Vec<Value>, _>`, through
    /// the join's build and probe and through DISTINCT, on one- and
    /// two-column keys whose two sides are typed differently.
    #[test]
    fn shared_key_table_equals_a_hash_map_of_value_vectors(
        probe_picks in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
        build_picks in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
        flavors in proptest::collection::vec(0usize..4, 4..5),
        shape in (1usize..3, 0usize..4, proptest::collection::vec(0usize..32, 0..4)),
    ) {
        let (n_keys, size_pick, cuts) = shape;
        let side = |picks: &[(usize, usize)], f: &[usize]| -> Vec<Row> {
            (picks.iter().enumerate())
                .map(|(i, &(a, b))| Row::new(vec![cell(f[0], a), cell(f[1], b), Value::Int(i as i64)]))
                .collect()
        };
        let probe_rows = side(&probe_picks, &flavors[..2]);
        let build_rows = side(&build_picks, &flavors[2..]);
        let probe_schema = schema(&[DataType::Int, DataType::Str, DataType::Int]);
        let build_schema = schema(&[DataType::Float, DataType::Str, DataType::Int]);
        let build = ColumnarBatch::from_batch(&Batch::new(build_schema.clone(), build_rows.clone()));
        let joined = Arc::new(probe_schema.join(&build_schema));
        let batch_size = [1, 2, 3, 4096][size_pick];
        let probe = chunk_list(&probe_schema, &probe_rows, &cuts, None);

        // The reference table: NULL keys are in no list.
        let key = |row: &Row| -> Option<Vec<Value>> {
            let key: Vec<Value> = (0..n_keys).map(|c| row.get(c).clone()).collect();
            key.iter().all(|v| !v.is_null()).then_some(key)
        };
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, row) in build_rows.iter().enumerate() {
            if let Some(k) = key(row) {
                table.entry(k).or_default().push(i);
            }
        }
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let filtering = matches!(kind, JoinKind::Semi | JoinKind::Anti);
            let out_schema = if filtering { probe_schema.clone() } else { joined.clone() };
            let build_keys: Vec<_> = (0..n_keys)
                .map(|c| eval_column(&BoundExpr::Column(c), &build).unwrap())
                .collect();
            let mut op = VecHashJoin::new(
                &build,
                &build_keys,
                (0..n_keys).map(BoundExpr::Column).collect(),
                kind,
                None,
                ColumnPick::new(&joined, None),
                ColumnPick::new(&out_schema, None),
                batch_size,
            );
            let got = run(&mut op, &probe, &out_schema, batch_size);
            let mut want = Vec::new();
            for row in &probe_rows {
                let matches = key(row).and_then(|k| table.get(&k)).map_or(&[][..], Vec::as_slice);
                match kind {
                    JoinKind::Semi if !matches.is_empty() => want.push(row.clone()),
                    JoinKind::Anti if matches.is_empty() => want.push(row.clone()),
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Left if matches.is_empty() => {
                        want.push(row.concat(&Row::new(vec![Value::Null; 3])))
                    }
                    _ => want.extend(matches.iter().map(|&b| row.concat(&build_rows[b]))),
                }
            }
            prop_assert_eq!(exact(&got), exact(&want), "{:?} on {} keys", kind, n_keys);
        }

        // DISTINCT over the key columns: the first row of each group, NULL a
        // group like any other.
        let keys_schema = schema(&[DataType::Int, DataType::Str]);
        let key_rows: Vec<Row> = probe_rows.iter().map(|r| r.project(&[0, 1])).collect();
        let mut distinct = VecAggregate::new(
            (0..2).map(BoundExpr::Column).collect(),
            Vec::new(),
            Vec::new(),
            keys_schema.clone(),
        );
        let input = chunk_list(&keys_schema, &key_rows, &cuts, None);
        let got = run(&mut distinct, &input, &keys_schema, batch_size);
        let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
        let want: Vec<Row> = (key_rows.into_iter())
            .filter(|r| seen.insert(r.values().to_vec(), ()).is_none())
            .collect();
        prop_assert_eq!(exact(&got), exact(&want));
    }

    /// Identity (b), one table under both equalities and both indexes: the
    /// key column changes flavor from chunk to chunk — a NULL-free `Int`
    /// vector (a dense run, found by index, or Int hazards, by raw `i64`
    /// equality), a run and its span breaker, an empty or all-NULL column,
    /// stray cells gone `Mixed`, Ints with a bitmap, a `Float` vector with the
    /// twins at ±2^53, a `Timestamp` vector (same words, never the same key),
    /// `Mixed` — in any order, against a NULL-free `Int` build side, a dense
    /// run or hazards; and through DISTINCT, whose table outlives the chunks
    /// and stores what they bring.
    #[test]
    fn one_key_table_serves_chunks_of_every_flavor(
        stages in proptest::collection::vec((0usize..6, proptest::collection::vec(0usize..64, 1..7), hazards::key_column()), 1..7),
        build in (any::<bool>(), proptest::collection::vec(0usize..64, 0..16), hazards::dense_run()),
        size_pick in 0usize..4,
    ) {
        let ints = [0, 1, 2, -1, P53 - 1, P53, P53 + 1, -P53, i64::MAX];
        let floats = [P53 as f64, -(P53 as f64), 2.0, 0.0, -0.0, 2.5, f64::NAN, 1.0];
        let key_schema = schema(&[DataType::Int]);
        let mut probe = Chunks::new(key_schema.clone());
        let mut probe_keys: Vec<Value> = Vec::new();
        for (stage, picks, drawn) in &stages {
            let (mut cells, ty): (Vec<Value>, _) = match stage {
                0 => (drawn.clone(), DataType::Int),
                1 => (picks.iter().map(|&p| cell(0, p)).chain([Value::Null]).collect(), DataType::Int),
                2 => (picks.iter().map(|p| Value::Float(floats[p % floats.len()])).collect(), DataType::Float),
                3 => (picks.iter().map(|p| Value::Timestamp(ints[p % 4])).collect(), DataType::Timestamp),
                4 => (picks.iter().map(|&p| cell(3, p)).chain([Value::str("2")]).collect(), DataType::Int),
                _ => (picks.iter().map(|p| Value::Int(ints[p % ints.len()])).collect(), DataType::Int),
            };
            let col = Arc::new(eii_data::Column::from_values(&cells, ty));
            probe.push(ColumnarBatch::new(key_schema.clone(), vec![col], cells.len()));
            probe_keys.append(&mut cells);
        }
        let (dense, build_picks, dense_run) = build;
        let build_keys: Vec<Value> = if dense {
            dense_run
        } else {
            build_picks.iter().map(|p| Value::Int(ints[p % ints.len()])).collect()
        };
        let build_rows: Vec<Row> = build_keys.iter().map(|k| Row::new(vec![k.clone()])).collect();
        let build = ColumnarBatch::from_batch(&Batch::new(key_schema.clone(), build_rows));
        prop_assert!(build.column(0).as_ints().is_some() && build.column(0).no_nulls());
        let batch_size = [1, 2, 3, 4096][size_pick];

        let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
        for (i, k) in build_keys.iter().enumerate() {
            table.entry(k).or_default().push(i);
        }
        let joined = Arc::new(key_schema.join(&key_schema));
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let filtering = matches!(kind, JoinKind::Semi | JoinKind::Anti);
            let out_schema = if filtering { key_schema.clone() } else { joined.clone() };
            let mut op = VecHashJoin::new(
                &build,
                &[build.column(0).clone()],
                vec![BoundExpr::Column(0)],
                kind,
                None,
                ColumnPick::new(&joined, None),
                ColumnPick::new(&out_schema, None),
                batch_size,
            );
            let got = run(&mut op, &probe, &out_schema, batch_size);
            let mut want = Vec::new();
            for k in &probe_keys {
                let matches = table.get(k).filter(|_| !k.is_null()).map_or(&[][..], Vec::as_slice);
                match kind {
                    JoinKind::Semi if !matches.is_empty() => want.push(Row::new(vec![k.clone()])),
                    JoinKind::Anti if matches.is_empty() => want.push(Row::new(vec![k.clone()])),
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Left if matches.is_empty() => want.push(Row::new(vec![k.clone(), Value::Null])),
                    _ => want.extend(matches.iter().map(|&b| Row::new(vec![k.clone(), build_keys[b].clone()]))),
                }
            }
            prop_assert_eq!(exact(&got), exact(&want), "{:?}", kind);
        }

        let mut distinct = VecAggregate::new(vec![BoundExpr::Column(0)], Vec::new(), Vec::new(), key_schema.clone());
        let got = run(&mut distinct, &probe, &key_schema, batch_size);
        let mut seen: HashSet<&Value> = HashSet::new();
        let want: Vec<Row> = (probe_keys.iter())
            .filter(|k| seen.insert(k))
            .map(|k| Row::new(vec![k.clone()]))
            .collect();
        prop_assert_eq!(exact(&got), exact(&want));
    }

    /// Identity (e): a join asked for a subset of its columns — any subset,
    /// the empty one and the one-sided ones included — emits the rows of the
    /// join asked for everything, projected: keyed and keyless, Inner, Left and
    /// Cross, with a residual that reads neither side, one, or both (and so is
    /// gathered narrower than the output, or wider), or that fails on some
    /// pair; probe chunks cut anywhere and typed differently, 1, 2, 3, 4096 or
    /// `usize::MAX` rows pushed at a time — the last no cap at all, for pairs
    /// as for chunks. A Semi or Anti join is asked the same and emits its
    /// probe schema regardless.
    #[test]
    fn a_join_asked_for_some_columns_is_the_full_join_projected(
        probe_picks in proptest::collection::vec((0usize..64, 0usize..64), 0..20),
        build_picks in proptest::collection::vec((0usize..64, 0usize..64), 0..12),
        flavors in proptest::collection::vec(0usize..4, 4..5),
        shape in (0usize..3, 0usize..5, 0usize..6),
        chunking in (0usize..5, proptest::collection::vec(0usize..32, 0..4)),
        mask in 0usize..64,
    ) {
        let ((n_keys, kind_pick, residual_pick), (size_pick, cuts)) = (shape, chunking);
        let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Cross, JoinKind::Semi, JoinKind::Anti][kind_pick];
        let n_keys = if kind == JoinKind::Cross { 0 } else { n_keys };
        let side = |picks: &[(usize, usize)], f: &[usize]| -> Vec<Row> {
            (picks.iter().enumerate())
                .map(|(i, &(a, b))| Row::new(vec![cell(f[0], a), cell(f[1], b), Value::Int(i as i64)]))
                .collect()
        };
        let named = |names: [&str; 3], types: [DataType; 3]| -> SchemaRef {
            Arc::new(Schema::new(names.iter().zip(types).map(|(n, t)| Field::new(*n, t)).collect()))
        };
        let probe_schema = named(["p0", "p1", "pseq"], [DataType::Int, DataType::Str, DataType::Int]);
        let build_schema = named(["b0", "b1", "bseq"], [DataType::Float, DataType::Str, DataType::Int]);
        let (probe_rows, build_rows) = (side(&probe_picks, &flavors[..2]), side(&build_picks, &flavors[2..]));
        // The probe side arrives as a chunk list: one `Values` per cut.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (probe_rows.len() + 1)).collect();
        bounds.extend([0, probe_rows.len()]);
        bounds.sort_unstable();
        let probe = PhysicalPlan::UnionAll {
            inputs: (bounds.windows(2))
                .map(|w| leaf(&probe_schema, probe_rows[w[0]..w[1]].to_vec()))
                .collect(),
            parallel: false,
            schema: probe_schema.clone(),
        };
        let build = leaf(&build_schema, build_rows.clone());

        let (pseq, bseq) = (|| Expr::col("pseq"), || Expr::col("bseq"));
        let residual = match residual_pick {
            0 => None,
            1 => Some(pseq().binary(BinaryOp::Modulo, Expr::lit(2i64)).eq(Expr::lit(0i64))),
            2 => Some(bseq().binary(BinaryOp::Modulo, Expr::lit(3i64)).binary(BinaryOp::NotEq, Expr::lit(0i64))),
            3 => Some(pseq().binary(BinaryOp::Plus, bseq()).gt(Expr::lit(3i64))),
            // Over the hazard cells: fails on the first pair that is not numeric.
            4 => Some(Expr::col("p0").binary(BinaryOp::Minus, Expr::col("b0")).lt(Expr::lit(1i64))),
            _ => Some(Expr::lit(1i64).binary(BinaryOp::Divide, pseq().binary(BinaryOp::Minus, bseq())).lt(Expr::lit(1i64))),
        };
        let filtering = matches!(kind, JoinKind::Semi | JoinKind::Anti);
        let schema = if filtering { probe_schema.clone() } else { Arc::new(probe_schema.join(&build_schema)) };
        let join = if n_keys == 0 {
            PhysicalPlan::NestedLoopJoin {
                left: Box::new(probe), right: Box::new(build), kind, on: residual.clone(),
                parallel: false, schema: schema.clone(),
            }
        } else {
            PhysicalPlan::HashJoin {
                left: Box::new(probe), right: Box::new(build),
                left_keys: ["p0", "p1"][..n_keys].iter().map(|c| Expr::col(*c)).collect(),
                right_keys: ["b0", "b1"][..n_keys].iter().map(|c| Expr::col(*c)).collect(),
                kind, residual: residual.clone(), site: JoinSite::Hub, parallel: false,
                schema: schema.clone(), vectorized: true,
            }
        };
        let subset: Vec<usize> = (0..schema.len()).filter(|c| mask >> c & 1 == 1).collect();
        let asked = picking(&subset, join.clone());

        // The reference: nested loops over the rows, keys by `Value`'s `==`
        // (NULL never), the residual by the scalar evaluator over whole pairs
        // — every key-matched pair for Inner/Left/Cross, so the first failing
        // one is the error; up to the first match for Semi/Anti.
        let both = probe_schema.join(&build_schema);
        let on = residual.as_ref().map(|e| eii_expr::bind(e, &both).unwrap());
        let keys_match = |p: &Row, b: &Row| (0..n_keys).all(|c| !p.get(c).is_null() && p.get(c) == b.get(c));
        let want = (|| -> Result<Vec<Row>, EiiError> {
            let mut out = Vec::new();
            for p in &probe_rows {
                let mut matched = false;
                for b in build_rows.iter().filter(|b| keys_match(p, b)) {
                    let pair = p.concat(b);
                    if on.as_ref().map_or(Ok(true), |on| on.eval_predicate(&pair))? {
                        matched = true;
                        if filtering {
                            break;
                        }
                        out.push(pair);
                    }
                }
                match kind {
                    JoinKind::Left if !matched => out.push(p.concat(&Row::new(vec![Value::Null; 3]))),
                    JoinKind::Semi if matched => out.push(p.clone()),
                    JoinKind::Anti if !matched => out.push(p.clone()),
                    _ => {}
                }
            }
            Ok(out)
        })();

        let federation = Federation::new();
        let executor = Executor::new(&federation).with_batch_size([1, 2, 3, 4096, usize::MAX][size_pick]);
        match (want, executor.execute(&join), executor.execute(&asked)) {
            (Ok(want), Ok(wide), Ok(narrow)) => {
                prop_assert_eq!(exact(wide.batch.rows()), exact(&want), "{:?}", kind);
                let projected: Vec<Row> = want.iter().map(|r| r.project(&subset)).collect();
                prop_assert_eq!(exact(narrow.batch.rows()), exact(&projected), "{:?} of {:?}", subset, kind);
                let emitted = narrow.profile.unwrap().find(join.label()).unwrap().columns;
                let fewer = !filtering && subset.len() < schema.len();
                prop_assert_eq!(emitted, fewer.then_some((subset.len(), schema.len())));
            }
            (Err(want), Err(wide), Err(narrow)) => {
                prop_assert_eq!((wide.to_string(), narrow.to_string()), (want.to_string(), want.to_string()));
            }
            (want, wide, narrow) => prop_assert!(
                false, "{:?}: {:?}, all columns {:?}, {:?} {:?}",
                kind, want, wide.map(|r| r.batch), subset, narrow.map(|r| r.batch)
            ),
        }
    }

    /// Identity (d): `sort_batch(.., Some(k))`'s first `k` rows are the full
    /// sort's first `k`, row for row — 1–3 keys, ascending and descending,
    /// heavy ties (the hazard pools are small), NULL/NaN/2^53-twin keys, typed
    /// key columns with NULLs and without (flavors 4 and 5: the `Int` and
    /// `Float` pools, no NULL, which the sort compares as raw lanes) and
    /// `Mixed` ones, full and selected inputs of up to 200 rows, `k` from 1
    /// through `n/9` and `n/2` to past `n` — the rows past `k` are the rest in
    /// some order, and the full sort is the stable sort under `Value`'s order.
    #[test]
    fn a_bounded_sort_establishes_the_first_k_rows_of_the_full_sort(
        picks in proptest::collection::vec(proptest::collection::vec(0usize..64, 3..4), 0..200),
        flavors in proptest::collection::vec(0usize..6, 3..4),
        spec in proptest::collection::vec((0usize..3, any::<bool>()), 1..4),
        sel in proptest::collection::vec(0usize..256, 0..200),
        selected in any::<bool>(),
    ) {
        let cell = |flavor: usize, pick: usize| match flavor {
            4 | 5 => cell(flavor - 4, pick % 8),
            _ => cell(flavor, pick),
        };
        let rows: Vec<Row> = (picks.iter().enumerate())
            .map(|(r, p)| {
                let keys = (0..3).map(|c| cell(flavors[c], p[c]));
                Row::new(keys.chain([Value::Int(r as i64)]).collect())
            })
            .collect();
        let s = schema(&[DataType::Int, DataType::Float, DataType::Str, DataType::Int]);
        let mut batch = ColumnarBatch::from_batch(&Batch::new(s, rows));
        if selected && !picks.is_empty() {
            batch = batch.select(sel.iter().map(|p| (p % picks.len()) as u32).collect());
        }
        let input = batch.to_batch().into_rows();
        let n = input.len();
        let keys: Vec<(BoundExpr, bool)> =
            spec.iter().map(|&(c, asc)| (BoundExpr::Column(c), asc)).collect();

        let mut want = input.clone();
        want.sort_by(|a, b| {
            (spec.iter())
                .map(|&(c, asc)| if asc { a.get(c).cmp(b.get(c)) } else { b.get(c).cmp(a.get(c)) })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let full = sort_batch(&batch, &keys, None).unwrap().to_batch().into_rows();
        prop_assert_eq!(exact(&full), exact(&want));

        for k in [0, 1, n / 9, n / 2, n.saturating_sub(1), n, n + 1] {
            let got = sort_batch(&batch, &keys, Some(k)).unwrap().to_batch().into_rows();
            let k = k.min(n);
            prop_assert_eq!(exact(&got[..k]), exact(&full[..k]), "first {} of {}", k, n);
            let (mut rest, mut want_rest) = (exact(&got[k..]), exact(&full[k..]));
            rest.sort();
            want_rest.sort();
            prop_assert_eq!(rest, want_rest, "rows past {} of {}", k, n);
        }
    }
}

/// (c): two `SUM`s over `Mixed` columns that fail in different rows report the
/// earlier *row's* error, whichever aggregate it belongs to and whatever the
/// chunk size; a typed aggregate beside them changes nothing.
#[test]
fn a_failing_sum_reports_the_first_failing_row_across_aggregates() {
    let input_schema = schema(&[DataType::Int, DataType::Int, DataType::Int]);
    let rows: Vec<Row> = vec![
        Row::new(vec![Value::Int(1), Value::Int(1), Value::Int(1)]),
        Row::new(vec![Value::Int(2), Value::Int(2), Value::str("late in y")]),
        Row::new(vec![Value::Int(3), Value::Int(3), Value::Int(3)]),
        Row::new(vec![Value::Int(4), Value::str("later in x"), Value::Int(4)]),
    ];
    let input = Chunks::from(ColumnarBatch::from_batch(&Batch::new(input_schema, rows)));
    let out_schema = schema(&[DataType::Int, DataType::Int, DataType::Int]);
    for batch_size in [1, 4096] {
        // SUM(typed), SUM(x) failing in row 3, SUM(y) failing in row 1.
        let mut op = VecAggregate::new(
            Vec::new(),
            (0..3).map(|c| Some(BoundExpr::Column(c))).collect(),
            vec![(AggFunc::Sum, false); 3],
            out_schema.clone(),
        );
        let err = drive(&mut op, &input, out_schema.clone(), batch_size, || Ok(())).unwrap_err();
        assert!(
            matches!(&err, EiiError::Type(m) if m == "SUM over non-numeric late in y"),
            "at {batch_size} rows per chunk: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Who tells a Sort how much of its order will be read
// ---------------------------------------------------------------------------

/// `(x, seq)` rows: `x` from `xs`, `seq` the position.
fn x_seq(xs: &[i64]) -> Batch {
    let rows = xs.iter().enumerate().map(|(i, &x)| Row::new(vec![Value::Int(x), Value::Int(i as i64)]));
    let fields = ["x", "seq"].map(|name| Field::new(name, DataType::Int));
    Batch::new(Arc::new(Schema::new(fields.to_vec())), rows.collect())
}

/// [`x_seq`] as a plan leaf.
fn values(xs: &[i64]) -> PhysicalPlan {
    let batch = x_seq(xs);
    PhysicalPlan::Values { schema: batch.schema().clone(), rows: batch.into_rows() }
}

fn sorted_by_x(input: PhysicalPlan) -> PhysicalPlan {
    PhysicalPlan::Sort { input: Box::new(input), keys: vec![(Expr::col("x"), true)] }
}

fn limit(n: usize, input: PhysicalPlan) -> PhysicalPlan {
    PhysicalPlan::Limit { input: Box::new(input), n }
}

fn filter(predicate: Expr, input: PhysicalPlan) -> PhysicalPlan {
    PhysicalPlan::Filter { input: Box::new(input), predicate, vectorized: true }
}

/// `SELECT x * 2 AS x2, seq`.
fn doubled(input: PhysicalPlan) -> PhysicalPlan {
    let x2 = Expr::col("x").binary(BinaryOp::Multiply, Expr::lit(2i64));
    PhysicalPlan::Project {
        input: Box::new(input),
        exprs: vec![(x2, "x2".into()), (Expr::col("seq"), "seq".into())],
        schema: Arc::new(Schema::new(vec![
            Field::new("x2", DataType::Int),
            Field::new("seq", DataType::Int),
        ])),
        vectorized: true,
    }
}

fn renamed(input: PhysicalPlan) -> PhysicalPlan {
    let schema = Arc::new(input.schema().qualified("r"));
    PhysicalPlan::Rename { input: Box::new(input), schema }
}

/// The answer, and the `k` the plan's Sort ran bounded by (if it did).
fn execute(plan: &PhysicalPlan) -> (Vec<Row>, Option<usize>) {
    let federation = Federation::new();
    let result = Executor::new(&federation).execute(plan).unwrap();
    let sort = result.profile.as_ref().unwrap().find("Sort");
    (result.batch.into_rows(), sort.and_then(|s| s.top))
}

/// 200 values, every one five times over, in no order.
fn shuffled() -> Vec<i64> {
    (0..200i64).map(|i| (i * 73 + 11) % 200 % 40).collect()
}

#[test]
fn a_limit_bounds_the_sort_under_it_through_project_and_rename_only() {
    let always = || Expr::lit(true);
    // `build(above_sort)` wraps the Sort in the nodes under test; the twin
    // puts an always-true Filter right above the Sort, which emits the same
    // rows in the same order and forwards no promise: `first` forced to None.
    type Wrap = fn(PhysicalPlan) -> PhysicalPlan;
    let forwarding: [(&str, Wrap, usize); 6] = [
        ("Limit→Sort", |s| limit(7, s), 7),
        ("Limit→Project(computed)→Sort", |s| limit(7, doubled(s)), 7),
        ("Limit→Rename→Project→Sort", |s| limit(7, renamed(doubled(s))), 7),
        ("Limit(5, Limit(10, Sort))", |s| limit(5, limit(10, s)), 5),
        ("Limit(10, Limit(5, Sort))", |s| limit(10, limit(5, s)), 5),
        ("LIMIT 0", |s| limit(0, doubled(s)), 0),
    ];
    for (name, wrap, k) in forwarding {
        let (got, top) = execute(&wrap(sorted_by_x(values(&shuffled()))));
        let (want, blocked) = execute(&wrap(filter(always(), sorted_by_x(values(&shuffled())))));
        assert_eq!(top, Some(k), "{name}: the promise reaches the Sort");
        assert_eq!(blocked, None, "{name}: a Filter passes no promise on");
        assert_eq!(exact(&got), exact(&want), "{name}");
        assert_eq!(got.len(), k);
    }
    // A limit that reads everything bounds nothing.
    let (all, top) = execute(&limit(200, sorted_by_x(values(&shuffled()))));
    assert_eq!((all.len(), top), (200, None));
}

#[test]
fn the_promise_does_not_cross_a_node_that_drops_merges_or_multiplies_rows() {
    let xs = |rows: &[Row]| -> Vec<Value> { rows.iter().map(|r| r.get(0).clone()).collect() };
    // `above(Sort)` under a Limit of `k` answers `want` from a Sort that was
    // promised nothing. Had the promise leaked through `above`, the Sort would
    // have emitted a bounded order instead — and the plan, run over exactly
    // that, answers something else: each case reads past what a bounded sort
    // puts in order.
    let case = |name: &str, k: usize, above: &dyn Fn(PhysicalPlan) -> PhysicalPlan, want: &[i64]| {
        let want: Vec<Value> = want.iter().map(|&i| Value::Int(i)).collect();
        let (rows, top) = execute(&limit(k, above(sorted_by_x(values(&shuffled())))));
        assert_eq!((xs(&rows), top), (want.clone(), None), "{name}");
        let input = ColumnarBatch::from_batch(&x_seq(&shuffled()));
        let leaked = sort_batch(&input, &[(BoundExpr::Column(0), true)], Some(k)).unwrap().to_batch();
        let in_its_place = PhysicalPlan::Values { schema: leaked.schema().clone(), rows: leaked.into_rows() };
        let (rows, _) = execute(&limit(k, above(in_its_place)));
        assert_ne!(xs(&rows), want, "{name}: a leak would not show");
    };

    // Filter drops the rows the Sort would have been sure of.
    case("Limit→Filter→Sort", 5, &|sort| filter(Expr::col("x").gt_eq(Expr::lit(10i64)), sort), &[10; 5]);

    // Distinct merges five rows into one.
    let distinct_x = |sort: PhysicalPlan| PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::Project {
            input: Box::new(sort),
            exprs: vec![(Expr::col("x"), "x".into())],
            schema: schema(&[DataType::Int]),
            vectorized: true,
        }),
    };
    let first_12: Vec<i64> = (0..12).collect();
    case("Limit→Distinct→Sort", 12, &distinct_x, &first_12);

    // So does an aggregate, whose groups come in first-seen order.
    let counted = |sort: PhysicalPlan| PhysicalPlan::Aggregate {
        input: Box::new(sort),
        group_by: vec![Expr::col("x")],
        aggs: vec![AggItem { func: AggFunc::CountStar, arg: None, distinct: false, name: "n".into() }],
        schema: schema(&[DataType::Int, DataType::Int]),
        vectorized: true,
    };
    case("Limit→Aggregate→Sort", 12, &counted, &first_12);

    // A join drops probe rows without a match and repeats those with two.
    let joined = |sort: PhysicalPlan| {
        let right = renamed(values(&[20, 21, 20]));
        PhysicalPlan::HashJoin {
            schema: Arc::new(sort.schema().join(&right.schema())),
            left: Box::new(sort),
            right: Box::new(right),
            left_keys: vec![Expr::col("x")],
            right_keys: vec![Expr::qcol("r", "x")],
            kind: JoinKind::Inner,
            residual: None,
            site: JoinSite::Hub,
            parallel: false,
            vectorized: true,
        }
    };
    case("Limit→HashJoin(Sort, …)", 12, &joined, &[20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 21, 21]);
}

// ---------------------------------------------------------------------------
// Who asks a join for fewer columns
// ---------------------------------------------------------------------------

fn leaf(schema: &SchemaRef, rows: Vec<Row>) -> PhysicalPlan {
    PhysicalPlan::Values { schema: schema.clone(), rows }
}

/// `SELECT <columns `cols` of the input, by name>`: a consumer that reads
/// those and nothing else.
fn picking(cols: &[usize], input: PhysicalPlan) -> PhysicalPlan {
    let fields: Vec<Field> = cols.iter().map(|&c| input.schema().field(c).clone()).collect();
    let reference = |f: &Field| Expr::Column { relation: f.relation.clone(), name: f.name.clone() };
    PhysicalPlan::Project {
        exprs: fields.iter().map(|f| (reference(f), f.name.clone())).collect(),
        input: Box::new(input),
        schema: Arc::new(Schema::new(fields)),
        vectorized: true,
    }
}

/// `l(x, seq) JOIN r(x, seq) ON l.x = r.x`, 4 columns, every name qualified.
fn self_join(kind: JoinKind) -> PhysicalPlan {
    let side = |alias: &str, xs: &[i64]| {
        let input = values(xs);
        let schema = Arc::new(input.schema().qualified(alias));
        PhysicalPlan::Rename { input: Box::new(input), schema }
    };
    let (left, right) = (side("l", &[1, 2, 2, 3, 5]), side("r", &[2, 3, 3, 4]));
    let schema = match kind {
        JoinKind::Semi | JoinKind::Anti => left.schema(),
        _ => Arc::new(left.schema().join(&right.schema())),
    };
    PhysicalPlan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys: vec![Expr::qcol("l", "x")],
        right_keys: vec![Expr::qcol("r", "x")],
        kind,
        residual: None,
        site: JoinSite::Hub,
        parallel: false,
        schema,
        vectorized: true,
    }
}

/// The answer, and what the plan's (outermost) `HashJoin` emitted of its schema.
fn columns_emitted(plan: &PhysicalPlan) -> (Vec<Row>, Option<(usize, usize)>) {
    let federation = Federation::new();
    let result = Executor::new(&federation).execute(plan).unwrap();
    let join = result.profile.as_ref().unwrap().find("HashJoin").unwrap().columns;
    (result.batch.into_rows(), join)
}

#[test]
fn a_column_demand_is_made_by_aggregate_and_project_and_crosses_filter_sort_and_limit_only() {
    let join = || self_join(JoinKind::Inner);
    let count_by = |group: Expr, input: PhysicalPlan| PhysicalPlan::Aggregate {
        input: Box::new(input),
        group_by: vec![group],
        aggs: vec![AggItem { func: AggFunc::CountStar, arg: None, distinct: false, name: "n".into() }],
        schema: schema(&[DataType::Int, DataType::Int]),
        vectorized: true,
    };
    let seq_positive = || Expr::qcol("l", "seq").gt_eq(Expr::lit(0i64));
    let by_r_seq = |input| PhysicalPlan::Sort { input: Box::new(input), keys: vec![(Expr::qcol("r", "seq"), false)] };
    type Wrap<'a> = &'a dyn Fn(PhysicalPlan) -> PhysicalPlan;
    // Each consumer reads `r.x` (column 2); `barrier` is where a node that asks
    // for everything goes, which changes no row.
    let cases: [(&str, Wrap, Option<usize>); 10] = [
        ("the root asks for everything", &|j| j, None),
        ("Project makes the demand", &|j| picking(&[2], j), Some(1)),
        ("Aggregate makes it, COUNT(*) adding nothing", &|j| count_by(Expr::qcol("r", "x"), j), Some(1)),
        ("Filter hands it on, with what it reads", &|j| picking(&[2], filter(seq_positive(), j)), Some(2)),
        ("Sort hands it on, with its keys", &|j| picking(&[2], by_r_seq(j)), Some(2)),
        ("Limit hands it on", &|j| picking(&[2], limit(4, by_r_seq(filter(seq_positive(), j)))), Some(3)),
        ("Rename reads positionally", &|j| {
            let schema = j.schema();
            picking(&[2], PhysicalPlan::Rename { input: Box::new(j), schema })
        }, None),
        ("Distinct reads every column", &|j| picking(&[2], PhysicalPlan::Distinct { input: Box::new(j) }), None),
        ("UnionAll reads positionally", &|j| {
            let schema = j.schema();
            picking(&[2], PhysicalPlan::UnionAll { inputs: vec![j], parallel: false, schema })
        }, None),
        ("a join asks its children for everything", &|j| {
            let one = values(&[3]);
            let right = PhysicalPlan::Rename { schema: Arc::new(one.schema().qualified("z")), input: Box::new(one) };
            let schema = j.schema();
            picking(&[2], PhysicalPlan::NestedLoopJoin {
                schema: Arc::new(schema.join(&right.schema())),
                left: Box::new(j), right: Box::new(right), kind: JoinKind::Cross, on: None, parallel: false,
            })
        }, None),
    ];
    for (name, wrap, k) in cases {
        let (got, emitted) = columns_emitted(&wrap(join()));
        assert_eq!(emitted, k.map(|k| (k, 4)), "{name}");
        // The same plan over a join that nobody can ask for less: a Rename to
        // its own schema sits on top of it.
        let barrier = PhysicalPlan::Rename { schema: join().schema(), input: Box::new(join()) };
        let (want, blocked) = columns_emitted(&wrap(barrier));
        assert_eq!(blocked, None, "{name}: the Rename asked for everything");
        assert_eq!(exact(&got), exact(&want), "{name}");
        assert!(!got.is_empty());
    }
    // Semi and Anti are a selection of the probe chunk: asked for one column
    // of two, they hand on both.
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        let (got, emitted) = columns_emitted(&picking(&[1], self_join(kind)));
        assert_eq!(emitted, None, "{kind:?}");
        let seqs: &[i64] = if kind == JoinKind::Semi { &[1, 2, 3] } else { &[0, 4] };
        assert_eq!(got, seqs.iter().map(|&s| Row::new(vec![Value::Int(s)])).collect::<Vec<_>>());
    }
}

#[test]
fn a_name_ambiguous_in_the_joins_full_schema_is_still_the_parents_error() {
    // `x` is `l.x` or `r.x`; `r.seq` alone would resolve. Had the consumer
    // asked the join for just the columns it could resolve, the bind that
    // follows would no longer find two `x`s — or any.
    let join = self_join(JoinKind::Inner);
    let todays = eii_expr::bind(&Expr::col("x"), &join.schema()).unwrap_err().to_string();
    assert!(todays.contains("ambiguous column reference 'x' (matches l.x and r.x)"), "{todays}");
    let int = |name: &str| Field::new(name, DataType::Int);
    let project = PhysicalPlan::Project {
        input: Box::new(join.clone()),
        exprs: vec![(Expr::qcol("r", "seq"), "seq".into()), (Expr::col("x"), "x".into())],
        schema: Arc::new(Schema::new(vec![int("seq"), int("x")])),
        vectorized: true,
    };
    let aggregate = PhysicalPlan::Aggregate {
        input: Box::new(join.clone()),
        group_by: vec![Expr::qcol("r", "seq")],
        aggs: vec![AggItem { func: AggFunc::Sum, arg: Some(Expr::col("x")), distinct: false, name: "s".into() }],
        schema: Arc::new(Schema::new(vec![int("seq"), int("s")])),
        vectorized: true,
    };
    let filtered = picking(&[3], filter(Expr::col("x").gt(Expr::lit(0i64)), join));
    let federation = Federation::new();
    for plan in [project, aggregate, filtered] {
        let err = Executor::new(&federation).execute(&plan).unwrap_err();
        assert_eq!(err.to_string(), todays, "{}", plan.label());
    }
}

#[test]
fn a_failing_residual_reports_the_same_first_failing_pair_asked_narrow_or_wide() {
    // `1 / (a - b) < 1`, keyless, probe × build order: (5, 1) and (5, 3) pass,
    // then either the pair (5, 5) divides by zero or — with 'y' before it —
    // (5, 'y') is not arithmetic; the probe's own 'x' fails later and is
    // never reached.
    let a = Arc::new(Schema::new(vec![Field::new("a", DataType::Int), Field::new("pad", DataType::Int)]));
    let b = Arc::new(Schema::new(vec![Field::new("pad2", DataType::Int), Field::new("b", DataType::Int)]));
    let rows = |cells: &[Value], at: usize| -> Vec<Row> {
        (cells.iter().enumerate())
            .map(|(i, v)| {
                let mut row = vec![Value::Int(i as i64); 2];
                row[at] = v.clone();
                Row::new(row)
            })
            .collect()
    };
    let int = Value::Int;
    let probe = rows(&[int(5), Value::str("x"), int(3)], 0);
    let on = Expr::lit(1i64)
        .binary(BinaryOp::Divide, Expr::col("a").binary(BinaryOp::Minus, Expr::col("b")))
        .lt(Expr::lit(1i64));
    let federation = Federation::new();
    for (build, want) in [
        (vec![int(1), int(3), int(5)], "division by zero"),
        (vec![int(1), int(3), Value::str("y"), int(5)], "arithmetic - on non-numeric operands 5 and y"),
    ] {
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let join = PhysicalPlan::NestedLoopJoin {
                left: Box::new(leaf(&a, probe.clone())),
                right: Box::new(leaf(&b, rows(&build, 1))),
                kind,
                on: Some(on.clone()),
                parallel: false,
                schema: Arc::new(a.join(&b)),
            };
            for batch_size in [1, 2, 4096] {
                let executor = Executor::new(&federation).with_batch_size(batch_size);
                let wide = executor.execute(&join).unwrap_err().to_string();
                assert!(wide.contains(want), "{kind:?} at {batch_size}: {wide}");
                for subset in [&[][..], &[1], &[2], &[0, 3], &[1, 2]] {
                    let narrow = executor.execute(&picking(subset, join.clone())).unwrap_err();
                    assert_eq!(narrow.to_string(), wide, "{kind:?} asked {subset:?} at {batch_size}");
                }
            }
        }
    }
}

#[test]
fn a_join_assembled_at_a_source_ships_every_column_whatever_is_read_above_it() {
    use eii_federation::{LinkProfile, RelationalConnector, WireFormat};
    use eii_storage::{Database, TableDef};
    let clock = eii_data::SimClock::new();
    let federation = Federation::new();
    let register = |source: &str, table: &str, names: [&str; 3], rows: i64| {
        let db = Database::new(source, clock.clone());
        let fields = names.iter().map(|n| Field::new(*n, DataType::Int)).collect();
        let t = db.create_table(TableDef::new(table, Arc::new(Schema::new(fields)))).unwrap();
        for i in 0..rows {
            t.write().insert(Row::new(vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 3)])).unwrap();
        }
        let connector = Arc::new(RelationalConnector::new(db));
        federation.register(connector, LinkProfile::wan(), WireFormat::Native).unwrap();
    };
    register("big", "facts", ["id", "k", "v"], 400);
    register("small", "dims", ["k", "w", "u"], 7);
    let config = eii_planner::PlannerConfig { use_bind_joins: false, ..eii_planner::PlannerConfig::optimized() };
    let sql = "SELECT SUM(d.w) AS s FROM big.facts f JOIN small.dims d ON f.k = d.k";
    let query = eii_sql::parse_query(sql).unwrap();
    let aggregated = eii_planner::plan_query(&query, &eii_catalog::Catalog::new(), &federation, &config).unwrap();
    assert!(aggregated.display().contains("site=@big"), "{}", aggregated.display());
    // The same join with nothing above it: the root asks for every column.
    let mut alone = &aggregated;
    while alone.label() != "HashJoin" {
        alone = alone.children()[0];
    }
    let executor = Executor::new(&federation);
    let join = |plan: &PhysicalPlan| {
        let result = executor.execute(plan).unwrap();
        (result.profile.unwrap().find("HashJoin").unwrap().clone(), result.cost.bytes)
    };
    let ((under, total), (root, total_alone)) = (join(&aggregated), join(alone));
    assert_eq!(under.columns, None, "the site join was asked for less, and listened");
    assert!(alone.schema().len() > 1 && under.rows == 400);
    // What the site ships back is priced over what the join emitted: had it
    // emitted only `d.w`, these bytes would have shrunk.
    assert_eq!((under.cost.bytes, total), (root.cost.bytes, total_alone));
}

// ---------------------------------------------------------------------------
// String keys
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Str` keys drawn from the string hazards (the empty string, text that
    /// differs only by a prefix or its length, equal text in separate
    /// allocations and in one, NULL): an Inner and a Left hash join on them
    /// ≡ nested loops by `Value`'s `==` (NULL never matches; the Left join's
    /// unmatched rows come NULL-extended); a group-by over chunks pivoted
    /// apart ≡ a map from each key to its count, in first-seen order; a sort
    /// of the concatenation of two sources, whole and under a selection ≡ the
    /// stable sort by `Value`, ascending and descending.
    #[test]
    fn string_keys_join_group_and_sort_as_their_values(
        left in proptest::collection::vec(hazards::str_value(), 0..16),
        right in proptest::collection::vec(hazards::str_value(), 0..12),
        cuts in proptest::collection::vec(0usize..32, 0..4),
        sel in proptest::collection::vec(0usize..64, 0..30),
        size_pick in 0usize..3,
    ) {
        let named = |k: &str, seq: &str| -> SchemaRef {
            Arc::new(Schema::new(vec![Field::new(k, DataType::Str), Field::new(seq, DataType::Int)]))
        };
        let (ls, rs) = (named("k", "lseq"), named("r", "rseq"));
        let side = |cells: &[Value]| -> Vec<Row> {
            (cells.iter().enumerate()).map(|(i, v)| Row::new(vec![v.clone(), Value::Int(i as i64)])).collect()
        };
        let (lrows, rrows) = (side(&left), side(&right));
        let batch_size = [2, 5, usize::MAX][size_pick];

        let federation = Federation::new();
        let executor = Executor::new(&federation).with_batch_size(batch_size);
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let join = PhysicalPlan::HashJoin {
                left: Box::new(leaf(&ls, lrows.clone())), right: Box::new(leaf(&rs, rrows.clone())),
                left_keys: vec![Expr::col("k")], right_keys: vec![Expr::col("r")],
                kind, residual: None, site: JoinSite::Hub, parallel: false,
                schema: Arc::new(ls.join(&rs)), vectorized: true,
            };
            let mut want = Vec::new();
            for l in &lrows {
                let matched: Vec<&Row> = (rrows.iter())
                    .filter(|r| !l.get(0).is_null() && l.get(0) == r.get(0))
                    .collect();
                want.extend(matched.iter().map(|r| l.concat(r)));
                if kind == JoinKind::Left && matched.is_empty() {
                    want.push(l.concat(&Row::new(vec![Value::Null; 2])));
                }
            }
            let got = executor.execute(&join).unwrap();
            prop_assert_eq!(exact(got.batch.rows()), exact(&want), "{:?}", kind);
        }

        let out = schema(&[DataType::Str, DataType::Int]);
        let mut op = VecAggregate::new(
            vec![BoundExpr::Column(0)],
            vec![None],
            vec![(AggFunc::CountStar, false)],
            out.clone(),
        );
        let got = run(&mut op, &chunk_list(&ls, &lrows, &cuts, None), &out, batch_size);
        let mut groups: Vec<(Value, i64)> = Vec::new();
        for v in &left {
            match groups.iter_mut().find(|(k, _)| k == v) {
                Some((_, n)) => *n += 1,
                None => groups.push((v.clone(), 1)),
            }
        }
        let want: Vec<Row> = groups.into_iter().map(|(k, n)| Row::new(vec![k, Value::Int(n)])).collect();
        prop_assert_eq!(exact(&got), exact(&want));

        let pivot = |rows: &[Row]| ColumnarBatch::from_batch(&Batch::new(ls.clone(), rows.to_vec()));
        let both = ColumnarBatch::concat(ls.clone(), &[pivot(&lrows), pivot(&side(&right))]);
        let mut batches = vec![both.clone()];
        if !both.is_empty() {
            batches.push(both.select(sel.iter().map(|p| (p % both.num_rows()) as u32).collect()));
        }
        for batch in &batches {
            for asc in [true, false] {
                let mut want = batch.to_batch().into_rows();
                want.sort_by(|a, b| if asc { a.get(0).cmp(b.get(0)) } else { b.get(0).cmp(a.get(0)) });
                let got = sort_batch(batch, &[(BoundExpr::Column(0), asc)], None).unwrap();
                prop_assert_eq!(exact(&got.to_batch().into_rows()), exact(&want), "ascending {}", asc);
            }
        }
    }
}
