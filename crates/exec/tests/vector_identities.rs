//! The identities the chunk-list data path rests on, as properties over one
//! hazard set (NULL-heavy cells, Int/Float twins at 2^53 ± 1, `i64::MAX`,
//! `-0.0`, NaN, columns that are typed in one chunk and `Mixed` in the next):
//!
//! - the typed, column-at-a-time [`VecAggregate`] is the `Value`-at-a-time
//!   accumulator it replaced, bit for bit, for 0–3 group keys, however the
//!   input is cut into chunks;
//! - the shared key table — join build/probe and DISTINCT — is a
//!   `HashMap<Vec<Value>, _>`;
//! - a failing `SUM` reports the first failing *row*, not the first failing
//!   aggregate;
//! - a sort told that only its first `k` rows will be read returns, in those
//!   `k` positions, the rows the full (stable) sort returns, and every row
//!   still; and the executor tells it so only through nodes that emit exactly
//!   their input rows in input order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use eii_data::{Batch, ColumnarBatch, DataType, EiiError, Field, Row, Schema, SchemaRef, Value};
use eii_exec::{drive, sort_batch, BatchOperator, Chunks, Executor, VecAggregate, VecHashJoin};
use eii_expr::{eval_column, AggFunc, BinaryOp, BoundExpr, Expr};
use eii_federation::Federation;
use eii_planner::{AggItem, JoinSite, PhysicalPlan};
use eii_sql::JoinKind;
use proptest::prelude::*;

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

/// Cut `rows` at `cuts` into a chunk list. Each chunk is pivoted on its own,
/// so a column can be typed in one chunk and `Mixed` in the next; every other
/// chunk carries a selection.
fn chunk_list(schema: &SchemaRef, rows: &[Row], cuts: &[usize]) -> Chunks {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (rows.len() + 1)).collect();
    bounds.extend([0, rows.len()]);
    bounds.sort_unstable();
    let mut list = Chunks::new(schema.clone());
    for (i, w) in bounds.windows(2).enumerate() {
        let part = rows[w[0]..w[1]].to_vec();
        let chunk = ColumnarBatch::from_batch(&Batch::new(schema.clone(), part));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Identity (a): typed aggregation ≡ the `Value`-at-a-time reference.
    #[test]
    fn typed_aggregate_equals_the_value_at_a_time_reference(
        picks in proptest::collection::vec(proptest::collection::vec(0usize..64, 6..7), 0..40),
        flavors in proptest::collection::vec(0usize..4, 6..7),
        shape in (0usize..4, 0usize..4, proptest::collection::vec(0usize..64, 0..6)),
    ) {
        let (n_keys, size_pick, cuts) = shape;
        // Columns 0..3 are the candidate group keys, 3..6 the arguments.
        let rows: Vec<Row> = (picks.iter().enumerate())
            .map(|(r, p)| {
                let keys = (0..3).map(|c| cell(flavors[c], p[c]));
                let args = (3..6).map(|c| numeric_cell(flavors[c] % 3, p[c], r));
                Row::new(keys.chain(args).collect())
            })
            .collect();
        let input_schema = schema(&[
            DataType::Int, DataType::Str, DataType::Float,
            DataType::Int, DataType::Float, DataType::Int,
        ]);
        // Every function over every argument column, plain and DISTINCT, and
        // COUNT(*).
        let mut aggs: Vec<(AggFunc, bool, Option<usize>)> = vec![(AggFunc::CountStar, false, None)];
        for arg in 3..6 {
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
        let got = run(&mut op, &chunk_list(&input_schema, &rows, &cuts), &out_schema, batch_size);

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
        let probe = chunk_list(&probe_schema, &probe_rows, &cuts);

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
                joined.clone(),
                out_schema.clone(),
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
        let input = chunk_list(&keys_schema, &key_rows, &cuts);
        let got = run(&mut distinct, &input, &keys_schema, batch_size);
        let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
        let want: Vec<Row> = (key_rows.into_iter())
            .filter(|r| seen.insert(r.values().to_vec(), ()).is_none())
            .collect();
        prop_assert_eq!(exact(&got), exact(&want));
    }

    /// Identity (d): `sort_batch(.., Some(k))`'s first `k` rows are the full
    /// sort's first `k`, row for row — 1–3 keys, ascending and descending,
    /// heavy ties (the hazard pools are small), NULL/NaN/2^53-twin keys, typed
    /// and `Mixed` key columns, full and selected inputs — the rows past `k`
    /// are the rest in some order, and the full sort is the stable sort under
    /// `Value`'s order.
    #[test]
    fn a_bounded_sort_establishes_the_first_k_rows_of_the_full_sort(
        picks in proptest::collection::vec(proptest::collection::vec(0usize..64, 3..4), 0..40),
        flavors in proptest::collection::vec(0usize..4, 3..4),
        spec in proptest::collection::vec((0usize..3, any::<bool>()), 1..4),
        sel in proptest::collection::vec(0usize..64, 0..50),
        selected in any::<bool>(),
    ) {
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

        for k in [0, 1, n.saturating_sub(1), n, n + 1] {
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
