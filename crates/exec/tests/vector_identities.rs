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
//!   aggregate.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use eii_data::{Batch, ColumnarBatch, DataType, EiiError, Field, Row, Schema, SchemaRef, Value};
use eii_exec::{drive, BatchOperator, Chunks, VecAggregate, VecHashJoin};
use eii_expr::{eval_column, AggFunc, BoundExpr};
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
