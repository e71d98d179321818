//! Concrete source adapters.
//!
//! Every adapter answers in columns it holds for as long as no write changes
//! them: the stored-table adapters read the table's per-version column image
//! ([`answer_from_table`]), the file adapter parses each file into columns
//! once, the document adapter extracts once per store version. What a store
//! cannot evaluate itself — wrapper-side binding lists, filters, limit,
//! projection — goes through the one evaluator, [`apply_query_locally`], which
//! answers with a selection and a column pick over its input: nothing is
//! copied at the source.

pub mod csv;
pub mod document;
pub mod relational;
pub mod webservice;

use std::sync::Arc;

use eii_data::keys::{KeyTable, NO_KEY};
use eii_data::{ColumnarBatch, EiiError, Result, Schema, Value};
use eii_expr::{bind, eval_column, eval_filter, referenced_columns, BoundExpr, Expr};
use eii_storage::Database;

use crate::connector::{BindAccess, SourceAnswer, SourceQuery};

/// A binding list: rows whose column equals any of the values.
type Binding = (String, Vec<Value>);

/// Answer `query` from a table of `db`. `resolved` is the binding the table
/// resolves itself (index probes, or one bucketing scan when the column has
/// no index); `wrapper_side` bindings are evaluated here, with the filters.
///
/// The table is read as shared image columns (`Table::scan_columns`,
/// `Table::lookup_in_columns`), and only the columns the answer ships or the
/// evaluator reads are asked for — so only those are built on a cold read. A
/// binding is charged the rows it matched on either access path — simulated
/// time prices an unindexed binding as if it were indexed
/// (docs/architecture.md, "Source access paths") — and an unbound query the
/// table's live rows, even when a bare `LIMIT` keeps only the first few.
pub(crate) fn answer_from_table(
    db: &Database,
    query: &SourceQuery,
    resolved: Option<&Binding>,
    wrapper_side: &[Binding],
) -> Result<SourceAnswer> {
    let handle = db.table(&query.table)?;
    let t = handle.read();
    let schema = t.schema();
    // What gets built: the columns that ship, then whatever else the filters
    // and the wrapper-side bindings read.
    let mut cols: Vec<usize> = Vec::new();
    let mut build = |i: usize| {
        if !cols.contains(&i) {
            cols.push(i);
        }
    };
    match &query.projection {
        Some(names) => {
            for c in names {
                build(schema.index_of(None, c)?);
            }
        }
        None => (0..schema.len()).for_each(&mut build),
    }
    for c in query.filters.iter().flat_map(referenced_columns) {
        build(schema.index_of(c.relation.as_deref(), &c.name)?);
    }
    for (c, _) in wrapper_side {
        build(schema.index_of(None, c)?);
    }
    let ((scanned, columns_built), rows_scanned, bind_access) = match resolved {
        Some((col, vals)) => {
            let col = schema.index_of(None, col)?;
            let access = if t.has_eq_index(col) {
                BindAccess::Index
            } else {
                BindAccess::Scan
            };
            let (found, built) = t.lookup_in_columns(col, vals, &cols);
            let matched = found.num_rows();
            ((found, built), matched, Some(access))
        }
        None => {
            let bare = query.filters.is_empty() && wrapper_side.is_empty();
            let stop = query.limit.filter(|_| bare).unwrap_or(usize::MAX);
            (t.scan_columns(&cols, stop), t.row_count(), None)
        }
    };
    drop(t);
    let batch = apply_query_locally(
        &scanned,
        &query.filters,
        wrapper_side,
        query.projection.as_deref(),
        query.limit,
    )?;
    Ok(SourceAnswer {
        bind_access,
        columns_built,
        ..SourceAnswer::one_shot(batch, rows_scanned)
    })
}

/// The one evaluator of a component query over columns already in memory —
/// the semantics a cooperative source applies: binding lists, conjunctive
/// filters (each over the survivors of the one before), then limit, then
/// projection as a column pick. Adapters whose store cannot evaluate these
/// itself answer through it, and so does the executor when a fallback
/// snapshot stands in for a dead source, so the two cannot drift apart.
pub fn apply_query_locally(
    input: &ColumnarBatch,
    filters: &[Expr],
    bindings: &[Binding],
    projection: Option<&[String]>,
    limit: Option<usize>,
) -> Result<ColumnarBatch> {
    let schema = input.schema();
    let filters = filters
        .iter()
        .map(|f| bind(f, schema))
        .collect::<Result<Vec<_>>>()?;
    let bound = bound_rows(input, bindings)?;
    // A source stops at its limit and a row skips the filters after the one
    // that rejects it; the kernels run each filter over every survivor. When
    // one of them errs, the row-at-a-time sweep says whether — and how — the
    // source would have.
    let kept = match survivors(&bound, &filters, limit) {
        Ok(kept) => kept,
        Err(_) => survivors_by_rows(&bound, &filters, limit)?,
    };
    let Some(names) = projection else {
        return Ok(kept);
    };
    let indices = names
        .iter()
        .map(|c| schema.index_of(None, c))
        .collect::<Result<Vec<_>>>()?;
    let out_schema = Arc::new(Schema::new(
        indices.iter().map(|&i| schema.field(i).clone()).collect(),
    ));
    let columns = indices.iter().map(|&i| kept.column(i).clone()).collect();
    Ok(kept.with_columns(out_schema, columns))
}

/// The rows of `input` whose cell in each bound column equals a value of its
/// binding list, as a selection over it: per binding, the list interned once
/// and the column's typed vector probed in one hashed pass — no `Value` per
/// row. A binding cannot fail, so it runs ahead of the filters.
fn bound_rows(input: &ColumnarBatch, bindings: &[Binding]) -> Result<ColumnarBatch> {
    let mut kept = input.clone();
    for (col, vals) in bindings {
        let at = BoundExpr::Column(kept.schema().index_of(None, col)?);
        let (keys, _) = KeyTable::of_values(vals);
        let found = keys.find_rows(&[eval_column(&at, &kept)?], kept.num_rows());
        let hits = (0..).zip(found).filter(|&(_, k)| k != NO_KEY).map(|(row, _)| row);
        kept = kept.select(hits.collect());
    }
    Ok(kept)
}

/// The rows of `input` a component query keeps, as a selection over it.
fn survivors(
    input: &ColumnarBatch,
    filters: &[BoundExpr],
    limit: Option<usize>,
) -> Result<ColumnarBatch> {
    let mut kept = input.clone();
    for f in filters {
        kept = kept.select(eval_filter(f, &kept)?);
    }
    Ok(kept.head(limit.unwrap_or(usize::MAX)))
}

/// [`survivors`], one row at a time: nothing past the limit is looked at and
/// a rejected row meets no further filter.
fn survivors_by_rows(
    input: &ColumnarBatch,
    filters: &[BoundExpr],
    limit: Option<usize>,
) -> Result<ColumnarBatch> {
    let mut keep = Vec::new();
    'rows: for i in 0..input.num_rows() {
        if limit.is_some_and(|n| keep.len() >= n) {
            break;
        }
        let row = input.row(i);
        for f in filters {
            if !f.eval_predicate(&row)? {
                continue 'rows;
            }
        }
        keep.push(i as u32);
    }
    Ok(input.select(keep))
}

/// Defensive check used by adapters that cannot evaluate filters/bindings.
pub(crate) fn reject_unsupported(
    source: &str,
    filters: &[Expr],
    bindings: &[(String, Vec<Value>)],
) -> Result<()> {
    if !filters.is_empty() || !bindings.is_empty() {
        return Err(EiiError::Source(format!(
            "source {source} cannot evaluate filters or bindings; plan must assemble locally"
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::csv::CsvConnector;
    use super::document::{DocumentConnector, VirtualTable};
    use super::relational::RelationalConnector;
    use super::webservice::WebServiceConnector;
    use super::*;
    use crate::connector::Connector;
    use crate::net::WireFormat;
    use eii_data::{Batch, DataType, Field, Row, SchemaRef, SimClock};
    use eii_docstore::{DocStore, Document};
    use eii_expr::BinaryOp;
    use eii_storage::TableDef;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::time::{Duration, Instant};

    /// Best-of-3 wall time of `run` with 2 000 bound keys over best-of-3
    /// with 20: how a bound query's cost grows with its binding list. A
    /// ratio, so the machine's speed and the build profile cancel out.
    pub(crate) fn bound_cost_ratio(mut run: impl FnMut(&[Value])) -> f64 {
        let mut best = |n: i64| {
            let keys: Vec<Value> = (0..n).map(Value::Int).collect();
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    run(&keys);
                    t.elapsed()
                })
                .min()
                .unwrap_or(Duration::ZERO)
        };
        let (few, many) = (best(20), best(2_000));
        many.as_secs_f64() / few.as_secs_f64().max(1e-9)
    }

    const P53: i64 = 1 << 53;

    /// Keys and cell values around every equality hazard: duplicates (small
    /// domains), NULL, strings (the empty one too), and — half of all draws —
    /// the five numerics at 2^53 ± 1, where comparing Int with Float through
    /// `f64` would make `Float(2^53)` equal both `Int(2^53)` and
    /// `Int(2^53 + 1)`.
    fn hazard_value() -> impl Strategy<Value = Value> {
        let at_2_53 = || {
            prop_oneof![
                (-1i64..2).prop_map(|d| Value::Int(P53 + d)),
                (-1i64..1).prop_map(|d| Value::Float((P53 + d) as f64)),
            ]
        };
        prop_oneof![
            at_2_53(),
            at_2_53(),
            at_2_53(),
            Just(Value::Null),
            (0i64..2).prop_map(|i| if i == 0 {
                Value::Int(1)
            } else {
                Value::Float(1.0)
            }),
            (0i64..3).prop_map(|i| Value::str(["", "s0", "s1"][i as usize])),
        ]
    }

    /// `(k_int, k_float, k_str, d)` cells: the first three drawn from
    /// [`hazard_value`]'s domain — a draw of another type than its column's
    /// becomes NULL, as a typed table requires — and a small divisor, zero
    /// included, for a filter that can fail.
    fn typed_cells() -> impl Strategy<Value = Vec<Value>> {
        ((hazard_value(), hazard_value()), (hazard_value(), 0i64..4)).prop_map(|((a, b), (c, d))| {
            let typed = |v: Value, ty| {
                if v.data_type() == Some(ty) {
                    v
                } else {
                    Value::Null
                }
            };
            vec![
                typed(a, DataType::Int),
                typed(b, DataType::Float),
                typed(c, DataType::Str),
                Value::Int(d),
            ]
        })
    }

    fn typed_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("k_int", DataType::Int),
            Field::new("k_float", DataType::Float),
            Field::new("k_str", DataType::Str),
            Field::new("d", DataType::Int),
        ]))
    }

    /// `id` prepended to each generated cell list.
    fn typed_rows(cells: &[Vec<Value>]) -> Vec<Row> {
        let with_id = |(i, cells): (usize, &Vec<Value>)| {
            Row::new(std::iter::once(Value::Int(i as i64)).chain(cells.iter().cloned()).collect())
        };
        cells.iter().enumerate().map(with_id).collect()
    }

    /// A database holding [`typed_rows`] of `cells` in a table `t` keyed on
    /// `id` and indexed per `index`: 0 none, 1 a hash index, 2 an ordered
    /// index, on `col`.
    fn database_of(cells: &[Vec<Value>], index: u8, col: usize) -> Database {
        let db = Database::new("db", SimClock::new());
        let def = TableDef::new("t", typed_schema()).with_primary_key(0);
        let handle = db.create_table(def).expect("fresh database");
        let mut t = handle.write();
        match index {
            0 => {}
            1 => t.create_hash_index(col),
            _ => t.create_ordered_index(col),
        }
        t.insert_all(typed_rows(cells)).expect("typed rows");
        drop(t);
        db
    }

    /// What a source must answer, the way the row evaluator computed it:
    /// candidates (the resolved binding's matches in binding × table order,
    /// else every row), then row by row — stopping at the limit — the other
    /// bindings by linear `==` and the filters in order, then projection.
    /// Returns the answer and the rows the source is charged for.
    fn reference_answer(
        schema: &SchemaRef,
        rows: &[Row],
        q: &SourceQuery,
        resolved: Option<usize>,
    ) -> Result<(Batch, usize)> {
        let idx = |c: &str| schema.index_of(None, c).expect("generated column");
        let candidates: Vec<&Row> = match resolved {
            Some(b) => {
                let (col, keys) = &q.bindings[b];
                let matches = |k| rows.iter().filter(move |r| r.get(idx(col)) == k);
                keys.iter().flat_map(matches).collect()
            }
            None => rows.iter().collect(),
        };
        let filters = q.filters.iter().map(|f| bind(f, schema)).collect::<Result<Vec<_>>>()?;
        let mut kept = Vec::new();
        'rows: for r in &candidates {
            if q.limit.is_some_and(|n| kept.len() >= n) {
                break;
            }
            for (i, (col, vals)) in q.bindings.iter().enumerate() {
                if Some(i) != resolved && !vals.iter().any(|v| v == r.get(idx(col))) {
                    continue 'rows;
                }
            }
            for f in &filters {
                if !f.eval_predicate(r)? {
                    continue 'rows;
                }
            }
            kept.push(*r);
        }
        let cols: Vec<usize> = match &q.projection {
            Some(names) => names.iter().map(|c| idx(c)).collect(),
            None => (0..schema.len()).collect(),
        };
        let out_schema = Schema::new(cols.iter().map(|&i| schema.field(i).clone()).collect());
        let projected = kept.iter().map(|r| r.project(&cols)).collect();
        Ok((Batch::new(Arc::new(out_schema), projected), candidates.len()))
    }

    /// `got` is `want`: same cells in the same order and layout, charged the
    /// same rows, priced the same bytes as the row formulas — or both failed
    /// the same way.
    fn assert_same_answer(
        got: Result<SourceAnswer>,
        want: Result<(Batch, usize)>,
    ) -> std::result::Result<(), TestCaseError> {
        match (got, want) {
            (Ok(got), Ok((want, scanned))) => {
                prop_assert_eq!(&got.batch.to_batch(), &want);
                prop_assert_eq!(got.rows_scanned, scanned);
                prop_assert_eq!(WireFormat::Native.bytes_of(&got.batch), want.wire_size());
                prop_assert_eq!(WireFormat::Xml.bytes_of(&got.batch), want.xml_wire_size());
            }
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => prop_assert!(false, "{:?} but the reference {:?}", got, want),
        }
        Ok(())
    }

    /// The filters a generated query draws from; the last fails on `d = 0`.
    fn filter_pool(i: usize) -> Expr {
        match i {
            0 => Expr::col("k_int").lt_eq(Expr::lit(P53)),
            1 => Expr::col("k_str").eq(Expr::lit("s0")),
            2 => Expr::IsNull {
                expr: Box::new(Expr::col("k_float")),
                negated: true,
            },
            _ => Expr::lit(12i64)
                .binary(BinaryOp::Divide, Expr::col("d"))
                .gt(Expr::lit(4i64)),
        }
    }

    const COLUMNS: [&str; 5] = ["id", "k_int", "k_float", "k_str", "d"];

    /// 0–2 pushed filters × 0–2 bindings × a projection (none, one column,
    /// two out of table order, one twice) × a limit (0 included).
    fn source_query() -> impl Strategy<Value = SourceQuery> {
        let binding = (1usize..4, proptest::collection::vec(hazard_value(), 0..6))
            .prop_map(|(col, keys)| (COLUMNS[col].to_string(), keys));
        let pushed = (
            proptest::collection::vec(0usize..4, 0..3),
            proptest::collection::vec(binding, 0..3),
        );
        (pushed, 0usize..4, 0usize..6).prop_map(|((filters, bindings), projection, limit)| {
            SourceQuery {
                table: "t".into(),
                projection: match projection {
                    0 => None,
                    1 => Some(vec!["k_str".into()]),
                    2 => Some(vec!["d".into(), "id".into()]),
                    _ => Some(vec!["k_int".into(), "k_int".into()]),
                },
                filters: filters.into_iter().map(filter_pool).collect(),
                bindings,
                // 5 stands for "no limit"; 0 is a real `LIMIT 0`.
                limit: (limit < 5).then_some(limit),
            }
        })
    }

    fn scored() -> ColumnarBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Int),
        ]));
        let rows = vec![
            eii_data::row![1i64, "alice", 10i64],
            eii_data::row![2i64, "bob", 20i64],
            eii_data::row![3i64, "carol", 30i64],
        ];
        ColumnarBatch::from_batch(&Batch::new(schema, rows))
    }

    #[test]
    fn applies_filters_projection_and_limit() {
        let filters = [Expr::col("score").gt(Expr::lit(10i64))];
        let name = ["name".to_string()];
        let out = apply_query_locally(&scored(), &filters, &[], Some(&name), Some(1)).unwrap();
        assert_eq!(out.schema().len(), 1);
        assert_eq!(out.to_batch().rows(), [eii_data::row!["bob"]]);
        // `LIMIT 0` is no rows, in the projected layout.
        let none = apply_query_locally(&scored(), &filters, &[], Some(&name), Some(0)).unwrap();
        assert_eq!((none.num_rows(), none.schema().len()), (0, 1));
    }

    #[test]
    fn applies_binding_lists() {
        let bindings = [("id".to_string(), vec![Value::Int(1), Value::Int(3)])];
        let out = apply_query_locally(&scored(), &[], &bindings, None, None).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    /// The binding filter against a linear `==` sweep, in a column gone
    /// Mixed and in a typed Int one, around 2^53 and the other equality
    /// hazards, with single keys and with lists that mix Int and Float.
    #[test]
    fn binding_filter_matches_a_linear_sweep_past_2_pow_53() {
        let mixed = [
            Value::Int(P53), Value::Float(P53 as f64), Value::Null, Value::str("a"),
            Value::Int(P53), Value::Int(P53 + 1), Value::Float(-0.0), Value::Int(0),
        ];
        let ints = [P53 - 1, P53, P53 + 1, 0, i64::MIN, i64::MAX, P53].map(Value::Int);
        let lists = [
            vec![Value::Int(P53 + 1)], vec![Value::Int(P53)], vec![Value::Float(P53 as f64)],
            vec![Value::Null], vec![Value::str("a")], vec![Value::str("b")],
            vec![Value::Timestamp(P53)], vec![Value::Float(0.0)], vec![Value::Float(-0.0)],
            vec![Value::Float(P53 as f64), Value::Int(P53 - 1), Value::Float(i64::MIN as f64)],
            vec![Value::Int(i64::MAX), Value::Float(0.0), Value::Int(P53), Value::Null],
            Vec::new(),
        ];
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        for cells in [&mixed[..], &ints[..]] {
            let rows: Vec<Row> = cells.iter().map(|v| Row::new(vec![v.clone()])).collect();
            let input = ColumnarBatch::from_batch(&Batch::new(schema.clone(), rows.clone()));
            for keys in &lists {
                let bindings = [("k".to_string(), keys.clone())];
                let got = apply_query_locally(&input, &[], &bindings, None, None).unwrap();
                let linear: Vec<Row> =
                    rows.iter().filter(|r| keys.contains(r.get(0))).cloned().collect();
                assert_eq!(got.to_batch().into_rows(), linear, "binding {keys:?}");
            }
        }
    }

    #[test]
    fn a_limit_hides_the_filter_error_of_a_row_never_reached() {
        // `30 / (score - 30) < 0` fails on carol; a source that stops after
        // alice never evaluates her row.
        let risky = Expr::lit(30i64)
            .binary(
                BinaryOp::Divide,
                Expr::col("score").binary(BinaryOp::Minus, Expr::lit(30i64)),
            )
            .lt(Expr::lit(0i64));
        let one = apply_query_locally(&scored(), std::slice::from_ref(&risky), &[], None, Some(1));
        assert_eq!(one.unwrap().to_batch().rows()[0].get(1), &Value::str("alice"));
        let all = apply_query_locally(&scored(), &[risky], &[], None, None);
        assert_eq!(all.unwrap_err().kind(), "execution");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Writes between queries: every answer is the one evaluator's over
        /// a fresh read of the rows as they are now — the table's per-key
        /// `lookup_eq` rows for a binding it resolves, every row otherwise —
        /// and asking again builds no column.
        #[test]
        fn answers_from_a_table_follow_its_writes(
            cells in proptest::collection::vec(typed_cells(), 0..24),
            steps in proptest::collection::vec(((0u8..3, 0i64..24, typed_cells()), source_query()), 1..8),
            index in 0u8..3,
            col in 1usize..4,
        ) {
            let db = database_of(&cells, index, col);
            let handle = db.table("t").unwrap();
            let source = RelationalConnector::new(db);
            for (at, ((write, id, new_cells), q)) in steps.iter().enumerate() {
                let key = Value::Int(*id);
                let mut t = handle.write();
                match write {
                    0 => {
                        let fresh = Value::Int((cells.len() + at) as i64 + 100);
                        t.insert(std::iter::once(fresh).chain(new_cells.iter().cloned()).collect())
                            .expect("typed row under a fresh id");
                    }
                    1 => {
                        let set: Vec<_> = (1..).zip(new_cells.iter().cloned()).collect();
                        t.update_by_pk(&key, &set).expect("typed cells");
                    }
                    _ => {
                        t.delete_by_pk(&key);
                    }
                }
                drop(t);

                let t = handle.read();
                let resolved = match q.bindings.as_slice() {
                    [(c, keys)] => Some((t.schema().index_of(None, c).unwrap(), keys)),
                    _ => None,
                };
                let candidates = match resolved {
                    Some((c, keys)) => keys.iter().flat_map(|k| t.lookup_eq(c, k)).collect(),
                    None => t.scan(|_| true),
                };
                let charged = resolved.map_or(t.row_count(), |_| candidates.len());
                let fresh = ColumnarBatch::from_batch(&Batch::new(t.schema().clone(), candidates));
                drop(t);
                let wrapper_side = if resolved.is_some() { &[][..] } else { &q.bindings[..] };
                let want = apply_query_locally(
                    &fresh, &q.filters, wrapper_side, q.projection.as_deref(), q.limit,
                );
                assert_same_answer(source.execute(q), want.map(|b| (b.to_batch(), charged)))?;
                if let Ok(again) = source.execute(q) {
                    prop_assert_eq!(again.columns_built, 0);
                }
            }
        }

        /// Over columns declared `Int` that the hazard values turn `Mixed`.
        #[test]
        fn apply_query_locally_equals_linear_reference(
            cells in proptest::collection::vec((hazard_value(), hazard_value()), 0..24),
            q in source_query(),
        ) {
            let mut q = q;
            let schema: SchemaRef = Arc::new(Schema::new(vec![
                Field::new("k_int", DataType::Int),
                Field::new("k_str", DataType::Int),
            ]));
            let rows: Vec<Row> = cells.into_iter().map(|(a, b)| Row::new(vec![a, b])).collect();
            let known = |c: &str| schema.index_of(None, c).is_ok();
            q.filters.truncate(2); // pool entries 0 and 1 read these two columns
            q.filters.retain(|f| *f != filter_pool(2) && *f != filter_pool(3));
            q.bindings.retain(|(c, _)| known(c));
            q.projection = q.projection.filter(|p| p.iter().all(|c| known(c)));
            let input = ColumnarBatch::from_batch(&Batch::new(schema.clone(), rows.clone()));
            let got = apply_query_locally(
                &input, &q.filters, &q.bindings, q.projection.as_deref(), q.limit,
            );
            let got = got.map(|batch| SourceAnswer::one_shot(batch, rows.len()));
            assert_same_answer(got, reference_answer(&schema, &rows, &q, None))?;
        }

        /// Identity (c): every adapter's columnar answer is the row
        /// evaluator's, cell for cell, scan for scan, byte for byte.
        #[test]
        fn every_adapter_answers_what_the_row_evaluator_answered(
            cells in proptest::collection::vec(typed_cells(), 0..24),
            q in source_query(),
            index in 0u8..3,
        ) {
            let schema = typed_schema();
            let rows = typed_rows(&cells);
            let bound_col = q.bindings.first().map(|(c, _)| schema.index_of(None, c).unwrap());
            let db = || database_of(&cells, index, bound_col.unwrap_or(1));
            let indexed = index > 0;

            // Relational: the table resolves a lone binding itself.
            let resolved = (q.bindings.len() == 1).then_some(0);
            let got = RelationalConnector::new(db()).execute(&q);
            if let Ok(ans) = &got {
                let access = if indexed { BindAccess::Index } else { BindAccess::Scan };
                prop_assert_eq!(ans.bind_access, resolved.map(|_| access));
                prop_assert_eq!(ans.calls, 1);
            }
            assert_same_answer(got, reference_answer(&schema, &rows, &q, resolved))?;

            // Web service: no predicates; its required column is resolved by
            // the hidden store, one call per bound value.
            let unfiltered = SourceQuery { filters: Vec::new(), ..q.clone() };
            let mut svc = WebServiceConnector::new("svc", db());
            if let Some((col, _)) = q.bindings.first() {
                svc = svc.require_binding("t", col.clone());
            }
            let resolved = q.bindings.first().map(|_| 0);
            let got = svc.execute(&unfiltered);
            if let Ok(ans) = &got {
                let keys = q.bindings.first().map_or(1, |(_, keys)| keys.len().max(1));
                prop_assert_eq!(ans.calls, keys);
                prop_assert_eq!(ans.bind_access.is_some(), resolved.is_some());
            }
            assert_same_answer(got, reference_answer(&schema, &rows, &unfiltered, resolved))?;

            // Document store: one document per row; whatever the extraction
            // reads back is the table the wrapper evaluates over.
            let store = DocStore::new();
            for r in &rows {
                let cell = |(c, v): (usize, &Value)| (COLUMNS[c], v.to_string());
                let fields = r.values().iter().enumerate().filter(|(_, v)| !v.is_null());
                store.insert(Document::from_records("row", &[fields.map(cell).collect()]));
            }
            let columns = schema
                .fields()
                .iter()
                .map(|f| (f.name.clone(), format!("//row/{}", f.name), f.data_type))
                .collect();
            let docs = DocumentConnector::new("docs", store)
                .define_table(VirtualTable { name: "t".into(), columns });
            let extracted = docs.execute(&SourceQuery::full_table("t")).unwrap().batch.to_batch();
            prop_assert_eq!(extracted.num_rows(), rows.len());
            let want = reference_answer(extracted.schema(), extracted.rows(), &q, None)
                .map(|(batch, _)| (batch, rows.len()));
            assert_same_answer(docs.execute(&q), want)?;

            // Delimited file: ships whole files, refuses everything else.
            let line = |r: &Row| {
                let cell = |v: &Value| if v.is_null() { String::new() } else { v.to_string() };
                r.values().iter().map(cell).collect::<Vec<_>>().join("|")
            };
            let text: Vec<String> = std::iter::once(COLUMNS.join("|"))
                .chain(rows.iter().map(line))
                .collect();
            let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
            let files = CsvConnector::new("files")
                .add_file("t", &text.join("\n"), '|', &types)
                .unwrap();
            let whole = files.execute(&SourceQuery::full_table("t")).unwrap();
            let parsed = whole.batch.to_batch();
            prop_assert_eq!(whole.rows_scanned, parsed.num_rows());
            let full = SourceQuery::full_table("t");
            let want = reference_answer(parsed.schema(), parsed.rows(), &full, None);
            assert_same_answer(Ok(whole), want)?;
            let pushes = q != full;
            prop_assert_eq!(files.execute(&q).is_err(), pushes);
        }
    }
}
