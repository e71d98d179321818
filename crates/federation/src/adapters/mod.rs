//! Concrete source adapters.

pub mod csv;
pub mod document;
pub mod relational;
pub mod webservice;

use eii_data::{Batch, EiiError, KeyProbe, Result, Row, SchemaRef, Value};
use eii_expr::{bind, Expr};
use eii_storage::Table;

use crate::connector::BindAccess;

/// Resolve one equality binding inside the source's table — the table picks
/// index probes or one bucketing scan — and report which it was.
pub(crate) fn lookup_binding(t: &Table, col: usize, vals: &[Value]) -> (Vec<Row>, BindAccess) {
    let access = if t.has_eq_index(col) {
        BindAccess::Index
    } else {
        BindAccess::Scan
    };
    (t.lookup_in(col, vals), access)
}

/// The one evaluator of a component query over rows already in memory — the
/// semantics a cooperative source applies: binding lists, conjunctive
/// filters, then limit, then projection. Adapters whose store cannot evaluate
/// these itself answer through it, and so does the executor when a fallback
/// snapshot stands in for a dead source, so the two cannot drift apart.
pub fn apply_query_locally(
    schema: &SchemaRef,
    rows: Vec<Row>,
    filters: &[Expr],
    bindings: &[(String, Vec<Value>)],
    projection: Option<&[String]>,
    limit: Option<usize>,
) -> Result<Batch> {
    let bound_filters = filters
        .iter()
        .map(|f| bind(f, schema))
        .collect::<Result<Vec<_>>>()?;
    let binding_cols = bindings
        .iter()
        .map(|(col, vals)| Ok((schema.index_of(None, col)?, KeyProbe::new(vals))))
        .collect::<Result<Vec<_>>>()?;
    let mut out = Vec::new();
    for row in rows {
        if limit.is_some_and(|n| out.len() >= n) {
            break;
        }
        let mut keep = true;
        for (col, vals) in &binding_cols {
            if !vals.contains(row.get(*col)) {
                keep = false;
                break;
            }
        }
        if keep {
            for f in &bound_filters {
                if !f.eval_predicate(&row)? {
                    keep = false;
                    break;
                }
            }
        }
        if keep {
            out.push(row);
        }
    }
    project_batch(schema, out, projection)
}

/// Project rows to the named columns (or all when `None`).
pub(crate) fn project_batch(
    schema: &SchemaRef,
    rows: Vec<Row>,
    projection: Option<&[String]>,
) -> Result<Batch> {
    match projection {
        None => Ok(Batch::new(schema.clone(), rows)),
        Some(cols) => {
            let indices = cols
                .iter()
                .map(|c| schema.index_of(None, c))
                .collect::<Result<Vec<_>>>()?;
            let out_schema = std::sync::Arc::new(eii_data::Schema::new(
                indices.iter().map(|&i| schema.field(i).clone()).collect(),
            ));
            let projected = rows.into_iter().map(|r| r.project(&indices)).collect();
            Ok(Batch::new(out_schema, projected))
        }
    }
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
    use super::*;
    use eii_data::{DataType, Field, Schema, SimClock};
    use eii_storage::TableDef;
    use proptest::prelude::*;
    use std::sync::Arc;
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
    /// domains), NULL, strings, and — half of all draws — the five numerics
    /// at 2^53 ± 1, where comparing Int with Float through `f64` would make
    /// `Float(2^53)` equal both `Int(2^53)` and `Int(2^53 + 1)`.
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
            (0i64..2).prop_map(|i| Value::str(format!("s{i}"))),
        ]
    }

    /// `(k_int, k_float, k_str)` cells drawn from [`hazard_value`]'s domain;
    /// a draw of another type than its column's becomes NULL, as a typed
    /// table requires.
    fn typed_cells() -> impl Strategy<Value = Vec<Value>> {
        (hazard_value(), hazard_value(), hazard_value()).prop_map(|(a, b, c)| {
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
            ]
        })
    }

    fn table_of(rows: &[Vec<Value>], index: impl Fn(&mut Table)) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("k_int", DataType::Int),
            Field::new("k_float", DataType::Float),
            Field::new("k_str", DataType::Str),
        ]));
        let mut t = Table::new(
            TableDef::new("t", schema).with_primary_key(0),
            SimClock::new(),
        );
        index(&mut t);
        for (i, cells) in rows.iter().enumerate() {
            let mut row = vec![Value::Int(i as i64)];
            row.extend(cells.iter().cloned());
            t.insert(Row::new(row)).expect("typed row");
        }
        t
    }

    /// What `apply_query_locally` must compute, bindings by linear `==`.
    fn reference_apply(
        rows: &[Row],
        bindings: &[(usize, Vec<Value>)],
        limit: Option<usize>,
    ) -> Vec<Row> {
        rows.iter()
            .filter(|r| {
                bindings
                    .iter()
                    .all(|(col, vals)| vals.iter().any(|v| v == r.get(*col)))
            })
            .take(limit.unwrap_or(usize::MAX))
            .cloned()
            .collect()
    }

    fn scored() -> (SchemaRef, Vec<Row>) {
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
        (schema, rows)
    }

    #[test]
    fn applies_filters_projection_and_limit() {
        let (schema, rows) = scored();
        let filters = [Expr::col("score").gt(Expr::lit(10i64))];
        let name = ["name".to_string()];
        let out = apply_query_locally(&schema, rows.clone(), &filters, &[], Some(&name), Some(1))
            .unwrap();
        assert_eq!(out.schema().len(), 1);
        assert_eq!(out.rows(), [eii_data::row!["bob"]]);
        // `LIMIT 0` is no rows, in the projected layout.
        let none = apply_query_locally(&schema, rows, &filters, &[], Some(&name), Some(0)).unwrap();
        assert_eq!((none.num_rows(), none.schema().len()), (0, 1));
    }

    #[test]
    fn applies_binding_lists() {
        let (schema, rows) = scored();
        let bindings = [("id".to_string(), vec![Value::Int(1), Value::Int(3)])];
        let out = apply_query_locally(&schema, rows, &[], &bindings, None, None).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lookup_in_equals_concatenated_lookup_eq(
            rows in proptest::collection::vec(typed_cells(), 0..24),
            keys in proptest::collection::vec(hazard_value(), 0..10),
            col in 1usize..4,
        ) {
            let tables = [
                table_of(&rows, |_| {}),
                table_of(&rows, |t| t.create_hash_index(col)),
                table_of(&rows, |t| t.create_ordered_index(col)),
            ];
            for t in &tables {
                let per_key: Vec<Row> = keys.iter().flat_map(|k| t.lookup_eq(col, k)).collect();
                prop_assert_eq!(t.lookup_in(col, &keys), per_key);
            }
            // Indexed ≡ unindexed, key by key — also at 2^53 ± 1.
            for t in &tables[1..] {
                for k in &keys {
                    prop_assert_eq!(t.lookup_eq(col, k), tables[0].lookup_eq(col, k), "key {}", k);
                }
                prop_assert_eq!(t.lookup_in(col, &keys), tables[0].lookup_in(col, &keys));
            }
            // The primary key's own index.
            let t = &tables[0];
            let per_key: Vec<Row> = keys.iter().flat_map(|k| t.lookup_eq(0, k)).collect();
            prop_assert_eq!(t.lookup_in(0, &keys), per_key);
        }

        #[test]
        fn apply_query_locally_equals_linear_reference(
            cells in proptest::collection::vec((hazard_value(), hazard_value()), 0..24),
            first in proptest::collection::vec(hazard_value(), 0..8),
            second in proptest::collection::vec(hazard_value(), 0..8),
            bind_second in any::<bool>(),
            limit in 0usize..6,
        ) {
            let schema: SchemaRef = Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]));
            let rows: Vec<Row> = cells.into_iter().map(|(a, b)| Row::new(vec![a, b])).collect();
            let mut named = vec![("a".to_string(), first.clone())];
            let mut by_index = vec![(0, first)];
            if bind_second {
                named.push(("b".to_string(), second.clone()));
                by_index.push((1, second));
            }
            // 6 stands for "no limit"; 0 is a real `LIMIT 0`.
            let limit = (limit < 6).then_some(limit);
            let got = apply_query_locally(&schema, rows.clone(), &[], &named, None, limit)
                .expect("both binding columns exist");
            prop_assert_eq!(got.into_rows(), reference_apply(&rows, &by_index, limit));
        }
    }
}
