//! Adapter exposing a schema-less [`DocStore`] as relational virtual tables.
//!
//! The *wrapper* holds the schema (a set of path-extraction rules per
//! virtual table); the store itself stays schema-less. Filtering and
//! projection run wrapper-side, which still counts as source-site work for
//! the network — the wrapper is co-located with the store.
//!
//! Imposing the schema walks every document through every path rule, so it is
//! done once per [`DocStore::version`]: queries and statistics are answered
//! from the held columns, and the first read after a write extracts again.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use eii_data::{ColumnarBatch, DataType, EiiError, Result, Schema, SchemaRef};
use eii_docstore::DocStore;
use eii_storage::TableStats;
use parking_lot::Mutex;

use crate::adapters::apply_query_locally;
use crate::capability::SourceCapabilities;
use crate::connector::{Connector, SourceAnswer, SourceQuery};
use crate::dialect::Dialect;

/// A virtual table: a name plus the path rules that impose its schema on
/// the documents at read time.
#[derive(Debug, Clone)]
pub struct VirtualTable {
    pub name: String,
    /// `(column name, extraction path, type)` triples.
    pub columns: Vec<(String, String, DataType)>,
}

/// One extraction of a virtual table: the [`DocStore::version`] read before
/// extracting, the columns, and their statistics once someone asked.
type Extraction = (u64, ColumnarBatch, OnceLock<Arc<TableStats>>);

/// A wrapped document store.
pub struct DocumentConnector {
    name: String,
    store: DocStore,
    tables: BTreeMap<String, VirtualTable>,
    /// The latest extraction of each virtual table.
    held: Mutex<BTreeMap<String, Arc<Extraction>>>,
}

impl DocumentConnector {
    /// Wrap a store under a source name.
    pub fn new(name: impl Into<String>, store: DocStore) -> Self {
        DocumentConnector {
            name: name.into(),
            store,
            tables: BTreeMap::new(),
            held: Mutex::default(),
        }
    }

    /// Define a virtual table (client-side schema imposition).
    pub fn define_table(mut self, vt: VirtualTable) -> Self {
        self.held.get_mut().remove(&vt.name);
        self.tables.insert(vt.name.clone(), vt);
        self
    }

    /// Access the underlying store (for the search substrate).
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    fn table(&self, name: &str) -> Result<&VirtualTable> {
        self.tables.get(name).ok_or_else(|| {
            EiiError::NotFound(format!("virtual table {name} in source {}", self.name))
        })
    }

    /// The virtual table's schema imposed on the store's current documents,
    /// and how many columns this call had to extract (0: the held extraction
    /// is of this version). Version first, extraction second: a write racing
    /// the extraction files it under the older version, which the next call
    /// replaces — never a stale hit.
    fn extract(&self, table: &str) -> Result<(Arc<Extraction>, usize)> {
        let version = self.store.version();
        if let Some(held) = self.held.lock().get(table).filter(|held| held.0 == version) {
            return Ok((held.clone(), 0));
        }
        let rules = &self.table(table)?.columns;
        let cols: Vec<_> = rules.iter().map(|(n, p, ty)| (n.as_str(), p.as_str(), *ty)).collect();
        let fresh = Arc::new((version, self.store.extract(&cols), OnceLock::new()));
        self.held.lock().insert(table.to_string(), fresh.clone());
        Ok((fresh, cols.len()))
    }
}

impl Connector for DocumentConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn tables(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        let vt = self.table(table)?;
        Ok(Arc::new(Schema::new(
            vt.columns
                .iter()
                .map(|(n, _, ty)| eii_data::Field::new(n.clone(), *ty))
                .collect(),
        )))
    }

    fn capabilities(&self) -> SourceCapabilities {
        SourceCapabilities::document()
    }

    fn dialect(&self) -> Dialect {
        // The wrapper evaluates predicates itself (it is our code, not a
        // remote engine), so the full dialect applies.
        Dialect::ansi_full()
    }

    fn statistics(&self, table: &str) -> Result<Arc<TableStats>> {
        let (held, _) = self.extract(table)?;
        let analyze = || {
            let rows = held.1.to_batch();
            Arc::new(TableStats::analyze(rows.schema().len(), rows.rows().iter()))
        };
        Ok(held.2.get_or_init(analyze).clone())
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        let (held, columns_built) = self.extract(&query.table)?;
        let batch = apply_query_locally(
            &held.1,
            &query.filters,
            &query.bindings,
            query.projection.as_deref(),
            query.limit,
        )?;
        Ok(SourceAnswer {
            columns_built,
            ..SourceAnswer::one_shot(batch, held.1.num_rows())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::Value;
    use eii_docstore::Document;
    use eii_expr::Expr;

    fn setup() -> DocumentConnector {
        let store = DocStore::new();
        store.insert(Document::from_records(
            "tickets week 1",
            &[
                vec![
                    ("ticket_id", "100".into()),
                    ("customer", "alice".into()),
                    ("severity", "3".into()),
                ],
                vec![
                    ("ticket_id", "101".into()),
                    ("customer", "bob".into()),
                    ("severity", "1".into()),
                ],
            ],
        ));
        DocumentConnector::new("support", store).define_table(VirtualTable {
            name: "tickets".into(),
            columns: vec![
                ("ticket_id".into(), "//row/ticket_id".into(), DataType::Int),
                ("customer".into(), "//row/customer".into(), DataType::Str),
                ("severity".into(), "//row/severity".into(), DataType::Int),
            ],
        })
    }

    #[test]
    fn virtual_table_schema() {
        let c = setup();
        let s = c.table_schema("tickets").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).data_type, DataType::Int);
        assert_eq!(c.tables(), vec!["tickets"]);
        assert_eq!(c.table_schema("nope").unwrap_err().kind(), "not_found");
    }

    #[test]
    fn filters_apply_after_extraction() {
        let c = setup();
        let q = SourceQuery {
            table: "tickets".into(),
            projection: Some(vec!["customer".into()]),
            filters: vec![Expr::col("severity").lt(Expr::lit(2i64))],
            bindings: vec![],
            limit: None,
        };
        let ans = c.execute(&q).unwrap();
        assert_eq!(ans.batch.num_rows(), 1);
        assert_eq!(ans.batch.value_at(0, 0), Value::str("bob"));
        assert_eq!(ans.rows_scanned, 2);
    }

    #[test]
    fn statistics_computed_on_extraction() {
        let c = setup();
        let s = c.statistics("tickets").unwrap();
        assert_eq!(s.row_count, 2);
        assert_eq!(s.columns[1].ndv, 2);
    }

    #[test]
    fn statistics_follow_the_store_version() {
        let c = setup();
        let first = c.statistics("tickets").unwrap();
        assert!(
            Arc::ptr_eq(&first, &c.statistics("tickets").unwrap()),
            "same version: no second extraction"
        );
        let id = c.store().insert(week_2());
        let grown = c.statistics("tickets").unwrap();
        assert_eq!((grown.row_count, grown.columns[1].ndv), (3, 3), "insert");
        assert!(c.store().remove(id));
        let shrunk = c.statistics("tickets").unwrap();
        assert_eq!(*shrunk, *first, "remove");
        assert!(!Arc::ptr_eq(&shrunk, &first));
    }

    fn week_2() -> Document {
        let ticket = vec![
            ("ticket_id", "102".into()),
            ("customer", "carol".into()),
            ("severity", "2".into()),
        ];
        Document::from_records("tickets week 2", &[ticket])
    }

    #[test]
    fn one_extraction_serves_every_read_at_a_version() {
        let c = setup();
        let all = SourceQuery::full_table("tickets");
        let severe = SourceQuery {
            filters: vec![Expr::col("severity").gt(Expr::lit(1i64))],
            projection: Some(vec!["customer".into()]),
            ..all.clone()
        };
        let first = c.execute(&all).unwrap();
        assert_eq!((first.batch.num_rows(), first.columns_built), (2, 3));
        let held = c.held.lock()["tickets"].clone();
        // Whatever is asked at this version — statistics too — is answered
        // from the held columns: a selection and a column pick, no extraction.
        let picked = c.execute(&severe).unwrap();
        assert_eq!((picked.batch.num_rows(), picked.columns_built), (1, 0));
        assert!(Arc::ptr_eq(picked.batch.column(0), first.batch.column(1)));
        assert_eq!(c.statistics("tickets").unwrap().row_count, 2);
        assert_eq!(c.execute(&all).unwrap().columns_built, 0);
        assert!(Arc::ptr_eq(&held, &c.held.lock()["tickets"]));

        // A write moves the version: the next read extracts, once.
        let id = c.store().insert(week_2());
        let grown = c.execute(&all).unwrap();
        assert_eq!((grown.batch.num_rows(), grown.columns_built), (3, 3));
        assert_eq!(c.execute(&severe).unwrap().columns_built, 0);
        assert_eq!(first.batch.num_rows(), 2, "an answer in flight keeps its columns");
        assert!(c.store().remove(id));
        let shrunk = c.execute(&all).unwrap();
        assert_eq!((shrunk.batch.num_rows(), shrunk.columns_built), (2, 3));
    }

    #[test]
    fn statistics_extract_when_nothing_is_held_and_never_twice() {
        let c = setup();
        assert_eq!(c.statistics("tickets").unwrap().row_count, 2);
        let ans = c.execute(&SourceQuery::full_table("tickets")).unwrap();
        assert_eq!(ans.columns_built, 0, "the statistics' extraction serves the query");
    }

    #[test]
    fn redefining_a_table_drops_what_was_extracted_under_the_old_rules() {
        let c = setup();
        let all = SourceQuery::full_table("tickets");
        assert_eq!(c.execute(&all).unwrap().batch.schema().len(), 3);
        assert_eq!(c.statistics("tickets").unwrap().columns.len(), 3);
        let c = c.define_table(VirtualTable {
            name: "tickets".into(),
            columns: vec![("who".into(), "//row/customer".into(), DataType::Str)],
        });
        let ans = c.execute(&all).unwrap();
        assert_eq!((ans.batch.schema().len(), ans.columns_built), (1, 1));
        assert_eq!(ans.batch.value_at(1, 0), Value::str("bob"));
        assert_eq!(c.statistics("tickets").unwrap().columns.len(), 1);
    }

    #[test]
    fn bound_query_cost_grows_with_matches_not_with_keys_times_rows() {
        let store = DocStore::new();
        let records: Vec<Vec<(&str, String)>> = (0..20_000)
            .map(|i| vec![("ticket_id", i.to_string())])
            .collect();
        store.insert(Document::from_records("tickets", &records));
        let c = DocumentConnector::new("support", store).define_table(VirtualTable {
            name: "tickets".into(),
            columns: vec![("ticket_id".into(), "//row/ticket_id".into(), DataType::Int)],
        });
        let ratio = crate::adapters::tests::bound_cost_ratio(|keys| {
            let q = SourceQuery {
                table: "tickets".into(),
                bindings: vec![("ticket_id".into(), keys.to_vec())],
                ..SourceQuery::default()
            };
            assert_eq!(c.execute(&q).unwrap().batch.num_rows(), keys.len());
        });
        // Both sizes pay the same extraction; a linear sweep of the binding
        // list per row on top of it makes this ~30, a hashed probe ~1.
        assert!(ratio < 5.0, "2000 keys cost {ratio:.1}x what 20 keys cost");
    }

    #[test]
    fn updates_are_rejected() {
        let c = setup();
        let err = c
            .update(&crate::connector::UpdateOp::DeleteByKey {
                table: "tickets".into(),
                key: Value::Int(100),
            })
            .unwrap_err();
        assert_eq!(err.kind(), "source");
    }
}
