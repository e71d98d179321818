//! The document store itself.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use eii_data::{ColumnBuilder, ColumnarBatch, DataType, EiiError, Field, Result, Schema, Value};

use crate::document::{DocId, Document};
use crate::path::PathQuery;
use crate::tokenize::tokenize_text;

#[derive(Debug, Default)]
struct Inner {
    docs: BTreeMap<DocId, Document>,
    next_id: DocId,
    /// token -> set of documents containing it (kept incrementally).
    keyword_index: HashMap<String, HashSet<DocId>>,
    /// Bumped by every insert and every effective remove.
    version: u64,
}

/// A shared, schema-less document store.
///
/// Note what is *absent*: there is no schema registration, no column
/// catalog, no mapping step. `insert` is the entire administration cost of
/// adding data — the property the economics experiment (E2) measures.
#[derive(Debug, Clone, Default)]
pub struct DocStore {
    inner: Arc<RwLock<Inner>>,
}

impl DocStore {
    /// An empty store.
    pub fn new() -> Self {
        DocStore::default()
    }

    /// Insert a document, assigning and returning its id.
    pub fn insert(&self, mut doc: Document) -> DocId {
        let mut inner = self.inner.write();
        inner.next_id += 1;
        let id = inner.next_id;
        doc.id = id;
        let text = format!("{} {}", doc.title, doc.root.full_text());
        for tok in tokenize_text(&text) {
            inner.keyword_index.entry(tok).or_default().insert(id);
        }
        inner.docs.insert(id, doc);
        inner.version += 1;
        id
    }

    /// Fetch a document by id.
    pub fn get(&self, id: DocId) -> Result<Document> {
        self.inner
            .read()
            .docs
            .get(&id)
            .cloned()
            .ok_or_else(|| EiiError::NotFound(format!("document {id}")))
    }

    /// Remove a document. Returns true when it existed.
    pub fn remove(&self, id: DocId) -> bool {
        let mut inner = self.inner.write();
        let existed = inner.docs.remove(&id).is_some();
        if existed {
            for set in inner.keyword_index.values_mut() {
                set.remove(&id);
            }
            inner.keyword_index.retain(|_, s| !s.is_empty());
            inner.version += 1;
        }
        existed
    }

    /// A counter that changes whenever the stored documents do. Whatever a
    /// reader derives from the store (extractions, statistics) is current
    /// for as long as the version it read *beforehand* is still the
    /// version.
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// True when the store has no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All document ids, ascending.
    pub fn ids(&self) -> Vec<DocId> {
        self.inner.read().docs.keys().copied().collect()
    }

    /// Documents containing *all* the query's tokens (conjunctive keyword
    /// search), ascending by id.
    pub fn keyword_search(&self, query: &str) -> Vec<DocId> {
        let tokens = tokenize_text(query);
        if tokens.is_empty() {
            return Vec::new();
        }
        let inner = self.inner.read();
        let mut result: Option<HashSet<DocId>> = None;
        for t in &tokens {
            let set = inner.keyword_index.get(t).cloned().unwrap_or_default();
            result = Some(match result {
                None => set,
                Some(acc) => acc.intersection(&set).copied().collect(),
            });
            if result.as_ref().is_some_and(HashSet::is_empty) {
                return Vec::new();
            }
        }
        let mut ids: Vec<DocId> = result.unwrap_or_default().into_iter().collect();
        ids.sort_unstable();
        ids
    }

    /// Schema-on-read extraction: impose a relational schema on the stored
    /// documents *at query time*. Each requested column is a `(name, path,
    /// type)` triple; for every document, row `i` combines the `i`-th match
    /// of each path (ragged documents pad with NULL).
    ///
    /// This is the NETMARK pattern: the store stays schema-less, the client
    /// decides structure per use.
    pub fn extract(&self, columns: &[(&str, &str, DataType)]) -> ColumnarBatch {
        let schema = Arc::new(Schema::new(
            columns
                .iter()
                .map(|(name, _, ty)| Field::new(*name, *ty))
                .collect(),
        ));
        let queries: Vec<PathQuery> = columns
            .iter()
            .map(|(_, path, _)| PathQuery::parse(path))
            .collect();
        let inner = self.inner.read();
        let mut builders: Vec<ColumnBuilder> = columns
            .iter()
            .map(|(_, _, ty)| ColumnBuilder::new(*ty, 0))
            .collect();
        let mut rows = 0;
        for doc in inner.docs.values() {
            let per_col: Vec<Vec<Value>> = queries
                .iter()
                .zip(columns)
                .map(|(q, (_, _, ty))| q.extract_values(&doc.root, *ty))
                .collect();
            let height = per_col.iter().map(Vec::len).max().unwrap_or(0);
            for (b, col) in builders.iter_mut().zip(&per_col) {
                for i in 0..height {
                    b.push(col.get(i).unwrap_or(&Value::Null));
                }
            }
            rows += height;
        }
        let built = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        ColumnarBatch::new(schema, built, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_sheets() -> DocStore {
        let s = DocStore::new();
        s.insert(Document::from_records(
            "crm extract",
            &[
                vec![("id", "1".into()), ("name", "alice".into())],
                vec![("id", "2".into()), ("name", "bob".into())],
            ],
        ));
        s.insert(Document::from_records(
            "support extract",
            &[vec![("id", "3".into()), ("name", "carol".into())]],
        ));
        s
    }

    #[test]
    fn insert_assigns_increasing_ids() {
        let s = DocStore::new();
        let a = s.insert(Document::from_text("a", "x"));
        let b = s.insert(Document::from_text("b", "y"));
        assert!(b > a);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn keyword_search_is_conjunctive() {
        let s = DocStore::new();
        let d1 = s.insert(Document::from_text("memo", "acme contract renewal"));
        let _d2 = s.insert(Document::from_text("memo", "acme invoice"));
        assert_eq!(s.keyword_search("acme contract"), vec![d1]);
        assert_eq!(s.keyword_search("acme").len(), 2);
        assert!(s.keyword_search("").is_empty());
        assert!(s.keyword_search("ghost").is_empty());
    }

    #[test]
    fn remove_unindexes() {
        let s = DocStore::new();
        let id = s.insert(Document::from_text("memo", "unique_token_xyz"));
        assert_eq!(s.keyword_search("unique_token_xyz"), vec![id]);
        assert!(s.remove(id));
        assert!(s.keyword_search("unique_token_xyz").is_empty());
        assert!(!s.remove(id));
    }

    #[test]
    fn version_changes_with_the_documents() {
        let s = DocStore::new();
        let v0 = s.version();
        let id = s.insert(Document::from_text("memo", "x"));
        let v1 = s.version();
        assert_ne!(v0, v1, "insert");
        assert!(s.remove(id));
        let v2 = s.version();
        assert_ne!(v1, v2, "remove");
        assert!(!s.remove(id));
        assert_eq!(s.version(), v2, "removing nothing changes nothing");
        assert_eq!(s.clone().version(), v2, "clones share the store");
    }

    #[test]
    fn extract_imposes_schema_at_read_time() {
        let s = store_with_sheets();
        let b = s
            .extract(&[
                ("id", "//row/id", DataType::Int),
                ("name", "//row/name", DataType::Str),
            ]);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.value_at(0, 1), Value::str("alice"));
        assert_eq!(b.value_at(2, 0), Value::Int(3));
    }

    #[test]
    fn extract_pads_ragged_documents_with_null() {
        let s = DocStore::new();
        s.insert(Document::from_records(
            "ragged",
            &[
                vec![("id", "1".into()), ("name", "alice".into())],
                vec![("id", "2".into())], // no name
            ],
        ));
        let b = s
            .extract(&[
                ("id", "//row/id", DataType::Int),
                ("name", "//row/name", DataType::Str),
            ]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.value_at(1, 1), Value::Null);
    }

    #[test]
    fn different_clients_different_schemas_same_store() {
        let s = store_with_sheets();
        // Client A wants ids only; client B wants names only. No schema was
        // ever registered with the store.
        let a = s.extract(&[("id", "//row/id", DataType::Int)]);
        let b = s.extract(&[("who", "//row/name", DataType::Str)]);
        assert_eq!(a.num_rows(), 3);
        assert_eq!(b.schema().field(0).name, "who");
    }
}
