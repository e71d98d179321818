//! The catalog proper.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use eii_data::{EiiError, Result};
use eii_sql::{parse_statement, SetQuery, Statement};

use crate::acl::AccessControl;

/// A mediated-schema view: a name bound to a query over source tables (or
/// other views — views compose).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    pub name: String,
    /// Original SQL text (kept for export and EXPLAIN).
    pub sql: String,
    /// Parsed body.
    pub query: SetQuery,
}

/// Descriptive metadata about a registered source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceMeta {
    pub description: String,
    pub owner: String,
    pub tags: Vec<String>,
}

#[derive(Debug, Default)]
struct Inner {
    views: BTreeMap<String, ViewDef>,
    /// Bumped by every view definition change; see [`Catalog::generation`].
    generation: u64,
    sources: BTreeMap<String, SourceMeta>,
    acl: AccessControl,
}

/// Shared, thread-safe metadata registry.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<Inner>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    // ---- views (the mediated schema) ---------------------------------

    /// Define a view from `CREATE VIEW` SQL text.
    pub fn create_view_sql(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::CreateView { name, query } => {
                self.create_view(&name, sql, query)?;
                Ok(name)
            }
            _ => Err(EiiError::Parse(
                "expected a CREATE VIEW statement".into(),
            )),
        }
    }

    /// Define a view from an already-parsed body.
    pub fn create_view(&self, name: &str, sql: &str, query: SetQuery) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.views.contains_key(name) {
            return Err(EiiError::AlreadyExists(format!("view {name}")));
        }
        inner.generation += 1;
        inner.views.insert(
            name.to_string(),
            ViewDef {
                name: name.to_string(),
                sql: sql.to_string(),
                query,
            },
        );
        Ok(())
    }

    /// Replace an existing view definition (schema evolution path).
    pub fn replace_view(&self, name: &str, sql: &str, query: SetQuery) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.views.contains_key(name) {
            return Err(EiiError::NotFound(format!("view {name}")));
        }
        inner.generation += 1;
        inner.views.insert(
            name.to_string(),
            ViewDef {
                name: name.to_string(),
                sql: sql.to_string(),
                query,
            },
        );
        Ok(())
    }

    /// Fetch a view definition.
    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.inner.read().views.get(name).cloned()
    }

    /// Drop a view. Returns true when it existed.
    pub fn drop_view(&self, name: &str) -> bool {
        let mut inner = self.inner.write();
        inner.generation += 1;
        inner.views.remove(name).is_some()
    }

    /// How many times a view has been created, replaced or dropped. A plan
    /// built from view definitions read after this value was read is still
    /// what the builder would produce while the value is unchanged.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// Names of all views, sorted.
    pub fn view_names(&self) -> Vec<String> {
        self.inner.read().views.keys().cloned().collect()
    }

    // ---- source metadata ----------------------------------------------

    /// Attach metadata to a source name.
    pub fn describe_source(&self, source: &str, meta: SourceMeta) {
        self.inner
            .write()
            .sources
            .insert(source.to_string(), meta);
    }

    /// Fetch source metadata.
    pub fn source_meta(&self, source: &str) -> Option<SourceMeta> {
        self.inner.read().sources.get(source).cloned()
    }

    /// Find sources whose description or tags mention `term`
    /// (the "locating the data" tooling).
    pub fn find_sources(&self, term: &str) -> Vec<String> {
        let term = term.to_lowercase();
        self.inner
            .read()
            .sources
            .iter()
            .filter(|(name, m)| {
                name.to_lowercase().contains(&term)
                    || m.description.to_lowercase().contains(&term)
                    || m.tags.iter().any(|t| t.to_lowercase().contains(&term))
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    // ---- access control -------------------------------------------------

    /// Grant `role` access to `source`.
    pub fn grant(&self, source: &str, role: &str) {
        self.inner.write().acl.grant(source, role);
    }

    /// Revoke `role`'s access to `source`.
    pub fn revoke(&self, source: &str, role: &str) {
        self.inner.write().acl.revoke(source, role);
    }

    /// May `role` read from `source`? Sources with no ACL entries are open.
    pub fn allowed(&self, source: &str, role: &str) -> bool {
        self.inner.read().acl.allowed(source, role)
    }

    /// Snapshot of ACL entries for export.
    pub fn acl_entries(&self) -> Vec<(String, Vec<String>)> {
        self.inner.read().acl.entries()
    }

    /// Snapshot of views for export.
    pub fn view_snapshot(&self) -> Vec<ViewDef> {
        self.inner.read().views.values().cloned().collect()
    }

    /// Snapshot of source metadata for export.
    pub fn source_snapshot(&self) -> Vec<(String, SourceMeta)> {
        self.inner
            .read()
            .sources
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_resolve_view() {
        let c = Catalog::new();
        let name = c
            .create_view_sql("CREATE VIEW customers AS SELECT id, name FROM crm.customers")
            .unwrap();
        assert_eq!(name, "customers");
        assert!(c.view("customers").is_some());
        assert_eq!(c.view_names(), vec!["customers"]);
        assert!(c.view("ghost").is_none());
    }

    #[test]
    fn generation_counts_view_definition_changes() {
        let c = Catalog::new();
        c.create_view_sql("CREATE VIEW v AS SELECT a FROM s.t").unwrap();
        let created = c.generation();
        assert!(c.view("v").is_some() && c.create_view_sql("CREATE VIEW v AS SELECT 1").is_err());
        c.grant("s", "analyst");
        assert_eq!(c.generation(), created, "reads, refused DDL and ACLs leave it alone");
        let q = eii_sql::parse_query("SELECT b FROM s.t").unwrap();
        c.replace_view("v", "SELECT b FROM s.t", q).unwrap();
        assert_eq!(c.generation(), created + 1);
        assert!(c.clone().drop_view("v"));
        assert_eq!(c.generation(), created + 2, "clones share the catalog");
    }

    #[test]
    fn duplicate_view_rejected_replace_allowed() {
        let c = Catalog::new();
        c.create_view_sql("CREATE VIEW v AS SELECT a FROM s.t").unwrap();
        assert_eq!(
            c.create_view_sql("CREATE VIEW v AS SELECT a FROM s.t")
                .unwrap_err()
                .kind(),
            "already_exists"
        );
        let q = eii_sql::parse_query("SELECT b FROM s.t").unwrap();
        c.replace_view("v", "SELECT b FROM s.t", q).unwrap();
        assert!(c.view("v").unwrap().sql.contains('b'));
        assert_eq!(
            c.replace_view("nope", "SELECT 1", eii_sql::parse_query("SELECT 1").unwrap())
                .unwrap_err()
                .kind(),
            "not_found"
        );
    }

    #[test]
    fn non_view_statement_rejected() {
        let c = Catalog::new();
        assert_eq!(
            c.create_view_sql("SELECT 1").unwrap_err().kind(),
            "parse"
        );
    }

    #[test]
    fn source_discovery_by_term() {
        let c = Catalog::new();
        c.describe_source(
            "crm",
            SourceMeta {
                description: "Customer relationship management system".into(),
                owner: "sales-it".into(),
                tags: vec!["customer".into(), "gold".into()],
            },
        );
        c.describe_source(
            "hr",
            SourceMeta {
                description: "Employee records".into(),
                owner: "hr-it".into(),
                tags: vec![],
            },
        );
        assert_eq!(c.find_sources("customer"), vec!["crm"]);
        assert_eq!(c.find_sources("employee"), vec!["hr"]);
        assert!(c.find_sources("zzz").is_empty());
        assert_eq!(c.source_meta("crm").unwrap().owner, "sales-it");
    }

    #[test]
    fn acl_open_by_default_then_restricted() {
        let c = Catalog::new();
        assert!(c.allowed("hr", "anyone"));
        c.grant("hr", "hr-admin");
        assert!(!c.allowed("hr", "anyone"));
        assert!(c.allowed("hr", "hr-admin"));
        c.revoke("hr", "hr-admin");
        assert!(c.allowed("hr", "anyone"), "empty ACL reopens the source");
    }
}
