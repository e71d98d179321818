//! Graceful degradation: what the executor does when a source stays down
//! after the federation's resilience layer gives up.
//!
//! Three policies: fail the query (default), substitute a registered stale
//! snapshot (annotated with its staleness), or keep the surviving branches
//! and report which sources went dark. Either way the caller sees a
//! per-source [`SourceReport`] in the query result, so "the answer" is
//! never silently partial.

use eii_data::{ColumnarBatch, EiiError, Result, SchemaRef};
use eii_federation::{apply_query_locally, SourceQuery};

use crate::cache::SnapshotStore;

/// What the executor does when a source request ultimately fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Propagate the error; the query fails (strict, the default).
    #[default]
    Fail,
    /// Serve the component query from a registered stale snapshot; fail if
    /// none is registered for that table.
    Fallback,
    /// Substitute an empty answer for the dead source and return the
    /// surviving branches, flagged per source.
    PartialResults,
}

/// How one source fared during a query. Only degraded sources are reported;
/// an empty report list means every answer was live.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceReport {
    /// The source that failed.
    pub source: String,
    /// The table the component query addressed.
    pub table: String,
    /// How stale the substituted snapshot was, ms — `None` when the branch
    /// was dropped instead of served from a snapshot.
    pub stale_ms: Option<i64>,
    /// The error the resilience layer gave up with.
    pub error: String,
}

/// Resolve a degradation decision for one failed component query.
///
/// Returns the substitute batch (in the source's column layout) plus the
/// report entry, or propagates `err` when the policy does not cover it.
pub fn degrade(
    policy: DegradationPolicy,
    store: &SnapshotStore,
    source: &str,
    q: &SourceQuery,
    expect_schema: &SchemaRef,
    now_ms: i64,
    err: EiiError,
) -> Result<(ColumnarBatch, SourceReport)> {
    match policy {
        DegradationPolicy::Fail => Err(err),
        DegradationPolicy::Fallback => {
            let qualified = format!("{source}.{}", q.table);
            let Some((snapshot, as_of_ms)) = store.get(&qualified) else {
                return Err(EiiError::Execution(format!(
                    "source failed and no fallback snapshot registered for \
                     {qualified}: {err}"
                )));
            };
            let batch = apply_query_locally(
                &snapshot,
                &q.filters,
                &q.bindings,
                q.projection.as_deref(),
                q.limit,
            )?;
            let report = SourceReport {
                source: source.to_string(),
                table: q.table.clone(),
                stale_ms: Some((now_ms - as_of_ms).max(0)),
                error: err.to_string(),
            };
            Ok((batch, report))
        }
        DegradationPolicy::PartialResults => {
            let report = SourceReport {
                source: source.to_string(),
                table: q.table.clone(),
                stale_ms: None,
                error: err.to_string(),
            };
            Ok((ColumnarBatch::empty(expect_schema.clone()), report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, Batch, DataType, Field, Schema};
    use std::sync::Arc;

    fn batch() -> ColumnarBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Int),
        ]));
        ColumnarBatch::from_batch(&Batch::new(
            schema,
            vec![
                row![1i64, "alice", 10i64],
                row![2i64, "bob", 20i64],
                row![3i64, "carol", 30i64],
            ],
        ))
    }

    #[test]
    fn fallback_serves_snapshot_with_staleness() {
        let store = SnapshotStore::new();
        store.put("crm.t", batch(), 100);
        let q = SourceQuery::full_table("t");
        let schema = batch().schema().clone();
        let (b, report) = degrade(
            DegradationPolicy::Fallback,
            &store,
            "crm",
            &q,
            &schema,
            450,
            EiiError::SourceUnavailable {
                source: "crm".into(),
                attempts: 3,
                elapsed_ms: 70,
            },
        )
        .unwrap();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(report.stale_ms, Some(350));
        assert!(report.error.contains("source_unavailable"));
    }

    #[test]
    fn fallback_without_snapshot_fails() {
        let store = SnapshotStore::new();
        let q = SourceQuery::full_table("ghost");
        let schema = batch().schema().clone();
        let err = degrade(
            DegradationPolicy::Fallback,
            &store,
            "crm",
            &q,
            &schema,
            0,
            EiiError::Source("down".into()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.message().contains("crm.ghost"));
    }

    #[test]
    fn partial_results_substitutes_an_empty_branch() {
        let store = SnapshotStore::new();
        let q = SourceQuery::full_table("t");
        let schema = batch().schema().clone();
        let (b, report) = degrade(
            DegradationPolicy::PartialResults,
            &store,
            "crm",
            &q,
            &schema,
            0,
            EiiError::Source("down".into()),
        )
        .unwrap();
        assert!(b.is_empty());
        assert_eq!(report.stale_ms, None);
    }

    #[test]
    fn fail_policy_propagates() {
        let store = SnapshotStore::new();
        let q = SourceQuery::full_table("t");
        let schema = batch().schema().clone();
        let err = degrade(
            DegradationPolicy::Fail,
            &store,
            "crm",
            &q,
            &schema,
            0,
            EiiError::Source("down".into()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "source");
    }
}
