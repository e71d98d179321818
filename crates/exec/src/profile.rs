//! Per-operator execution profiles: what each physical operator *actually*
//! did — rows emitted, bytes shipped, simulated and wall time — mirroring
//! the plan tree.
//!
//! The executor collects one [`OperatorProfile`] node per operator whenever
//! instrumentation is on (the default). `EXPLAIN ANALYZE` renders the
//! profile next to the cost model's per-operator estimates; the profile also
//! grafts into a query's trace as `op:<label>` spans.

use std::time::Duration;

use eii_federation::QueryCost;
use eii_obs::SpanRecord;

/// Actual execution measurements for one operator's subtree.
#[derive(Debug, Clone)]
pub struct OperatorProfile {
    /// Short operator name ([`eii_planner::PhysicalPlan::label`]).
    pub label: &'static str,
    /// Source the operator talks to (`Source` and `BindJoin` operators).
    pub source: Option<String>,
    /// Rows the operator emitted.
    pub rows: usize,
    /// Cumulative cost of this operator's subtree (simulated time, bytes
    /// shipped, rows scanned, round trips). Subtree-cumulative rather than
    /// exclusive because parallel children overlap in simulated time.
    pub cost: QueryCost,
    /// Real elapsed time of this operator's subtree.
    pub wall: Duration,
    /// True when this operator's source fetch fired a hedged backup.
    pub hedged: bool,
    /// True when the hedged backup answered first (implies `hedged`).
    pub backup_won: bool,
    /// True when the executor adapted this operator mid-flight (adaptive
    /// re-planning: observed cardinality diverged from the estimate, so
    /// the remaining subtree was re-entered — e.g. a hub hash join's
    /// shipped build side became a binding-filtered fetch).
    pub replanned: bool,
    /// `Some(k)` on a `Sort` that ran bounded: a `Limit` above reads only its
    /// first `k` rows (fewer than it was given), so only those were put in
    /// order.
    pub top: Option<usize>,
    /// `Some((k, n))` on a join that emitted `k` of its schema's `n` columns:
    /// the consumers above read no other, so no other was gathered.
    pub columns: Option<(usize, usize)>,
    /// Child operator profiles, mirroring the plan's children.
    pub children: Vec<OperatorProfile>,
}

impl OperatorProfile {
    /// Total operators in this subtree (including `self`).
    pub fn op_count(&self) -> usize {
        1 + self.children.iter().map(OperatorProfile::op_count).sum::<usize>()
    }

    /// Depth-first search for the first operator with this label.
    pub fn find(&self, label: &str) -> Option<&OperatorProfile> {
        if self.label == label {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(label))
    }

    /// Convert into a span subtree (`op:<label>` spans annotated with rows
    /// and bytes) for grafting into a query trace. An operator whose fetch
    /// fired a hedged backup grows an extra `hedge:backup` child span, so
    /// the hedge shows up in trace renders and Chrome-trace exports.
    pub fn to_span(&self) -> SpanRecord {
        let mut annotations = vec![
            ("rows".to_string(), self.rows.to_string()),
            ("bytes".to_string(), self.cost.bytes.to_string()),
        ];
        if let Some(s) = &self.source {
            annotations.push(("source".to_string(), s.clone()));
        }
        if self.replanned {
            // An annotation, not a child span: the span tree must stay
            // isomorphic to the physical plan whether or not the executor
            // adapted the operator.
            annotations.push(("replanned".to_string(), "true".to_string()));
        }
        let mut children: Vec<SpanRecord> =
            self.children.iter().map(OperatorProfile::to_span).collect();
        if self.hedged {
            children.push(SpanRecord {
                name: "hedge:backup".to_string(),
                start_sim_ms: 0,
                end_sim_ms: self.cost.sim_ms.round() as i64,
                wall: Duration::ZERO,
                annotations: vec![("backup_won".to_string(), self.backup_won.to_string())],
                children: Vec::new(),
            });
        }
        SpanRecord {
            name: format!("op:{}", self.label),
            start_sim_ms: 0,
            end_sim_ms: self.cost.sim_ms.round() as i64,
            wall: self.wall,
            annotations,
            children,
        }
    }
}
