//! The platform-wide error type.
//!
//! Every layer of the system (parser, planner, executor, wrappers, ETL, EAI)
//! reports failures through [`EiiError`] so that errors compose across crate
//! boundaries without conversion boilerplate.

use std::any::Any;
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T, E = EiiError> = std::result::Result<T, E>;

/// Platform-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EiiError {
    /// Lexing or parsing failed.
    Parse(String),
    /// A name (table, column, view, source) could not be resolved.
    NotFound(String),
    /// An object with the same name already exists.
    AlreadyExists(String),
    /// The query or expression does not type-check.
    Type(String),
    /// A plan could not be produced (unsupported construct, no viable
    /// decomposition, capability mismatch, ...).
    Plan(String),
    /// Runtime failure while executing a plan.
    Execution(String),
    /// A wrapper / remote source rejected or failed a request.
    Source(String),
    /// The caller is not authorized for the requested data.
    Unauthorized(String),
    /// Failure in the ETL / warehouse substrate.
    Etl(String),
    /// Failure in the EAI / process substrate.
    Process(String),
    /// Constraint violation (uniqueness, referential, domain).
    Constraint(String),
    /// Catalog (de)serialization problems.
    Serde(String),
    /// A source stayed unreachable through every retry attempt (or its
    /// circuit breaker is open and requests fail fast).
    SourceUnavailable {
        source: String,
        /// Requests actually attempted before giving up (0 when the breaker
        /// rejected the call without trying).
        attempts: usize,
        /// Simulated milliseconds spent before giving up (0 when rejected
        /// without trying).
        elapsed_ms: i64,
    },
    /// A request to a source exceeded its deadline.
    Timeout {
        source: String,
        /// How long the caller waited, simulated milliseconds.
        deadline_ms: i64,
        /// Requests actually attempted before the timeout surfaced.
        attempts: usize,
        /// Simulated milliseconds elapsed across all attempts.
        elapsed_ms: i64,
    },
    /// The query's [`Deadline`](crate::deadline::Deadline) budget ran out.
    DeadlineExceeded {
        /// The budget the caller granted, simulated milliseconds.
        budget_ms: i64,
        /// Simulated milliseconds consumed when the budget check fired.
        elapsed_ms: i64,
    },
    /// The query was cancelled cooperatively: the caller gave up, and the
    /// plan stopped at the next node or request that checked the token.
    Cancelled(String),
    /// Brownout load shedding dropped the query before it ran.
    Shed {
        /// Priority tier of the shed work.
        priority: String,
        /// Why the scheduler refused it.
        reason: String,
    },
    /// Anything else.
    Internal(String),
}

impl EiiError {
    /// Short machine-readable category tag, used in logs and experiment
    /// output.
    pub fn kind(&self) -> &'static str {
        match self {
            EiiError::Parse(_) => "parse",
            EiiError::NotFound(_) => "not_found",
            EiiError::AlreadyExists(_) => "already_exists",
            EiiError::Type(_) => "type",
            EiiError::Plan(_) => "plan",
            EiiError::Execution(_) => "execution",
            EiiError::Source(_) => "source",
            EiiError::Unauthorized(_) => "unauthorized",
            EiiError::Etl(_) => "etl",
            EiiError::Process(_) => "process",
            EiiError::Constraint(_) => "constraint",
            EiiError::Serde(_) => "serde",
            EiiError::SourceUnavailable { .. } => "source_unavailable",
            EiiError::Timeout { .. } => "timeout",
            EiiError::DeadlineExceeded { .. } => "deadline",
            EiiError::Cancelled(_) => "cancelled",
            EiiError::Shed { .. } => "shed",
            EiiError::Internal(_) => "internal",
        }
    }

    /// Is this a transport-level failure (the source was reached but the
    /// request failed in transit)? Transport errors are the ones worth
    /// retrying; structural errors (bad query, missing table) will not heal.
    pub fn is_transport(&self) -> bool {
        matches!(self, EiiError::Source(_) | EiiError::Timeout { .. })
    }

    /// A caught panic of `what` as an error carrying the payload's message
    /// (`panic!` with a message has a `&str` or `String` payload).
    pub fn from_panic(what: &str, payload: Box<dyn Any + Send>) -> EiiError {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        EiiError::Execution(format!("{what} panicked: {msg}"))
    }

    /// The human-readable message carried by the error. Structured variants
    /// render their fields.
    pub fn message(&self) -> String {
        match self {
            EiiError::Parse(m)
            | EiiError::NotFound(m)
            | EiiError::AlreadyExists(m)
            | EiiError::Type(m)
            | EiiError::Plan(m)
            | EiiError::Execution(m)
            | EiiError::Source(m)
            | EiiError::Unauthorized(m)
            | EiiError::Etl(m)
            | EiiError::Process(m)
            | EiiError::Constraint(m)
            | EiiError::Serde(m)
            | EiiError::Internal(m) => m.clone(),
            EiiError::SourceUnavailable {
                source,
                attempts,
                elapsed_ms,
            } => {
                format!(
                    "source {source} unavailable after {attempts} attempt(s) \
                     ({elapsed_ms} ms elapsed)"
                )
            }
            EiiError::Timeout {
                source,
                deadline_ms,
                attempts,
                elapsed_ms,
            } => format!(
                "request to {source} timed out after {deadline_ms} ms \
                 ({attempts} attempt(s), {elapsed_ms} ms elapsed)"
            ),
            EiiError::DeadlineExceeded {
                budget_ms,
                elapsed_ms,
            } => format!("deadline of {budget_ms} ms exceeded ({elapsed_ms} ms consumed)"),
            EiiError::Cancelled(reason) => format!("cancelled: {reason}"),
            EiiError::Shed { priority, reason } => {
                format!("shed {priority}-priority work: {reason}")
            }
        }
    }
}

impl fmt::Display for EiiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind(), self.message())
    }
}

impl std::error::Error for EiiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = EiiError::Plan("no viable decomposition".into());
        assert_eq!(e.to_string(), "plan error: no viable decomposition");
        assert_eq!(e.kind(), "plan");
        assert_eq!(e.message(), "no viable decomposition");
    }

    #[test]
    fn structured_variants_render_their_fields() {
        let e = EiiError::SourceUnavailable {
            source: "crm".into(),
            attempts: 3,
            elapsed_ms: 70,
        };
        assert_eq!(e.kind(), "source_unavailable");
        assert_eq!(
            e.to_string(),
            "source_unavailable error: source crm unavailable after 3 attempt(s) \
             (70 ms elapsed)"
        );
        let t = EiiError::Timeout {
            source: "sales".into(),
            deadline_ms: 250,
            attempts: 2,
            elapsed_ms: 510,
        };
        assert_eq!(t.kind(), "timeout");
        assert!(t.message().contains("250 ms"));
        assert!(t.message().contains("2 attempt(s)"));
        assert!(t.message().contains("510 ms elapsed"));
        let d = EiiError::DeadlineExceeded {
            budget_ms: 100,
            elapsed_ms: 120,
        };
        assert_eq!(d.kind(), "deadline");
        assert!(d.message().contains("100 ms"));
        assert!(d.message().contains("120 ms"));
        let s = EiiError::Shed {
            priority: "low".into(),
            reason: "brownout".into(),
        };
        assert_eq!(s.kind(), "shed");
        assert!(s.message().contains("low-priority"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            EiiError::NotFound("t".into()),
            EiiError::NotFound("t".into())
        );
        assert_ne!(EiiError::NotFound("t".into()), EiiError::Parse("t".into()));
    }

    #[test]
    fn every_variant_has_distinct_kind() {
        let variants = [
            EiiError::Parse(String::new()),
            EiiError::NotFound(String::new()),
            EiiError::AlreadyExists(String::new()),
            EiiError::Type(String::new()),
            EiiError::Plan(String::new()),
            EiiError::Execution(String::new()),
            EiiError::Source(String::new()),
            EiiError::Unauthorized(String::new()),
            EiiError::Etl(String::new()),
            EiiError::Process(String::new()),
            EiiError::Constraint(String::new()),
            EiiError::Serde(String::new()),
            EiiError::SourceUnavailable {
                source: String::new(),
                attempts: 0,
                elapsed_ms: 0,
            },
            EiiError::Timeout {
                source: String::new(),
                deadline_ms: 0,
                attempts: 0,
                elapsed_ms: 0,
            },
            EiiError::DeadlineExceeded {
                budget_ms: 0,
                elapsed_ms: 0,
            },
            EiiError::Cancelled(String::new()),
            EiiError::Shed {
                priority: String::new(),
                reason: String::new(),
            },
            EiiError::Internal(String::new()),
        ];
        let mut kinds: Vec<_> = variants.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len());
    }
}
