//! Ambient per-request context: the deadline budget and cancellation token
//! a query carries into every connector call.
//!
//! The [`Connector`](crate::Connector) trait is implemented by a dozen
//! adapters and wrappers; threading a context parameter through all of them
//! would churn every implementation for a cross-cutting concern. Instead the
//! executor installs a [`RequestCtx`] in a scoped thread-local around each
//! source interaction ([`with_request_ctx`]), and the fault / resilience
//! wrappers consult it via [`current_ctx`] — so a hung request stops waiting
//! when the query budget (not just the per-source deadline) runs out, and a
//! retry loop stops backing off the moment the query is cancelled.

use std::cell::RefCell;

use eii_data::{CancelToken, Deadline, Result};

/// Everything a source interaction needs to know about the query it serves.
#[derive(Debug, Clone, Default)]
pub struct RequestCtx {
    /// The query's shrinking virtual-time budget.
    pub deadline: Option<Deadline>,
    /// Caller-visible cancellation (user gave up, scheduler shed the query).
    pub cancel: Option<CancelToken>,
    /// The statement's trace ID, when its trace was retained: resilience
    /// events (hedge fired, breaker transitions, shed) stamp this into the
    /// telemetry event log so an event references its owning trace.
    pub trace_id: Option<u64>,
}

impl RequestCtx {
    /// An empty context (no budget, not cancellable).
    pub fn new() -> Self {
        RequestCtx::default()
    }

    /// Attach a deadline budget.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a caller cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attach the owning statement's trace ID.
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.trace_id = Some(trace_id);
        self
    }

    /// Is there anything to enforce or propagate at all? A trace ID counts:
    /// a trace-only context still needs installing so resilience events can
    /// be stamped with their owning trace.
    pub fn is_empty(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.trace_id.is_none()
    }

    /// Fail fast if the query was cancelled or ran out of budget (checked in
    /// that order, so an explicit cancel reason wins over the generic
    /// deadline error).
    pub fn check(&self) -> Result<()> {
        if let Some(c) = &self.cancel {
            c.check()?;
        }
        if let Some(d) = &self.deadline {
            d.check()?;
        }
        Ok(())
    }

    /// Simulated milliseconds of budget left, if a deadline is attached.
    pub fn remaining_ms(&self) -> Option<i64> {
        self.deadline.as_ref().map(|d| d.remaining_ms())
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<RequestCtx>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with `ctx` installed as the ambient request context on this
/// thread. Nests: the innermost installation wins, and the previous context
/// is restored on exit (even on panic, since the guard pops on drop).
pub fn with_request_ctx<R>(ctx: &RequestCtx, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    CURRENT.with(|c| c.borrow_mut().push(ctx.clone()));
    let _guard = Guard;
    f()
}

/// The ambient request context installed on this thread, if any.
pub fn current_ctx() -> Option<RequestCtx> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::SimClock;

    #[test]
    fn ambient_context_is_scoped_and_nested() {
        assert!(current_ctx().is_none());
        let outer = RequestCtx::new().with_cancel(CancelToken::new());
        with_request_ctx(&outer, || {
            assert!(current_ctx().unwrap().cancel.is_some());
            let inner = RequestCtx::new();
            with_request_ctx(&inner, || {
                assert!(current_ctx().unwrap().cancel.is_none(), "innermost wins");
            });
            assert!(current_ctx().unwrap().cancel.is_some(), "outer restored");
        });
        assert!(current_ctx().is_none());
    }

    #[test]
    fn check_prefers_cancel_over_deadline() {
        let clock = SimClock::new();
        let deadline = Deadline::new(clock.clone(), 10);
        clock.advance_ms(20);
        let cancel = CancelToken::new();
        cancel.cancel("caller hung up");
        let ctx = RequestCtx::new().with_deadline(deadline).with_cancel(cancel);
        assert_eq!(ctx.check().unwrap_err().kind(), "cancelled");
    }

    #[test]
    fn check_surfaces_expired_deadline() {
        let clock = SimClock::new();
        let deadline = Deadline::new(clock.clone(), 10);
        clock.advance_ms(20);
        let ctx = RequestCtx::new().with_deadline(deadline);
        assert_eq!(ctx.check().unwrap_err().kind(), "deadline");
        assert_eq!(ctx.remaining_ms(), Some(0));
    }

    #[test]
    fn empty_context_always_passes() {
        let ctx = RequestCtx::new();
        assert!(ctx.is_empty());
        assert!(ctx.check().is_ok());
        assert_eq!(ctx.remaining_ms(), None);
    }

    #[test]
    fn trace_id_rides_the_ambient_context() {
        let ctx = RequestCtx::new().with_trace_id(42);
        assert!(!ctx.is_empty(), "a trace-only ctx must still install");
        assert!(ctx.check().is_ok(), "trace id enforces nothing");
        with_request_ctx(&ctx, || {
            assert_eq!(current_ctx().unwrap().trace_id, Some(42));
        });
    }
}
