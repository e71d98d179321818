//! Query deadlines, cooperative cancellation, and priority tiers.
//!
//! A [`Deadline`] is a *virtual-clock budget*: the caller grants a query
//! `budget_ms` simulated milliseconds, and every layer that spends simulated
//! time — connector round trips, retry backoffs, injected fault waits —
//! charges it against the budget. Two kinds of spending exist in the
//! simulator:
//!
//! 1. **Clock-advancing waits** (fault timeouts, retry backoffs) move the
//!    shared [`SimClock`] forward; the deadline observes them through
//!    `clock.now_ms() - start_ms`.
//! 2. **Accounted work** (successful fetches cost `sim_ms` without advancing
//!    the clock, so unrelated sessions don't see each other's latency); the
//!    spender calls [`Deadline::charge`] explicitly.
//!
//! Both are summed by [`Deadline::elapsed_ms`]. Charges are commutative
//! atomic adds, so sessions sharing a deadline across threads spend it
//! consistently; within one statement the order is fixed anyway — the
//! executor costs the sources of a `parallel` plan node as overlapping and
//! runs them in plan order on the caller's thread — making expiry
//! deterministic for a given plan.
//!
//! A [`CancelToken`] is the cooperative teardown signal: operators check it
//! at node and batch boundaries and connectors check it before issuing a
//! request, so a cancelled query stops at its next check — the node after the
//! one that was running — instead of running to completion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::SimClock;
use crate::error::{EiiError, Result};

/// Priority tier of a session's work, used by brownout load shedding: when
/// the scheduler's token bucket runs dry, `Low` work is shed (typed error,
/// fails fast) and `Normal` work is degraded (partial results) before `High`
/// work ever waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort: first to be shed under load.
    Low,
    /// Regular interactive work: degraded (not dropped) under load.
    #[default]
    Normal,
    /// SLA-bearing work: admitted as long as the system runs at all.
    High,
}

impl Priority {
    /// Lowercase label used in metrics and error messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Micro-milliseconds per millisecond: charges carry fractional `sim_ms`
/// costs, accumulated losslessly in integer micro-ms so concurrent adds stay
/// exact and deterministic.
const MICRO: f64 = 1000.0;

/// A shrinking virtual-time budget shared by every stage of one query.
/// Cloning yields a handle onto the same budget.
#[derive(Debug, Clone)]
pub struct Deadline {
    clock: SimClock,
    start_ms: i64,
    budget_ms: i64,
    /// Explicitly charged simulated time in micro-milliseconds.
    charged_us: Arc<AtomicU64>,
}

impl Deadline {
    /// Grant `budget_ms` of simulated time starting now.
    pub fn new(clock: SimClock, budget_ms: i64) -> Self {
        let start_ms = clock.now_ms();
        Deadline {
            clock,
            start_ms,
            budget_ms,
            charged_us: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The granted budget, simulated milliseconds.
    pub fn budget_ms(&self) -> i64 {
        self.budget_ms
    }

    /// Simulated time consumed so far: clock movement since the grant plus
    /// everything explicitly charged.
    pub fn elapsed_ms(&self) -> i64 {
        let waited = self.clock.now_ms() - self.start_ms;
        let charged = (self.charged_us.load(Ordering::SeqCst) as f64 / MICRO).round() as i64;
        waited + charged
    }

    /// Budget left, simulated milliseconds (never negative).
    pub fn remaining_ms(&self) -> i64 {
        (self.budget_ms - self.elapsed_ms()).max(0)
    }

    /// Has the budget run out?
    pub fn expired(&self) -> bool {
        self.elapsed_ms() >= self.budget_ms
    }

    /// Charge `sim_ms` of accounted (non-clock-advancing) work.
    pub fn charge(&self, sim_ms: f64) {
        if sim_ms <= 0.0 {
            return;
        }
        let us = (sim_ms * MICRO).round() as u64;
        self.charged_us.fetch_add(us, Ordering::SeqCst);
    }

    /// Fail with [`EiiError::DeadlineExceeded`] if the budget ran out.
    pub fn check(&self) -> Result<()> {
        if self.expired() {
            return Err(EiiError::DeadlineExceeded {
                budget_ms: self.budget_ms,
                elapsed_ms: self.elapsed_ms(),
            });
        }
        Ok(())
    }
}

/// A cooperative cancellation flag. Cloning yields a handle onto the same
/// flag; any holder can cancel, every holder observes it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    reason: Arc<Mutex<Option<String>>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trip the token. The first reason wins; later calls are no-ops so the
    /// original cause survives racing cancellations.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut slot = self.reason.lock().unwrap_or_else(|p| p.into_inner());
        if !self.cancelled.swap(true, Ordering::SeqCst) {
            *slot = Some(reason.into());
        }
    }

    /// Has anyone cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// The reason given at cancellation, if cancelled.
    pub fn reason(&self) -> Option<String> {
        self.reason
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Fail with [`EiiError::Cancelled`] if the token is tripped.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(EiiError::Cancelled(
                self.reason().unwrap_or_else(|| "cancelled".into()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_tracks_clock_and_charges() {
        let clock = SimClock::new();
        let d = Deadline::new(clock.clone(), 100);
        assert_eq!(d.remaining_ms(), 100);
        clock.advance_ms(30);
        assert_eq!(d.elapsed_ms(), 30);
        d.charge(25.4);
        assert_eq!(d.elapsed_ms(), 55);
        assert_eq!(d.remaining_ms(), 45);
        assert!(d.check().is_ok());
        d.charge(50.0);
        assert!(d.expired());
        let err = d.check().unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert!(err.message().contains("100 ms"));
    }

    #[test]
    fn deadline_handles_share_the_budget() {
        let clock = SimClock::new();
        let d = Deadline::new(clock.clone(), 50);
        let d2 = d.clone();
        d2.charge(40.0);
        assert_eq!(d.remaining_ms(), 10);
    }

    #[test]
    fn fractional_charges_accumulate_exactly() {
        let clock = SimClock::new();
        let d = Deadline::new(clock, 10);
        for _ in 0..10 {
            d.charge(0.25);
        }
        assert_eq!(d.elapsed_ms(), 3, "2.5 ms rounds to 3");
        assert!(!d.expired());
    }

    #[test]
    fn concurrent_charges_are_deterministic() {
        let clock = SimClock::new();
        let d = Deadline::new(clock, 1000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        d.charge(0.5);
                    }
                });
            }
        });
        assert_eq!(d.elapsed_ms(), 200);
    }

    #[test]
    fn cancel_token_first_reason_wins() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        t.cancel("user gave up");
        t.cancel("sibling failed");
        assert!(t.is_cancelled());
        assert_eq!(t.reason().as_deref(), Some("user gave up"));
        let err = t.check().unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(err.message().contains("user gave up"));
    }

    #[test]
    fn priority_orders_and_labels() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.as_str(), "high");
    }
}
