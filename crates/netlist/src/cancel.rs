//! Cooperative cancellation for long-running compute legs.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a
//! requester (the service's wire layer) and a worker (plan compilation,
//! a sweep batch, a Monte-Carlo loop). Workers poll
//! [`CancelToken::check`] at natural checkpoints — between site-batch
//! jobs, Mendo observation blocks, reverse-topological merge chunks —
//! and abort with a [`CancelCause`] when the token has been tripped or
//! its deadline has passed. Cancellation is *cooperative*: nothing is
//! interrupted mid-block, so every checkpoint sees internally
//! consistent state and partial results can simply be dropped.
//!
//! # Examples
//!
//! ```
//! use ser_netlist::{CancelCause, CancelToken};
//!
//! let token = CancelToken::new();
//! assert!(token.check().is_ok());
//! token.cancel();
//! assert_eq!(token.check(), Err(CancelCause::Cancelled));
//!
//! // A deadline in the past trips immediately.
//! let expired = CancelToken::with_deadline(std::time::Instant::now());
//! assert_eq!(expired.check(), Err(CancelCause::DeadlineExceeded));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cooperative checkpoint aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called (a wire `cancel` op, a
    /// dropped connection, or a test harness).
    Cancelled,
    /// The token's deadline passed before the work finished.
    DeadlineExceeded,
}

impl CancelCause {
    /// The wire error-code string for this cause.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CancelCause::Cancelled => "cancelled",
            CancelCause::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

impl fmt::Display for CancelCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug)]
struct Inner {
    /// Trip count: 0 = live, anything above = cancelled. A generation
    /// counter rather than a bool so repeated `cancel` calls (the
    /// cancel-vs-complete race) stay idempotent and observable.
    generation: AtomicU64,
    deadline: Option<Instant>,
}

/// Shared cancellation handle: an atomic trip counter plus an optional
/// deadline instant. Clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A live token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                generation: AtomicU64::new(0),
                deadline: None,
            }),
        }
    }

    /// A live token that trips once `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                generation: AtomicU64::new(0),
                deadline: Some(deadline),
            }),
        }
    }

    /// A live token that trips `timeout` from now.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// The configured deadline, if any.
    #[cfg(test)]
    fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Trips the token. Idempotent; every clone observes the trip.
    pub fn cancel(&self) {
        self.inner.generation.fetch_add(1, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) has been called (deadline
    /// expiry does not set this — use [`check`](Self::check)).
    #[must_use]
    fn is_cancelled(&self) -> bool {
        self.inner.generation.load(Ordering::Acquire) > 0
    }

    /// The cooperative checkpoint: `Ok(())` while live, or the cause to
    /// abort with. An explicit `cancel` wins over a passed deadline so
    /// the requester's intent is reported, not the clock.
    ///
    /// # Errors
    ///
    /// [`CancelCause::Cancelled`] once tripped,
    /// [`CancelCause::DeadlineExceeded`] once the deadline passes.
    pub fn check(&self) -> Result<(), CancelCause> {
        if self.is_cancelled() {
            return Err(CancelCause::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Err(CancelCause::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        let other = CancelToken::new();
        t.cancel();
        assert_eq!(c.check(), Err(CancelCause::Cancelled));
        assert!(c.is_cancelled());
        assert!(other.check().is_ok(), "an unrelated token stays live");
    }

    #[test]
    fn cancel_is_idempotent() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert_eq!(t.check(), Err(CancelCause::Cancelled));
    }

    #[test]
    fn deadline_in_the_future_stays_live() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }

    #[test]
    fn passed_deadline_trips() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.check(), Err(CancelCause::DeadlineExceeded));
        // Deadline expiry is not an explicit cancel.
        assert!(!t.is_cancelled());
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.check(), Err(CancelCause::Cancelled));
    }

    #[test]
    fn causes_render_wire_codes() {
        assert_eq!(CancelCause::Cancelled.as_str(), "cancelled");
        assert_eq!(CancelCause::DeadlineExceeded.as_str(), "deadline_exceeded");
        assert_eq!(CancelCause::Cancelled.to_string(), "cancelled");
    }
}
