//! Robustness primitives shared by every layer of the Opportunity Map
//! system.
//!
//! The deployed Opportunity Map is an interactive diagnostic service:
//! analysts drill and compare continuously, and per-query cost is highly
//! skewed — one expensive comparison must never starve or crash the
//! service. This crate provides the two mechanisms the rest of the
//! workspace builds on:
//!
//! * [`Budget`] / [`CancelToken`] — a cooperative deadline threaded
//!   through the engine's hot loops. Checking is cheap (one atomic load,
//!   plus a clock read when a deadline is armed), and exceeding the
//!   budget surfaces as a typed [`FaultError::DeadlineExceeded`] instead
//!   of running forever.
//! * [`fail`] — typed failpoint seams for deterministic chaos testing.
//!   Every build carries them; an unarmed seam costs one relaxed atomic
//!   load and a branch. Tests, or `OM_FAILPOINTS` on any binary, inject
//!   delays, errors and panics at engine and persistence seams.

pub mod budget;
pub mod fail;

pub use budget::{Budget, CancelToken, Pacer};

use std::fmt;
use std::time::Duration;

/// A typed fault: the work was cut short, not wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The operation exceeded its time budget.
    DeadlineExceeded {
        /// The budget that was in force.
        limit: Duration,
        /// Time elapsed when the overrun was detected.
        elapsed: Duration,
    },
    /// The operation's [`CancelToken`] was cancelled.
    Cancelled,
    /// A failpoint injected this error (chaos testing only).
    Injected(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::DeadlineExceeded { limit, elapsed } => write!(
                f,
                "deadline exceeded: budget {}ms, elapsed {}ms",
                limit.as_millis(),
                elapsed.as_millis()
            ),
            FaultError::Cancelled => write!(f, "operation cancelled"),
            FaultError::Injected(why) => write!(f, "injected fault: {why}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultError {
    /// Whether this fault means "retry later" (deadline/cancel) rather
    /// than "the request is poisoned" (injected error).
    #[must_use]
    pub fn is_overload(&self) -> bool {
        matches!(
            self,
            FaultError::DeadlineExceeded { .. } | FaultError::Cancelled
        )
    }
}
