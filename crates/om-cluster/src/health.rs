//! Per-address replica health: a consecutive-failure circuit breaker
//! with half-open probes, plus capped exponential backoff with jitter.
//!
//! The coordinator tracks one breaker per shard *address*. The breaker
//! is the standard three-state machine:
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ────────────────────────────────▶ Open (for `open_for`)
//!     ▲                                        │ open period elapses
//!     │ probe succeeds                         ▼
//!     └──────────────────────────────────── HalfOpen (one probe)
//!                      probe fails ──▶ back to Open
//! ```
//!
//! * **Closed** — the address is believed healthy; requests flow.
//! * **Open** — the address failed `threshold` times in a row; the
//!   coordinator skips it outright (no connect attempts, no latency
//!   tax) until the open period elapses. The remaining open time is
//!   what `retry_after_ms` hints derive from, so clients back off in
//!   sync with the coordinator's own recovery probes.
//! * **HalfOpen** — exactly one caller is admitted as a *probe*; its
//!   outcome closes the breaker or re-opens it. Concurrent callers are
//!   denied while the probe is in flight (no thundering herd on a
//!   recovering process). A probe whose outcome is never reported (a
//!   crashed worker, a dropped result channel) must not deny the
//!   address forever: after `probe_timeout` the breaker re-admits a
//!   fresh probe.
//!
//! The module is deliberately free of request semantics: callers decide
//! what a probe does (the coordinator replays missed ingest rows before
//! letting a recovered replica serve reads again).

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning, shared by every address.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive failures that open the breaker.
    pub threshold: u32,
    /// How long an open breaker rejects before half-opening a probe.
    pub open_for: Duration,
    /// How long a half-open probe may stay unreported before the
    /// breaker grants a fresh probe instead of denying forever. Must
    /// comfortably exceed the longest legitimate probe (whole-request
    /// timeout plus catch-up replay); a duplicate probe admitted past
    /// the deadline is harmless — both outcomes are absorbed by the
    /// state machine.
    pub probe_timeout: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            open_for: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(90),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen { since: Instant },
}

#[derive(Debug)]
struct AddrState {
    consecutive_failures: u32,
    state: State,
}

/// What the breaker says about using an address right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Believed healthy: use it normally.
    Allow,
    /// The breaker just half-opened for *this caller*: it may send one
    /// probe and **must** report the outcome via `record_success` /
    /// `record_failure`.
    Probe,
    /// Open (or a probe is already in flight): skip the address.
    Deny,
}

/// One breaker per shard address, indexed by global shard index.
#[derive(Debug)]
pub struct Health {
    states: Vec<Mutex<AddrState>>,
    config: HealthConfig,
}

impl Health {
    #[must_use]
    pub fn new(n_addrs: usize, config: HealthConfig) -> Self {
        Self {
            states: (0..n_addrs)
                .map(|_| {
                    Mutex::new(AddrState {
                        consecutive_failures: 0,
                        state: State::Closed,
                    })
                })
                .collect(),
            config,
        }
    }

    /// May the caller use this address? A `Probe` admission transitions
    /// the breaker to half-open and is granted to exactly one caller.
    pub fn admit(&self, idx: usize) -> Admission {
        let Some(slot) = self.states.get(idx) else {
            return Admission::Allow;
        };
        let mut s = slot.lock();
        let now = Instant::now();
        match s.state {
            State::Closed => Admission::Allow,
            State::HalfOpen { since } => {
                // The in-flight probe's outcome was lost (or it is
                // pathologically slow): grant a replacement rather
                // than wedging the address at Deny.
                if now.saturating_duration_since(since) >= self.config.probe_timeout {
                    s.state = State::HalfOpen { since: now };
                    Admission::Probe
                } else {
                    Admission::Deny
                }
            }
            State::Open { until } => {
                if now >= until {
                    s.state = State::HalfOpen { since: now };
                    Admission::Probe
                } else {
                    Admission::Deny
                }
            }
        }
    }

    /// Report a successful request (or probe): closes the breaker.
    pub fn record_success(&self, idx: usize) {
        if let Some(slot) = self.states.get(idx) {
            let mut s = slot.lock();
            s.consecutive_failures = 0;
            s.state = State::Closed;
        }
    }

    /// Report a failed request (or probe). Returns `true` when this
    /// failure transitioned the breaker into `Open` (for
    /// `ClusterMetrics::breaker_opens_total`).
    pub fn record_failure(&self, idx: usize) -> bool {
        let Some(slot) = self.states.get(idx) else {
            return false;
        };
        let mut s = slot.lock();
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let open_now = match s.state {
            // A failed half-open probe re-opens immediately.
            State::HalfOpen { .. } => true,
            State::Closed => s.consecutive_failures >= self.config.threshold,
            // Already open (a request admitted before the trip reports
            // late): re-arm the window, but it is not a new open.
            State::Open { .. } => {
                s.state = State::Open {
                    until: Instant::now() + self.config.open_for,
                };
                return false;
            }
        };
        if open_now {
            s.state = State::Open {
                until: Instant::now() + self.config.open_for,
            };
        }
        open_now
    }

    /// Remaining open time for this address, if its breaker is open.
    /// A half-open breaker reports the full open period (the probe in
    /// flight may fail and re-arm it).
    #[must_use]
    pub fn retry_after(&self, idx: usize) -> Option<Duration> {
        let s = self.states.get(idx)?.lock();
        match s.state {
            State::Closed => None,
            State::HalfOpen { .. } => Some(self.config.open_for),
            State::Open { until } => Some(until.saturating_duration_since(Instant::now())),
        }
    }

    /// The soonest any of `idxs` could recover: the minimum remaining
    /// open time across their breakers. `None` when none is open (the
    /// caller falls back to its static hint).
    #[must_use]
    pub fn min_retry_after(&self, idxs: impl IntoIterator<Item = usize>) -> Option<Duration> {
        idxs.into_iter().filter_map(|i| self.retry_after(i)).min()
    }

    /// How many breakers are currently not closed (the
    /// `ClusterMetrics::breaker_open` gauge).
    #[must_use]
    pub fn open_count(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| !matches!(s.lock().state, State::Closed))
            .count() as u64
    }

    /// Is this address currently believed healthy?
    #[must_use]
    pub fn is_closed(&self, idx: usize) -> bool {
        self.states
            .get(idx)
            .is_none_or(|s| matches!(s.lock().state, State::Closed))
    }
}

/// Capped exponential backoff with deterministic jitter: attempt `k`
/// sleeps `min(cap, base * 2^k)`, scaled into `[1/2, 1)` by a hash of
/// `salt` so concurrent retries against a struggling shard decorrelate
/// instead of stampeding in lockstep.
#[must_use]
pub fn backoff_delay(base: Duration, cap: Duration, attempt: u32, salt: u64) -> Duration {
    let full = base
        .checked_mul(1u32 << attempt.min(16))
        .unwrap_or(cap)
        .min(cap);
    // splitmix64-style finalizer: cheap, stateless, well-mixed.
    let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Jitter factor in [0.5, 1.0): half the nominal delay at minimum.
    let frac = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    full.mul_f64(frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HealthConfig {
        HealthConfig {
            threshold: 2,
            open_for: Duration::from_millis(40),
            probe_timeout: Duration::from_secs(90),
        }
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let h = Health::new(1, quick());
        assert_eq!(h.admit(0), Admission::Allow);
        assert!(!h.record_failure(0), "first failure must not open");
        assert_eq!(h.admit(0), Admission::Allow);
        assert!(h.record_failure(0), "threshold failure opens");
        assert_eq!(h.admit(0), Admission::Deny);
        assert!(!h.is_closed(0));
        assert_eq!(h.open_count(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let h = Health::new(1, quick());
        h.record_failure(0);
        h.record_success(0);
        assert!(
            !h.record_failure(0),
            "streak was reset; one failure is below threshold"
        );
        assert_eq!(h.admit(0), Admission::Allow);
    }

    #[test]
    fn open_breaker_half_opens_one_probe_then_closes_on_success() {
        let h = Health::new(1, quick());
        h.record_failure(0);
        h.record_failure(0);
        assert_eq!(h.admit(0), Admission::Deny);
        std::thread::sleep(Duration::from_millis(50));
        // Exactly one caller gets the probe; the next is denied.
        assert_eq!(h.admit(0), Admission::Probe);
        assert_eq!(h.admit(0), Admission::Deny);
        h.record_success(0);
        assert_eq!(h.admit(0), Admission::Allow);
        assert_eq!(h.open_count(), 0);
    }

    #[test]
    fn failed_probe_reopens() {
        let h = Health::new(1, quick());
        h.record_failure(0);
        h.record_failure(0);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(h.admit(0), Admission::Probe);
        assert!(h.record_failure(0), "failed probe re-opens");
        assert_eq!(h.admit(0), Admission::Deny);
    }

    #[test]
    fn unreported_probe_expires_and_readmits() {
        let h = Health::new(
            1,
            HealthConfig {
                threshold: 1,
                open_for: Duration::from_millis(10),
                probe_timeout: Duration::from_millis(40),
            },
        );
        h.record_failure(0);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(h.admit(0), Admission::Probe);
        // The probe's outcome is lost. Before the deadline the address
        // stays denied…
        assert_eq!(h.admit(0), Admission::Deny);
        std::thread::sleep(Duration::from_millis(50));
        // …and after it a replacement probe is granted instead of
        // wedging the address at Deny forever.
        assert_eq!(h.admit(0), Admission::Probe);
        h.record_success(0);
        assert_eq!(h.admit(0), Admission::Allow);
    }

    #[test]
    fn retry_after_tracks_the_open_window() {
        let h = Health::new(
            2,
            HealthConfig {
                threshold: 1,
                open_for: Duration::from_secs(7),
                probe_timeout: Duration::from_secs(90),
            },
        );
        assert_eq!(h.min_retry_after(0..2), None);
        h.record_failure(1);
        let hint = h.retry_after(1).expect("open breaker must hint");
        assert!(hint <= Duration::from_secs(7));
        assert!(
            hint > Duration::from_secs(6),
            "hint {hint:?} far below the window"
        );
        let min = h.min_retry_after(0..2).expect("one breaker is open");
        assert!(min <= hint, "min_retry_after must not exceed a member hint");
    }

    #[test]
    fn backoff_grows_is_capped_and_jittered() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_millis(400);
        let d0 = backoff_delay(base, cap, 0, 1);
        let d3 = backoff_delay(base, cap, 3, 1);
        let d9 = backoff_delay(base, cap, 9, 1);
        assert!(d0 >= base / 2 && d0 < base, "{d0:?}");
        assert!(d3 >= base * 4 && d3 < base * 8, "{d3:?}");
        assert!(d9 >= cap / 2 && d9 <= cap, "{d9:?}");
        // Different salts give different (but bounded) delays.
        assert_ne!(
            backoff_delay(base, cap, 2, 1),
            backoff_delay(base, cap, 2, 2)
        );
    }
}
