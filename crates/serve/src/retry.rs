//! Deterministic retry budgets and per-interpreter circuit breakers.
//!
//! Both mechanisms are expressed in *logical* units so they compose
//! with the manual clock: a retry's backoff is accounted as ticks in a
//! metric (never slept), and a breaker's cooldown is counted in
//! requests it turns away (never in elapsed time). Because each worker
//! owns its breakers and the request→worker mapping is deterministic,
//! the whole failure-handling state machine replays identically run
//! over run.

/// Retries allowed after the first attempt. It also bounds how often
/// a bounced job is redelivered.
pub(crate) const MAX_RETRIES: u32 = 2;

/// Consecutive infrastructure failures that open a circuit.
const BREAKER_THRESHOLD: u32 = 3;

/// Requests an open circuit turns away before a half-open probe.
const BREAKER_COOLDOWN: u32 = 8;

/// Backoff charged for retry number `attempt` (0-based): `1 << attempt`
/// ticks, saturating, accounted in `retry_backoff_ticks` — logical
/// time only.
pub(crate) fn backoff(attempt: u32) -> u64 {
    1u64.checked_shl(attempt).unwrap_or(u64::MAX)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    /// Turning requests away; `remaining` more skips until a probe.
    Open {
        remaining: u32,
    },
    /// One probe request is being allowed through.
    HalfOpen,
}

/// A per-(worker, interpreter-family) circuit breaker.
///
/// Counts *infrastructure* failures only — a semantic refusal means
/// the family is healthy and resets the streak. After 3 consecutive
/// failures the circuit opens: the next 8 requests skip this family
/// outright (falling further down the ladder), then one probe is
/// allowed through; its outcome decides between closing and
/// re-opening.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// Whether the next request may try this family. `false` counts
    /// down the open cooldown; when it reaches zero the breaker moves
    /// to half-open and the following call allows a probe.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { remaining } => {
                if remaining <= 1 {
                    self.state = BreakerState::HalfOpen;
                } else {
                    self.state = BreakerState::Open {
                        remaining: remaining - 1,
                    };
                }
                false
            }
        }
    }

    /// Record a healthy outcome (an answer *or* a semantic refusal).
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record an infrastructure failure. Returns `true` when this
    /// failure tripped the circuit open.
    pub fn on_failure(&mut self) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.open();
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_THRESHOLD {
                    self.open();
                    true
                } else {
                    false
                }
            }
            // Failures reported while open (e.g. from an attempt that
            // started before the trip) don't re-trip.
            BreakerState::Open { .. } => false,
        }
    }

    fn open(&mut self) {
        self.state = BreakerState::Open {
            remaining: BREAKER_COOLDOWN,
        };
        self.consecutive_failures = 0;
        self.trips += 1;
    }

    /// Times the circuit has opened.
    #[cfg(test)]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether the breaker is currently turning requests away.
    #[cfg(test)]
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trip a fresh breaker with exactly the threshold's failures.
    fn tripped() -> CircuitBreaker {
        let mut b = CircuitBreaker::new();
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert!(b.allow(), "still closed below the threshold");
        assert!(b.on_failure(), "the third consecutive failure trips");
        b
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        assert_eq!(backoff(0), 1);
        assert_eq!(backoff(1), 2);
        assert_eq!(backoff(2), 4);
        assert_eq!(backoff(63), 1 << 63);
        assert_eq!(backoff(200), u64::MAX, "saturates, never wraps");
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let b = tripped();
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new();
        b.on_failure();
        b.on_failure();
        b.on_success();
        assert!(!b.on_failure(), "streak restarted from zero");
        assert!(!b.on_failure());
        assert!(!b.is_open());
    }

    #[test]
    fn cooldown_counts_requests_then_probes() {
        let mut b = tripped();
        for skip in 1..=8 {
            assert!(!b.allow(), "skip {skip} of the cooldown");
        }
        assert!(!b.is_open(), "the eighth skip moves to half-open");
        assert!(b.allow(), "probe allowed");
        b.on_success();
        assert!(b.allow(), "probe success closes the circuit");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = tripped();
        for _ in 0..8 {
            assert!(!b.allow());
        }
        assert!(b.allow(), "probe");
        assert!(b.on_failure(), "failed probe re-trips at once");
        assert!(b.is_open());
        assert_eq!(b.trips(), 2);
    }
}
