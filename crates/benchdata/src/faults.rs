//! Seeded fault schedules for the serving runtime.
//!
//! The survey's §4 comparison is ultimately about *failure shape* —
//! entity-based systems are brittle, learned systems degrade on
//! complex inputs — so a production serving layer needs a way to
//! rehearse failure deterministically. A [`FaultPlan`] is a seeded
//! map from request id to an injected [`FaultKind`]; the `nlidb-serve`
//! worker consults it (through its request hook) before touching the
//! pipeline, so a given seed produces the same faults, the same
//! retries, and the same degraded answers on every run.
//!
//! The plan models three production failure archetypes:
//!
//! * **Transient** — the preferred interpreter's backend hiccups for a
//!   bounded number of attempts (a timeout, a momentary overload) and
//!   then recovers; retry-with-backoff absorbs it.
//! * **Fatal** — the top `depth` rungs of the §4 family ladder are
//!   down for this request; the server degrades to the first healthy
//!   family below them.
//! * **WorkerPanic** — the worker thread itself dies mid-request; the
//!   server must contain the crash and surface the loss explicitly.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected failure, chosen per request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The preferred interpreter fails the first `failures` attempts
    /// at this request, then succeeds — a recoverable backend hiccup.
    Transient {
        /// How many consecutive attempts fail before recovery (≥ 1).
        failures: u32,
    },
    /// The top `depth` rungs of the degradation ladder fail for this
    /// request (`depth` = 1 knocks out only the preferred family).
    Fatal {
        /// Ladder rungs knocked out, starting from the preferred (≥ 1).
        depth: u32,
    },
    /// The worker thread panics while holding this request.
    WorkerPanic,
}

/// Approximate per-request fault probabilities for seeded generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a request draws a [`FaultKind::Transient`] fault.
    pub transient: f64,
    /// Probability a request draws a [`FaultKind::Fatal`] fault
    /// (evaluated only if the transient draw missed).
    pub fatal: f64,
    /// Upper bound on transient `failures` (drawn in `1..=max`).
    pub max_transient_failures: u32,
    /// Upper bound on fatal `depth` (drawn in `1..=max`).
    pub max_fatal_depth: u32,
}

impl Default for FaultRates {
    fn default() -> FaultRates {
        FaultRates {
            transient: 0.1,
            fatal: 0.05,
            max_transient_failures: 2,
            max_fatal_depth: 1,
        }
    }
}

/// A deterministic schedule of injected faults, keyed by request id.
///
/// Worker panics are never drawn randomly — a dead worker reshapes
/// every later routing decision, so panic sites are placed explicitly
/// with [`FaultPlan::with`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultPlan {
    /// The empty plan: no request ever faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Draw a plan for request ids `0..n` at the given rates. Same
    /// seed, same plan — byte for byte.
    pub fn seeded(seed: u64, n: u64, rates: &FaultRates) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&rates.transient) && (0.0..=1.0).contains(&rates.fatal),
            "fault rates out of [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_fa17_fa17_fa17);
        let mut faults = BTreeMap::new();
        for id in 0..n {
            if rates.transient > 0.0 && rng.gen_bool(rates.transient) {
                let failures = rng.gen_range(1..=rates.max_transient_failures.max(1));
                faults.insert(id, FaultKind::Transient { failures });
            } else if rates.fatal > 0.0 && rng.gen_bool(rates.fatal) {
                let depth = rng.gen_range(1..=rates.max_fatal_depth.max(1));
                faults.insert(id, FaultKind::Fatal { depth });
            }
        }
        FaultPlan { faults }
    }

    /// Pin a fault on one request id (builder style; overwrites any
    /// drawn fault for that id).
    pub fn with(mut self, id: u64, kind: FaultKind) -> FaultPlan {
        self.faults.insert(id, kind);
        self
    }

    /// The fault scheduled for `id`, if any.
    pub fn fault_for(&self, id: u64) -> Option<FaultKind> {
        self.faults.get(&id).copied()
    }

    /// Number of faulted request ids in the schedule.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Faulted ids in ascending order (diagnostic helper).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.faults.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let rates = FaultRates::default();
        let a = FaultPlan::seeded(42, 200, &rates);
        let b = FaultPlan::seeded(42, 200, &rates);
        let c = FaultPlan::seeded(43, 200, &rates);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds draw different schedules");
        assert!(!a.is_empty());
    }

    #[test]
    fn rates_are_roughly_respected() {
        let rates = FaultRates {
            transient: 0.2,
            fatal: 0.1,
            ..FaultRates::default()
        };
        let plan = FaultPlan::seeded(7, 2000, &rates);
        let transient = plan
            .ids()
            .filter(|id| matches!(plan.fault_for(*id), Some(FaultKind::Transient { .. })))
            .count();
        let fatal = plan.len() - transient;
        // Loose bands: the point is shape, not exact calibration.
        assert!((250..=550).contains(&transient), "transient {transient}");
        assert!((80..=320).contains(&fatal), "fatal {fatal}");
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.fault_for(0), None);
        assert_eq!(plan.fault_for(u64::MAX), None);
    }

    #[test]
    fn with_pins_and_overwrites() {
        let plan = FaultPlan::none()
            .with(3, FaultKind::Fatal { depth: 2 })
            .with(3, FaultKind::WorkerPanic)
            .with(9, FaultKind::Transient { failures: 1 });
        assert_eq!(plan.fault_for(3), Some(FaultKind::WorkerPanic));
        assert_eq!(
            plan.fault_for(9),
            Some(FaultKind::Transient { failures: 1 })
        );
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn drawn_bounds_hold() {
        let rates = FaultRates {
            transient: 0.3,
            fatal: 0.3,
            max_transient_failures: 3,
            max_fatal_depth: 2,
        };
        let plan = FaultPlan::seeded(11, 500, &rates);
        for id in plan.ids() {
            match plan.fault_for(id).unwrap() {
                FaultKind::Transient { failures } => assert!((1..=3).contains(&failures)),
                FaultKind::Fatal { depth } => assert!((1..=2).contains(&depth)),
                FaultKind::WorkerPanic => panic!("seeded never draws panics"),
            }
        }
    }
}
