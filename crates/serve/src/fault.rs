//! Fault injection surface: the hook context, the injected fault
//! vocabulary, and the adapter from a seeded [`FaultPlan`] to a
//! [`RequestHook`].
//!
//! The worker consults the hook *before* every pipeline attempt —
//! pre-processing, so a retried attempt has observed no side effects
//! (a dialogue turn in particular executes at most once). The hook is
//! a pure function of `(request id, ladder rung, attempt)`, which is
//! why an injected schedule stays bit-deterministic: the same submit
//! sequence meets the same faults, retries, and degradations on every
//! run, regardless of thread timing.

use std::panic;
use std::sync::Once;

use nlidb_benchdata::{FaultKind, FaultPlan};

use crate::server::RequestHook;

/// What the worker is about to do when it consults the hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookCtx {
    /// Request id (submission order).
    pub id: u64,
    /// Degradation-ladder rung about to be tried (0 = the preferred
    /// interpreter; dialogue turns are always rung 0).
    pub rung: usize,
    /// Attempt number at this rung (0 = first try, ≥ 1 = retries).
    pub attempt: u32,
}

/// A failure the hook injects into the attempt it was consulted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// This attempt fails recoverably; retrying may succeed.
    Transient,
    /// This rung is down for this request; the worker must degrade.
    Fatal,
    /// The worker thread panics while holding this request.
    WorkerPanic,
}

/// Adapt a seeded [`FaultPlan`] into a [`RequestHook`]:
///
/// * [`FaultKind::Transient`]`{ failures }` fails the first `failures`
///   attempts at rung 0, then recovers — within the retry budget the
///   request is served identically to an unfaulted run.
/// * [`FaultKind::Fatal`]`{ depth }` fails every attempt at the top
///   `depth` rungs, forcing degradation below them.
/// * [`FaultKind::WorkerPanic`] kills the worker on first contact
///   (rung 0, attempt 0) — *exactly once*: a bounced job is re-admitted
///   with its redelivery count as the attempt base, so the recovered
///   delivery presents attempt ≥ 1 and proceeds. This is what makes
///   crash recovery terminate instead of chasing the panic across the
///   pool.
pub fn fault_plan_hook(plan: FaultPlan) -> RequestHook {
    Box::new(move |ctx: &HookCtx| match plan.fault_for(ctx.id)? {
        FaultKind::Transient { failures } => {
            (ctx.rung == 0 && ctx.attempt < failures).then_some(InjectedFault::Transient)
        }
        FaultKind::Fatal { depth } => ((ctx.rung as u32) < depth).then_some(InjectedFault::Fatal),
        FaultKind::WorkerPanic => {
            (ctx.rung == 0 && ctx.attempt == 0).then_some(InjectedFault::WorkerPanic)
        }
    })
}

/// Install (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" report for this crate's worker threads
/// and forwards everything else untouched. Injected worker panics are
/// *expected* output in fault experiments; without this they spray
/// backtraces over the harness tables.
pub fn silence_worker_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("nlidb-serve-"));
            if !in_worker {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(id: u64, rung: usize, attempt: u32) -> HookCtx {
        HookCtx { id, rung, attempt }
    }

    #[test]
    fn transient_faults_recover_after_budgeted_attempts() {
        let hook = fault_plan_hook(FaultPlan::none().with(5, FaultKind::Transient { failures: 2 }));
        assert_eq!(hook(&ctx(5, 0, 0)), Some(InjectedFault::Transient));
        assert_eq!(hook(&ctx(5, 0, 1)), Some(InjectedFault::Transient));
        assert_eq!(hook(&ctx(5, 0, 2)), None, "recovers on the third attempt");
        assert_eq!(hook(&ctx(5, 1, 0)), None, "lower rungs are healthy");
        assert_eq!(hook(&ctx(4, 0, 0)), None, "other requests are healthy");
    }

    #[test]
    fn fatal_faults_knock_out_the_top_rungs() {
        let hook = fault_plan_hook(FaultPlan::none().with(2, FaultKind::Fatal { depth: 2 }));
        assert_eq!(hook(&ctx(2, 0, 0)), Some(InjectedFault::Fatal));
        assert_eq!(
            hook(&ctx(2, 0, 7)),
            Some(InjectedFault::Fatal),
            "no retry escape"
        );
        assert_eq!(hook(&ctx(2, 1, 0)), Some(InjectedFault::Fatal));
        assert_eq!(hook(&ctx(2, 2, 0)), None, "rung below depth is healthy");
    }

    #[test]
    fn panic_fires_exactly_once() {
        let hook = fault_plan_hook(FaultPlan::none().with(0, FaultKind::WorkerPanic));
        assert_eq!(hook(&ctx(0, 0, 0)), Some(InjectedFault::WorkerPanic));
        assert_eq!(hook(&ctx(0, 0, 1)), None);
        assert_eq!(hook(&ctx(0, 1, 0)), None);
    }

    #[test]
    fn empty_plan_is_a_no_op_hook() {
        let hook = fault_plan_hook(FaultPlan::none());
        for id in 0..20 {
            assert_eq!(hook(&ctx(id, 0, 0)), None);
        }
    }
}
