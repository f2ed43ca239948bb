//! Deterministic fault injection for resilience testing.
//!
//! Production code must contain faults (a panicking Gcell solve is
//! quarantined, a stalled inference step trips the watchdog) — but proving
//! that requires *causing* faults on demand, deterministically, without
//! `#[cfg(test)]`-only seams that the release fuzz harness cannot reach.
//! This module is that seam: a [`FaultPlan`] armed through [`arm`] and read
//! back by the hot paths ([`plan`], [`infer_stall`]).
//!
//! A plan is thread-scoped: [`arm`] keeps it in a thread-local for the
//! lifetime of the returned [`FaultGuard`], so only the arming thread sees
//! it, and a test that injects faults never reaches runs on other threads.
//! Code that fans work out reads the plan once on the calling thread and
//! hands it to its helpers: `Legalizer::run_gcells_parallel` passes
//! [`FaultPlan::panic_at_gcell`] into its scoped workers. The disarmed
//! probe is one thread-local read. Faults are keyed by *logical* indices
//! (Gcell index, inference step), never by thread or wall clock, so an
//! injected run is exactly as deterministic as a fault-free one.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Duration;

/// Which faults to inject, and where.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Panic inside the phase-1 solve of this Gcell index (every solve of
    /// that Gcell panics while armed, whatever worker thread runs it).
    pub panic_at_gcell: Option<usize>,
    /// Sleep this long inside every RL-inference step with index `>= from`
    /// (simulates a pathologically slow solve for watchdog tests).
    pub infer_stall: Option<InferStall>,
}

/// A slow-solve stall injected into the inference loop.
#[derive(Debug, Clone, Copy)]
pub struct InferStall {
    /// First inference step (0-based, counted per run) that stalls.
    pub from_step: u64,
    /// How long each stalled step sleeps.
    pub sleep: Duration,
}

thread_local! {
    /// The calling thread's armed plan; all `None` while disarmed.
    static PLAN: Cell<FaultPlan> = const {
        Cell::new(FaultPlan {
            panic_at_gcell: None,
            infer_stall: None,
        })
    };
}

/// Keeps a plan armed on the thread that called [`arm`], and restores that
/// thread's previous plan on drop. Not `Send`: it must drop on the thread
/// whose plan it holds.
pub struct FaultGuard {
    prev: FaultPlan,
    _thread: PhantomData<*const ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        PLAN.with(|p| p.set(self.prev));
    }
}

/// Arms `plan` on the calling thread until the returned guard drops.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    FaultGuard {
        prev: PLAN.with(|p| p.replace(plan)),
        _thread: PhantomData,
    }
}

/// The plan armed on the calling thread (all `None` when disarmed).
#[inline]
pub fn plan() -> FaultPlan {
    PLAN.with(Cell::get)
}

/// Probe called from the RL-inference loop: returns how long step `step`
/// should stall, if the calling thread's plan says so.
#[inline]
pub fn infer_stall(step: u64) -> Option<Duration> {
    plan()
        .infer_stall
        .filter(|s| step >= s.from_step)
        .map(|s| s.sleep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probes_are_inert() {
        assert_eq!(plan().panic_at_gcell, None);
        assert_eq!(infer_stall(0), None);
    }

    #[test]
    fn armed_plan_is_thread_scoped_and_restored_on_drop() {
        let guard = arm(FaultPlan {
            panic_at_gcell: Some(3),
            infer_stall: Some(InferStall {
                from_step: 2,
                sleep: Duration::from_millis(1),
            }),
        });
        assert_eq!(plan().panic_at_gcell, Some(3));
        assert_eq!(infer_stall(1), None);
        assert_eq!(infer_stall(2), Some(Duration::from_millis(1)));
        let elsewhere = std::thread::spawn(|| (plan().panic_at_gcell, infer_stall(5)))
            .join()
            .expect("probe thread");
        assert_eq!(elsewhere, (None, None), "other threads stay disarmed");
        {
            let _inner = arm(FaultPlan {
                panic_at_gcell: Some(7),
                ..FaultPlan::default()
            });
            assert_eq!(plan().panic_at_gcell, Some(7));
            assert_eq!(infer_stall(2), None);
        }
        assert_eq!(plan().panic_at_gcell, Some(3), "outer plan restored");
        drop(guard);
        assert_eq!(plan().panic_at_gcell, None);
        assert_eq!(infer_stall(9), None);
    }
}
