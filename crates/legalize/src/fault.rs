//! Deterministic fault injection for resilience testing.
//!
//! Production code must contain faults (a panicking Gcell solve is
//! quarantined, a stalled inference step trips the watchdog) — but proving
//! that requires *causing* faults on demand, deterministically, without
//! `#[cfg(test)]`-only seams that the release fuzz harness cannot reach.
//! This module is that seam: a process-global [`FaultPlan`] armed through
//! [`arm`] and consulted from the hot paths through near-free probes
//! ([`panic_if_planned`], [`infer_stall`]).
//!
//! The disarmed fast path is a single relaxed atomic load; arming takes a
//! process-wide lock held by the returned [`FaultGuard`], so concurrent
//! tests that inject faults serialize instead of trampling each other's
//! plans. Faults are keyed by *logical* indices (Gcell index, inference
//! step), never by thread or wall clock, so an injected run is exactly as
//! deterministic as a fault-free one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Which faults to inject, and where.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Panic inside the phase-1 solve of this Gcell index (every solve of
    /// that Gcell panics while armed, whatever thread runs it).
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

/// Armed-plan fast path: checked before taking any lock.
static ARMED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static Mutex<FaultPlan> {
    static PLAN: OnceLock<Mutex<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(FaultPlan::default()))
}

/// Serializes arm/disarm across threads (tests injecting faults must not
/// observe each other's plans).
fn arm_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Fault tests panic on purpose; a poisoned plan lock is expected, and
    // the data (a Copy plan) cannot be left torn.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Keeps the plan armed; disarms on drop. Holding it also excludes every
/// other would-be armer, so fault tests serialize process-wide.
pub struct FaultGuard {
    _excl: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock_ignore_poison(plan_slot()) = FaultPlan::default();
    }
}

/// Arms `plan` process-wide until the returned guard drops. Blocks while
/// another guard is alive.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let excl = lock_ignore_poison(arm_lock());
    *lock_ignore_poison(plan_slot()) = plan;
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _excl: excl }
}

/// `true` while a plan is armed (single relaxed load; the production fast
/// path).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Probe called from the per-Gcell solve: panics when the armed plan
/// targets `gcell`.
#[inline]
pub fn panic_if_planned(gcell: usize) {
    if !armed() {
        return;
    }
    let target = lock_ignore_poison(plan_slot()).panic_at_gcell;
    if target == Some(gcell) {
        panic!("injected fault: gcell {gcell} solve panic");
    }
}

/// Probe called from the RL-inference loop: returns how long step `step`
/// should stall, if the armed plan says so.
#[inline]
pub fn infer_stall(step: u64) -> Option<Duration> {
    if !armed() {
        return None;
    }
    lock_ignore_poison(plan_slot())
        .infer_stall
        .filter(|s| step >= s.from_step)
        .map(|s| s.sleep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probes_are_inert() {
        // Hold the armers' exclusion, or a fault test on another thread
        // may arm a plan mid-check.
        let _excl = lock_ignore_poison(arm_lock());
        assert!(!armed());
        panic_if_planned(0);
        assert_eq!(infer_stall(0), None);
    }

    #[test]
    fn armed_plan_fires_and_disarms_on_drop() {
        let guard = arm(FaultPlan {
            panic_at_gcell: Some(3),
            infer_stall: Some(InferStall {
                from_step: 2,
                sleep: Duration::from_millis(1),
            }),
        });
        assert!(armed());
        panic_if_planned(2); // not the target: no panic
        assert_eq!(infer_stall(1), None);
        assert_eq!(infer_stall(2), Some(Duration::from_millis(1)));
        let hit = std::panic::catch_unwind(|| panic_if_planned(3));
        assert!(hit.is_err(), "planned gcell must panic");
        drop(guard);
        assert!(!armed());
        panic_if_planned(3); // inert again
    }
}
