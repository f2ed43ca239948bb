//! Admission control: load-shedding in front of the job queue.
//!
//! The bounded queue already rejects with `QUEUE_FULL` when it fills, but
//! by then every queued job drags p99 latency with it — the queue is
//! sized for burst absorption, not for sustained overload. This layer
//! tracks the total *cost* of admitted-but-unfinished work (estimated
//! cells × a per-kind weight) and starts shedding before the queue
//! fills: low-priority work (training) is turned away at a soft
//! watermark, everything at the hard one. Rejections carry a
//! `retry_after_ms=N` hint (HTTP 429 + `Retry-After`) sized to the
//! current overshoot, so clients back off instead of hammering.
//!
//! Cost is *charged* at acceptance (and for journal-recovered jobs at
//! replay) and *released* when the job reaches a terminal state, always
//! by the same amount the table recorded — the gauge can drift neither up
//! nor down across retries or crashes.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::{JobKind, JobSpec};

/// Admission verdict for one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Admit; charge the returned cost.
    Admit,
    /// Shed: reject with `SHED` and this retry hint.
    Shed {
        /// How long the client should wait before retrying, in ms.
        retry_after_ms: u64,
    },
}

/// In-flight cost tracker. One per server, shared by the event loop
/// (charge) and the executors (release).
#[derive(Debug)]
pub struct Admission {
    /// Hard watermark: nothing is admitted above it.
    max_cost: u64,
    /// Soft watermark (half of max): low-priority work sheds here.
    soft_cost: u64,
    inflight: AtomicU64,
}

/// Per-kind cost weight: how much executor time a cell of this job kind
/// buys relative to a plain legalization.
pub fn kind_weight(kind: JobKind) -> u64 {
    match kind {
        JobKind::Legalize => 1,
        // A placement runs several diffusion/solve rounds plus a finalist
        // legalization; RL inference adds network forwards per decision.
        JobKind::Gplace | JobKind::RlLegalize => 2,
        // Training loops over many episodes of the same design.
        JobKind::Train => 4,
    }
}

/// Estimated cost of a job: cells × kind weight. Cell count comes from
/// the DEF's own `COMPONENTS <n>` declaration when present (cheap — no
/// parse), else a bytes-based guess; floored at 1 so empty probes still
/// cost something.
pub fn cost_of(spec: &JobSpec) -> u64 {
    let cells = declared_components(&spec.def)
        .unwrap_or((spec.def.len() as u64) / 64)
        .max(1);
    cells.saturating_mul(kind_weight(spec.kind))
}

/// Pulls `n` out of the first `COMPONENTS <n>` line of a DEF without
/// parsing the whole design.
fn declared_components(def: &str) -> Option<u64> {
    for line in def.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("COMPONENTS ") {
            return rest.split_whitespace().next().and_then(|w| w.parse().ok());
        }
    }
    None
}

/// `true` for job kinds shed first under load.
pub fn low_priority(kind: JobKind) -> bool {
    matches!(kind, JobKind::Train)
}

impl Admission {
    /// A tracker with the given hard watermark (soft = half of it).
    pub fn new(max_cost: u64) -> Self {
        let max_cost = max_cost.max(1);
        Self {
            max_cost,
            soft_cost: max_cost / 2,
            inflight: AtomicU64::new(0),
        }
    }

    /// Decides whether a job of `cost` may enter. On [`Verdict::Admit`]
    /// the cost has already been charged; the caller must
    /// [`release`](Self::release) it when the job reaches a terminal
    /// state (or if acceptance fails after this point).
    pub fn admit(&self, cost: u64, low_priority: bool) -> Verdict {
        // Optimistically charge, then check; back out on shed. The
        // watermark race this leaves (two submissions both landing just
        // under the line) errs by at most one job, which the bounded
        // queue behind us absorbs.
        let after = self.inflight.fetch_add(cost, Ordering::AcqRel) + cost;
        let limit = if low_priority {
            self.soft_cost
        } else {
            self.max_cost
        };
        if after > limit {
            self.inflight.fetch_sub(cost, Ordering::AcqRel);
            if !telemetry::disabled() {
                telemetry::counter("serve.admission.shed").inc();
            }
            Verdict::Shed {
                retry_after_ms: self.retry_after_ms(after, limit),
            }
        } else {
            Verdict::Admit
        }
    }

    /// Charges cost without an admission decision (journal-recovered
    /// jobs were already acknowledged — shedding them now would break
    /// the durability promise).
    pub fn charge(&self, cost: u64) {
        self.inflight.fetch_add(cost, Ordering::AcqRel);
    }

    /// Releases the cost of a job that reached a terminal state.
    pub fn release(&self, cost: u64) {
        // Saturating: a double-release bug should pin the gauge at zero,
        // not wrap it to u64::MAX and shed everything forever.
        let mut cur = self.inflight.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(cost);
            match self.inflight.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current in-flight cost (telemetry gauge).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Retry hint scaled to the overshoot: the further past the
    /// watermark, the longer the suggested wait, capped at 2s.
    fn retry_after_ms(&self, after: u64, limit: u64) -> u64 {
        let overshoot = after.saturating_sub(limit);
        // 25ms base + 1ms per 1/1000th of the limit overshot.
        let scaled = 25 + overshoot.saturating_mul(1000) / limit.max(1);
        scaled.min(2000)
    }
}

/// Parses the `retry_after_ms=N` hint out of a SHED rejection reason.
/// Shared by the HTTP adapter (to emit `Retry-After`) and the client
/// backoff (to honor it).
pub fn retry_after_hint(reason: &str) -> Option<u64> {
    reason.split_whitespace().find_map(|w| {
        w.strip_prefix("retry_after_ms=")
            .and_then(|v| v.parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: JobKind, def: &str) -> JobSpec {
        JobSpec {
            kind,
            def: def.into(),
            ..JobSpec::default()
        }
    }

    #[test]
    fn cost_uses_declared_components_and_kind_weight() {
        let def = "DESIGN d ;\nCOMPONENTS 100 ;\nEND COMPONENTS\nEND DESIGN\n";
        assert_eq!(cost_of(&spec(JobKind::Legalize, def)), 100);
        assert_eq!(cost_of(&spec(JobKind::Gplace, def)), 200);
        assert_eq!(cost_of(&spec(JobKind::Train, def)), 400);
        // No COMPONENTS line: bytes-based guess, floored at 1.
        assert_eq!(cost_of(&spec(JobKind::Legalize, "x")), 1);
    }

    #[test]
    fn low_priority_sheds_at_the_soft_watermark() {
        let a = Admission::new(100);
        // 60 > soft (50) but under max: trains shed, legalize admits.
        match a.admit(60, true) {
            Verdict::Shed { retry_after_ms } => assert!(retry_after_ms >= 25),
            v => panic!("train should shed at soft watermark, got {v:?}"),
        }
        assert_eq!(a.inflight(), 0, "shed must not leave cost charged");
        assert_eq!(a.admit(60, false), Verdict::Admit);
        assert_eq!(a.inflight(), 60);
        // Past the hard watermark everything sheds.
        assert!(matches!(a.admit(60, false), Verdict::Shed { .. }));
        a.release(60);
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn release_saturates_at_zero() {
        let a = Admission::new(100);
        a.charge(10);
        a.release(50);
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn retry_hint_round_trips_through_the_reason_string() {
        let a = Admission::new(100);
        let Verdict::Shed { retry_after_ms } = a.admit(1000, false) else {
            panic!("must shed");
        };
        let reason = format!("overloaded retry_after_ms={retry_after_ms}");
        assert_eq!(retry_after_hint(&reason), Some(retry_after_ms));
        assert_eq!(retry_after_hint("queue full"), None);
    }

    #[test]
    fn retry_hint_grows_with_overshoot_and_caps() {
        let a = Admission::new(1000);
        let small = match a.admit(1100, false) {
            Verdict::Shed { retry_after_ms } => retry_after_ms,
            v => panic!("{v:?}"),
        };
        let big = match a.admit(1_000_000, false) {
            Verdict::Shed { retry_after_ms } => retry_after_ms,
            v => panic!("{v:?}"),
        };
        assert!(small < big);
        assert_eq!(big, 2000, "hint is capped");
    }
}
