//! `telemetry`: zero-dependency metrics and tracing for the RL-Legalizer
//! suite.
//!
//! Four pieces, all designed so instrumentation can live permanently in
//! hot paths:
//!
//! - a sharded [`MetricsRegistry`] of counters, gauges, and fixed-bucket
//!   histograms (per-thread shards of relaxed atomics, merged only on
//!   snapshot);
//! - RAII [`Span`] timers feeding per-span wall-time histograms, with a
//!   thread-local stack of active span names;
//! - a bounded JSONL [`Journal`] drained by a background thread, which
//!   sheds (and counts) events instead of ever blocking a producer;
//! - a serializable [`Snapshot`] of everything, embedded by the bench
//!   harness into its `target/reports/*.json` records.
//!
//! Telemetry is **off by default**. Every recording call starts with the
//! [`disabled`] check — a single relaxed atomic load — so fully
//! instrumented code costs almost nothing until [`enable`] is called.
//!
//! ```
//! telemetry::enable();
//! let pixels = telemetry::counter("legalize.pixels_scanned");
//! {
//!     let _t = telemetry::span("legalize.run");
//!     pixels.add(123);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("legalize.pixels_scanned"), 123);
//! assert_eq!(snap.histograms["span.legalize.run"].count, 1);
//! telemetry::disable();
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::OnceLock;

use parking_lot::RwLock;

pub mod journal;
pub mod registry;
pub mod snapshot;
mod span;

pub use journal::{Event, FieldValue, Journal, RotatingFile};
pub use registry::{buckets, Counter, Gauge, Histogram, MetricsRegistry, SHARDS};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::{current_stack, Span};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` while telemetry is off (the default). Recording paths check this
/// first and bail, so instrumented code stays within a couple of percent
/// of un-instrumented performance when disabled.
#[inline]
pub fn disabled() -> bool {
    !ENABLED.load(Relaxed)
}

/// `true` while telemetry is collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns collection on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Starts collecting.
pub fn enable() {
    set_enabled(true);
}

/// Stops collecting (handles and registered metrics are kept).
pub fn disable() {
    set_enabled(false);
}

/// The process-wide registry backing the free functions below.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Counter `name` in the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Gauge `name` in the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Histogram `name` in the global registry (created with `bounds` on first
/// use).
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    global().histogram(name, bounds)
}

/// Starts an RAII wall-time span named `name`. Inert when disabled.
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Snapshot of the global registry, including the installed journal's
/// dropped-event count.
pub fn snapshot() -> Snapshot {
    let mut s = global().snapshot();
    s.dropped_events = journal_dropped();
    s
}

static JOURNAL: RwLock<Option<Journal>> = RwLock::new(None);

/// Installs `journal` as the process-wide event sink, returning the
/// previous one (which the caller should [`Journal::finish`]).
pub fn install_journal(journal: Journal) -> Option<Journal> {
    JOURNAL.write().replace(journal)
}

/// Removes the installed journal so the caller can flush it.
pub fn take_journal() -> Option<Journal> {
    JOURNAL.write().take()
}

/// Emits `event` to the installed journal. No-op when telemetry is
/// disabled or no journal is installed.
pub fn emit(event: Event) {
    if disabled() {
        return;
    }
    if let Some(j) = JOURNAL.read().as_ref() {
        j.emit(event);
    }
}

/// Events shed by the installed journal so far (0 when none installed).
pub fn journal_dropped() -> u64 {
    JOURNAL.read().as_ref().map_or(0, Journal::dropped)
}

/// Serializes tests that toggle the global enabled flag or registry.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_flow_counter_span_snapshot() {
        let _g = test_lock();
        set_enabled(true);
        let c = counter("lib.test_counter");
        c.add(5);
        {
            let _s = span("lib.test_span");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("lib.test_counter"), 5);
        assert_eq!(snap.histograms["span.lib.test_span"].count, 1);
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn emit_without_journal_is_safe() {
        let _g = test_lock();
        set_enabled(true);
        emit(Event::new("nobody-listens"));
        set_enabled(false);
    }
}
