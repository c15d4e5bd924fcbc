//! # qpinn-telemetry
//!
//! Structured observability for the qpinn training stack, std-only (the
//! sandbox has no registry access, so this layer depends on nothing).
//!
//! Three cooperating pieces:
//!
//! * **Spans** ([`span`]) — RAII timers with a thread-local span stack.
//!   Dropping the guard emits a `span` event carrying the nesting path
//!   (`epoch/forward`) and duration, and feeds a `span.<name>_ns`
//!   histogram for aggregate phase accounting. Dormant spans (no sink
//!   installed) cost one atomic load.
//! * **Metrics** ([`registry`], [`metrics`]) — named atomic counters,
//!   gauges, and log2-bucketed histograms in a global [`Registry`];
//!   always-on (an atomic add per update) so a final snapshot is
//!   available even for runs that never installed a sink.
//! * **Sinks** ([`sink`]) — pluggable receivers for the event stream:
//!   [`JsonlSink`] writes one versioned JSON object per line for machine
//!   consumption, [`StderrSink`] prints warns/marks for humans. The bench
//!   harness points a [`JsonlSink`] at a per-run file via `--telemetry`.
//! * **Exposition** ([`prometheus`]) — renders a [`MetricsSnapshot`] as a
//!   Prometheus text-format page; the `qpinn-serve` HTTP server serves
//!   it at `/metrics`.
//! * **Request tracing** ([`trace`], [`access`]) — a per-request
//!   [`TraceCtx`] minted by the serve plane plus a bounded ring-buffer
//!   access log (`qpinn-access-v1`) recording every request's latency
//!   decomposition; backs `GET /v1/traces` and `qpinn-obs requests`/
//!   `slo`. Off by default: one relaxed atomic load per request.
//!
//! ## Event schema (v1)
//!
//! Every line is an object with fixed top-level keys:
//!
//! ```json
//! {"v":1,"ts_ns":12345,"kind":"span","name":"forward",
//!  "thread":"main","fields":{"path":"epoch/forward","dur_ns":81920}}
//! ```
//!
//! `kind` is one of `span`, `metrics`, `mark`, `warn`. New event names
//! and field keys may appear without a version bump; `v` changes only if
//! an existing key changes meaning. The first line of a JSONL stream is
//! always a `telemetry_start` mark carrying the schema version.
//!
//! ## Overhead budget
//!
//! The instrumented hot paths (tensor kernels through the work-stealing
//! pool) must stay within 2% of un-instrumented throughput — enforced by
//! the CI perf guard over `qpinn-bench --bin kernels`. The rules that
//! keep it true: no event construction before a [`sink::enabled`] check,
//! no per-task atomics in the pool (workers flush local counts at drain
//! boundaries), and no locks anywhere a kernel loop can reach.

#![deny(missing_docs)]

pub mod access;
pub mod event;
pub mod metrics;
pub mod names;
pub mod prometheus;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use access::AccessRecord;
pub use event::{Event, Kind, Value, SCHEMA_VERSION};
pub use trace::TraceCtx;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{counter, gauge, global, histogram, MetricsSnapshot, Registry};
pub use sink::{
    emit, enabled, flush, install, note_write_error, shutdown, take_write_error, JsonlSink,
    MemorySink, Sink, StderrSink,
};
pub use span::span;

/// Emit a `warn` event named `code` with a human-readable message, and
/// count it under `warn.<code>` so warnings survive into metric
/// snapshots. Returns the message (convenient for also logging or
/// surfacing it to a caller).
pub fn warn(code: &str, msg: impl Into<String>) -> String {
    let msg = msg.into();
    registry::counter(&format!("warn.{code}")).inc();
    if enabled() {
        emit(Event::new(Kind::Warn, code).field("msg", msg.clone()));
    }
    msg
}

/// Emit a `mark` event (noteworthy occurrence) when telemetry is active.
/// The closure builds the field list only when someone is listening.
pub fn mark(name: &str, build: impl FnOnce(Event) -> Event) {
    if enabled() {
        emit(build(Event::new(Kind::Mark, name)));
    }
}

/// Serializes tests that touch the global sink list; the runtime never
/// needs this (sinks are installed once at startup).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn warn_counts_even_when_dormant() {
        let before = registry::counter("warn.test_code").get();
        let msg = warn("test_code", "something odd");
        assert_eq!(msg, "something odd");
        assert_eq!(registry::counter("warn.test_code").get(), before + 1);
    }

    #[test]
    fn mark_builds_fields_lazily() {
        let _guard = crate::test_lock();
        // Dormant: closure must not run.
        shutdown();
        mark("lazy", |_| panic!("must not build fields when dormant"));
        // Active: fields arrive.
        let mem = Arc::new(MemorySink::default());
        install(mem.clone());
        mark("resumed", |e| e.field("epoch", 7u64));
        shutdown();
        let events = mem.events.lock().unwrap();
        assert!(events
            .iter()
            .any(|e| e.name == "resumed" && e.fields.iter().any(|(k, _)| k == "epoch")));
    }
}
