//! Canonical metric names for the serving plane.
//!
//! Metrics in this registry are created on first use by name, so nothing
//! enforces spelling at the call site; the `qpinn-serve` instrument
//! points and the tests/CI that assert on them both import these
//! constants so the two cannot drift. (Training-side names — the
//! `train.progress.*` gauges, `persist.checkpoint.*` counters,
//! `span.*_ns` histograms — predate this module and remain string
//! literals at their single emit sites.)
//!
//! Prometheus exposition mangles `.` to `_` and suffixes counters with
//! `_total`, so e.g. [`SERVE_SHED`] scrapes as `qpinn_serve_http_shed_total`.

/// Counter: HTTP requests accepted by the inference server, by outcome
/// of routing (incremented once per handled connection).
pub const SERVE_REQUESTS: &str = "serve.http.requests";

/// Counter: requests shed with `429 Too Many Requests` (connection
/// queue full or per-model admission cap exceeded).
pub const SERVE_SHED: &str = "serve.http.shed";

/// Counter: requests that failed with a `5xx` status.
pub const SERVE_ERRORS: &str = "serve.http.errors";

/// Histogram: end-to-end request latency in microseconds, measured from
/// parse to response write.
pub const SERVE_LATENCY_US: &str = "serve.http.latency_us";

/// Histogram: number of eval requests coalesced into one forward pass.
/// A recorded value ≥ 2 proves batching happened.
pub const SERVE_BATCH_SIZE: &str = "serve.batch.size";

/// Histogram: total points per dispatched forward-pass batch.
pub const SERVE_BATCH_POINTS: &str = "serve.batch.points";

/// Counter: forward-pass batches dispatched.
pub const SERVE_BATCH_FLUSHES: &str = "serve.batch.flushes";

/// Gauge: eval requests queued (all models) at last batch dispatch.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";

/// Histogram: nanoseconds an eval request waited in the per-model batch
/// queue before the dispatcher began forming its batch. Per-route /
/// per-model variants append `.by_route.<route>` / `.by_model.<id.vN>`
/// to this and the other `serve.latency.*` bases (see
/// [`route_key`] / [`model_key`]).
pub const SERVE_LAT_QUEUE_NS: &str = "serve.latency.queue_ns";

/// Histogram: nanoseconds the dispatcher spent forming and draining the
/// batch that served a request (it never waits for companions).
pub const SERVE_LAT_BATCH_NS: &str = "serve.latency.batch_ns";

/// Histogram: forward-pass wall time of the batch that served a request,
/// attributed whole to every request coalesced into it.
pub const SERVE_LAT_COMPUTE_NS: &str = "serve.latency.compute_ns";

/// Histogram: end-to-end request latency in nanoseconds (same window as
/// [`SERVE_LATENCY_US`], finer unit, decomposable against the stage
/// histograms above: queue + batch + compute ≤ total).
pub const SERVE_LAT_TOTAL_NS: &str = "serve.latency.total_ns";

/// Label key for a route path, usable as a metric-name suffix: `/`
/// separators become `.`-free underscores (`/v1/eval` → `v1_eval`).
/// Prometheus exposition then mangles the result like any other name.
pub fn route_key(path: &str) -> String {
    path.trim_matches('/').replace(['/', '.'], "_")
}

/// Label key for `model@version`, usable as a metric-name suffix
/// (`heat@3` → `heat.v3`; non-name characters become `_`).
pub fn model_key(id: &str, version: u64) -> String {
    let safe: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}.v{version}")
}

/// Counter: models loaded from disk into the registry.
pub const SERVE_REGISTRY_LOADS: &str = "serve.registry.loads";

/// Counter: resolve calls served from the in-memory registry cache.
pub const SERVE_REGISTRY_HITS: &str = "serve.registry.hits";

/// Counter: models evicted to stay under the registry byte budget.
pub const SERVE_REGISTRY_EVICTIONS: &str = "serve.registry.evictions";

/// Gauge: bytes of model snapshots currently resident in the registry.
pub const SERVE_REGISTRY_BYTES: &str = "serve.registry.bytes";

/// Counter: train jobs accepted via `POST /v1/train`.
pub const SERVE_JOBS_STARTED: &str = "serve.jobs.started";

/// Counter: train jobs that completed and published a model version.
pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs.completed";

/// Counter: train jobs that failed (training error or publish failure).
pub const SERVE_JOBS_FAILED: &str = "serve.jobs.failed";
