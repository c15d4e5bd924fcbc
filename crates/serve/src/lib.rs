//! # qpinn-serve
//!
//! The model-serving plane: batched HTTP inference over trained PINN
//! surrogates, still zero external dependencies — `std::net` sockets,
//! the workspace's own JSON, snapshots, and telemetry.
//!
//! Four cooperating pieces:
//!
//! * **Model registry** ([`registry`]) — versioned `.qps` snapshots
//!   under a models directory, one `SnapshotStore` subdirectory per
//!   model id. Loads are CRC-validated and lazy; resident models are
//!   LRU-evicted under a byte budget. A snapshot alone cannot rebuild a
//!   `FieldNet` (the random-Fourier projection is drawn from the
//!   construction RNG, not stored), so each served snapshot carries a
//!   [`spec::ModelSpec`] — architecture + construction seed — and the
//!   registry replays construction bit-exactly.
//! * **Batching engine** ([`batch`]) — concurrent `POST /v1/eval`
//!   requests for the same model version coalesce into one
//!   `predict_batch` forward pass through the work-stealing pool
//!   (size-bounded, work-conserving micro-batches: one flush thread
//!   serves every model from one queue, draining the head request's
//!   model whenever it is free), then scatter per request.
//!   Row-wise determinism makes batching invisible: responses are
//!   bit-identical to solo evaluation.
//! * **Admission control** ([`batch`], [`server`]) — per-model caps on
//!   queued eval requests and a bounded connection queue; both shed with
//!   `429 Too Many Requests` + `Retry-After` instead of queueing
//!   without bound. The server's threads all start with it; no request
//!   starts one.
//! * **Train-job API** ([`jobs`]) — `POST /v1/train` queues a job for
//!   the one runner thread, which runs the real trainer on one job at a
//!   time in submit order, streams epoch/loss/ETA through the
//!   existing `ProgressHook` plumbing at
//!   `GET /v1/jobs/<id>/progress`, and publishes the result into the
//!   registry (atomically — a failed publish degrades to `503` and
//!   never damages served versions).
//!
//! It is the workspace's one HTTP server. Beside the inference routes it
//! serves the live observability routes (`/metrics`, `/metrics.json`,
//! `/progress`, `/healthz`, `/v1/runs`) over the same request plumbing
//! ([`http`]). Those routes read the metrics registry and the run store,
//! so the server installs no telemetry sink: span timing and event
//! building stay off unless the operator installs one. Everything is
//! instrumented under the `serve.*` metric names in
//! `qpinn_telemetry::names`.

#![deny(missing_docs)]

pub mod batch;
pub mod http;
pub mod jobs;
pub mod registry;
mod routes;
pub mod server;
pub mod spec;

pub use batch::{BatchConfig, Batcher, EvalOutput, EvalTiming, SubmitError};
pub use jobs::{JobManager, JobStatus, TrainRequest};
pub use registry::{
    LoadedModel, ModelInfo, ModelRegistry, RegistryConfig, RegistryError,
};
pub use server::{ServeConfig, ServeServer, TraceConfig};
pub use spec::{ModelSpec, SpecDecodeError};
