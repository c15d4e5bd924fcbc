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
//!   (size-bounded, work-conserving micro-batches: the dispatcher
//!   drains whatever queued while it was busy), then scatter per
//!   request.
//!   Row-wise determinism makes batching invisible: responses are
//!   bit-identical to solo evaluation.
//! * **Admission control** ([`batch`], [`server`]) — bounded per-model
//!   eval queues and a bounded connection queue; both shed with
//!   `429 Too Many Requests` + `Retry-After` instead of queueing
//!   without bound. A dispatcher or train-job thread that cannot be
//!   spawned answers `503 Service Unavailable`.
//! * **Train-job API** ([`jobs`]) — `POST /v1/train` runs the real
//!   trainer on a background thread, streams epoch/loss/ETA through the
//!   existing `ProgressHook` plumbing at
//!   `GET /v1/jobs/<id>/progress`, and publishes the result into the
//!   registry (atomically — a failed publish degrades to `503` and
//!   never damages served versions).
//!
//! The HTTP surface (request parsing, response formatting, the
//! `/metrics` `/progress` `/healthz` routes) is shared with `qpinn-obs`
//! rather than duplicated; see `qpinn_obs::http` and
//! `qpinn_obs::server::metrics_routes`. Those routes read the metrics
//! registry, so the server installs no telemetry sink: span timing and
//! event building stay off unless the operator installs one. Everything
//! is instrumented under the `serve.*` metric names in
//! `qpinn_telemetry::names`.

#![deny(missing_docs)]

pub mod batch;
pub mod jobs;
pub mod registry;
pub mod server;
pub mod spec;

pub use batch::{BatchConfig, Batcher, EvalOutput, EvalTiming, SubmitError};
pub use jobs::{JobManager, JobStatus, TrainRequest};
pub use registry::{
    LoadedModel, ModelInfo, ModelRegistry, RegistryConfig, RegistryError,
};
pub use server::{ServeConfig, ServeServer, TraceConfig};
pub use spec::{ModelSpec, SpecDecodeError};
