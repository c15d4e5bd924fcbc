//! # qpinn-core
//!
//! The physics-informed training system tying the workspace together:
//!
//! * [`model`] — the [`model::FieldNet`] architecture (periodic/learned
//!   embeddings → optional random Fourier features → jet-propagating MLP)
//!   and the hybrid variant with a quantum-circuit layer;
//! * [`residual`] — per-field jet splitting for registry residuals;
//! * [`loss`] — initial-condition, **norm-conservation** and
//!   orthogonality losses plus the weighted total;
//! * [`causal`] — adaptive time weighting (causal training);
//! * [`trainer`] — the Adam(+schedule) training loop with loss/error/
//!   gradient trajectories, and L-BFGS polishing;
//! * [`task`] — [`ZooTask`], which trains any registry problem (with the
//!   causal curriculum and norm-conservation loss as options) and the
//!   constants a problem declares as unknowns;
//! * [`metrics`] — norm-drift series, sign-invariant profile errors and
//!   the Rayleigh-quotient energy of a learned bound state;
//! * [`report`] — aligned text tables and a small JSON writer for the
//!   experiment harness;
//! * [`experiment`] — multi-seed runs in parallel, plus mean/std;
//! * [`runs`] — the `qpinn-run-v1` durable run-record store (manifest +
//!   epoch series per training run, consumed by `qpinn-obs runs` and the
//!   `/v1/runs` HTTP routes).

#![deny(missing_docs)]

pub mod catalog;
pub mod causal;
pub mod experiment;
pub mod hybrid;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod obs;
pub mod report;
pub mod residual;
pub mod runs;
pub mod task;
pub mod trainer;

pub use catalog::{problems_doc, PROBLEMS_DOC_VERSION};
pub use model::{CoordSpec, FieldNet, FieldNetConfig};
pub use task::{ZooTask, ZooTaskConfig};
pub use runs::{RunConfig, RunOutcome};
pub use trainer::{
    CheckpointConfig, DivergenceGuard, PinnTask, Progress, ProgressHook, TrainConfig, TrainLog,
    Trainer,
};

#[cfg(test)]
mod proptests;
