//! Ready-to-train task objects implementing [`crate::trainer::PinnTask`].
//! [`ZooTask`] trains every registry problem, and any Schrödinger preset
//! wrapped by `qpinn_problems::zoo`. The eigenvalue and inverse tasks
//! train extra parameters (a trainable energy, a trainable trap
//! frequency) that the registry does not describe yet.

pub mod eigen;
pub mod inverse;
pub mod zoo;

pub use eigen::{EigenTask, EigenTaskConfig};
pub use inverse::{InverseTaskConfig, InverseTdseTask};
pub use zoo::{net_config_for, ZooTask, ZooTaskConfig};
