//! Ready-to-train task objects implementing [`crate::trainer::PinnTask`].
//! [`ZooTask`] trains every registry problem, any Schrödinger preset
//! wrapped by `qpinn_problems::zoo`, and the unregistered adapters whose
//! constants train alongside the network (a bound state's energy, a trap
//! frequency).

pub mod zoo;

pub use zoo::{net_config_for, ZooTask, ZooTaskConfig};
