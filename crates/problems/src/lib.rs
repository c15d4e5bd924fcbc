//! # qpinn-problems
//!
//! Benchmark problem definitions for quantum-physics PINNs: potentials,
//! initial wavepackets, the three problem families (time-dependent
//! Schrödinger, nonlinear Schrödinger, stationary eigenproblems), closed-
//! form solutions where they exist, and reference-solution generation via
//! `qpinn-solvers`.
//!
//! Since the registry refactor, families are *data*: the [`zoo`] module
//! defines the [`PdeProblem`] trait (tape residual, domain, condition
//! sets, reference-solver factory) and a string-keyed registry —
//! [`lookup`]`("helmholtz")` returns a boxed definition ready for the
//! generic trainer task, and [`keys`] enumerates everything registered.
//! Presets without a registry key wrap into the same shape through
//! [`zoo::tdse`], [`zoo::nls`] and [`zoo::tdse2d`].
//!
//! All quantum problems use natural units `ħ = m = 1`.

#![deny(missing_docs)]

pub mod eigen;
pub mod nls;
pub mod potential;
pub mod tdse;
pub mod tdse2d;
pub mod wavepacket;
pub mod zoo;

pub use eigen::EigenProblem;
pub use nls::NlsProblem;
pub use potential::Potential;
pub use tdse::{Boundary, TdseProblem};
pub use tdse2d::{Potential2d, Tdse2dProblem};
pub use wavepacket::GaussianPacket;
pub use zoo::{
    keys, lookup, Condition, CoordDef, CoordKind, Fidelity, PdeProblem, RefSolution,
    UnknownProblem,
};
