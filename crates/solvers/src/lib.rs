//! # qpinn-solvers
//!
//! High-fidelity reference solvers for the Schrödinger systems the PINNs
//! are scored against, built on the in-house FFT and tridiagonal linear
//! algebra:
//!
//! * [`crank_nicolson`] — unconditionally stable, norm-preserving
//!   Crank–Nicolson propagation of the 1D time-dependent Schrödinger
//!   equation (Dirichlet or periodic boundaries);
//! * [`split_step`] — Strang-split spectral propagation for periodic
//!   problems, including the cubic nonlinearity of the nonlinear
//!   Schrödinger equation, run as one dispatch of the split-complex SIMD
//!   loop in `qpinn_tensor::simd`;
//! * [`eigensolver`] — finite-difference bound states of
//!   `−½∂²/∂x² + V(x)` via Sturm bisection + inverse iteration;
//! * [`observables`] — norms, energies and expectation values used by the
//!   conservation diagnostics;
//! * [`mol`] — a generic method-of-lines RK4 stepper (plus a Strang-split
//!   spectral reaction-diffusion integrator) for the real-valued and
//!   coupled families of the problem registry;
//! * [`elliptic`] — dense-LU finite-difference Helmholtz boundary-value
//!   solver used as an independent elliptic cross-check.
//!
//! Units are natural (`ħ = m = 1`) throughout: `i ∂ψ/∂t = −½ ∂²ψ/∂x² + Vψ`.
//!
//! ```
//! use qpinn_solvers::{bound_states, Grid1d};
//! // harmonic-oscillator ground state energy ≈ ½
//! let grid = Grid1d::dirichlet(-8.0, 8.0, 401);
//! let states = bound_states(&grid, &|x| 0.5 * x * x, 1);
//! assert!((states[0].energy - 0.5).abs() < 1e-3);
//! ```

#![deny(missing_docs)]

pub mod crank_nicolson;
pub mod eigensolver;
pub mod elliptic;
pub mod field;
pub mod grid;
pub mod mol;
pub mod observables;
pub mod split_step;
pub mod split_step_2d;

pub use crank_nicolson::crank_nicolson_tdse;
pub use eigensolver::{bound_states, BoundState};
pub use elliptic::{helmholtz_fd_solve, HelmholtzFd};
pub use field::Field1d;
pub use grid::{Grid1d, GridKind};
pub use mol::{
    gradient_periodic, laplacian_periodic, mol_rk4, reaction_diffusion_spectral, FieldR1d,
};
pub use split_step::{split_step_evolve, Nonlinearity};
pub use split_step_2d::{split_step_evolve_2d, Field2d};
