//! # qpinn-nn
//!
//! Neural-network building blocks over the `qpinn-autodiff` tape, designed
//! for physics-informed training:
//!
//! * [`ParamSet`] / [`GraphCtx`] — an external parameter store that is
//!   injected into a fresh tape every training step, so optimizers own the
//!   persistent state and graphs stay cheap;
//! * [`Dense`] and [`Mlp`] — fully connected layers over **jet stacks**:
//!   [`Dense::forward_stack`] pushes `(value, ∂/∂cᵢ, ∂²/∂cᵢ²)` for the
//!   coordinates a stack tracks through one matmul, giving PDE residual
//!   derivatives as
//!   first-class differentiable tape nodes, one fused node per layer;
//!   beside it, every layer's `forward_value` runs the same zero-coordinate
//!   kernels on plain tensors, off the tape, for inference;
//! * [`RandomFourierFeatures`] — the multiscale input embedding of Tancik
//!   et al. used to combat spectral bias in PINNs;
//! * [`PeriodicEmbedding`] — exact sin/cos periodization of spatial
//!   coordinates (Dong & Ni), which removes the need for a boundary loss on
//!   periodic domains.

#![deny(missing_docs)]

pub mod activation;
pub mod fourier;
pub mod init;
pub mod linear;
pub mod mlp;
pub mod params;
pub mod periodic;

pub use activation::Activation;
pub use fourier::RandomFourierFeatures;
pub use linear::Dense;
pub use mlp::{Mlp, MlpConfig};
pub use params::{GraphCtx, ParamId, ParamSet};
pub use periodic::PeriodicEmbedding;
