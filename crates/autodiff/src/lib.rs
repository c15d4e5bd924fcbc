//! # qpinn-autodiff
//!
//! Define-by-run reverse-mode automatic differentiation over
//! [`qpinn_tensor::Tensor`].
//!
//! A [`Graph`] is a tape of eagerly evaluated operations. Building an
//! expression records the op and its operands; [`Graph::backward`] then
//! walks the tape once in reverse, producing exact gradients for every
//! recorded input that requires them.
//!
//! ```
//! use qpinn_autodiff::Graph;
//! use qpinn_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_slice(&[1.0, 2.0, 3.0]));
//! let y = g.mse(x); // mean(x²) = 14/3
//! assert!((g.value(y).item() - 14.0 / 3.0).abs() < 1e-12);
//! let grads = g.backward(y);
//! // d mean(x²)/dx = 2x/n
//! assert!((grads.get(x).unwrap().data()[1] - 4.0 / 3.0).abs() < 1e-12);
//! ```
//!
//! ## Second derivatives without nested tapes
//!
//! PINN residuals need ∂u/∂x and ∂²u/∂x² of the *network output with
//! respect to its inputs*, and then gradients of those with respect to the
//! parameters. Instead of differentiating the tape twice, the [`jet`]
//! module propagates truncated Taylor series (value, first, second
//! derivative per coordinate) through the network as ordinary tape ops —
//! all of them stacked by rows into one node per layer — so a single
//! reverse pass differentiates the whole residual. This is the
//! standard "Taylor-mode forward composed with reverse" construction and
//! avoids the nested-autodiff clunkiness called out in the reproduction
//! notes.

#![deny(missing_docs)]

mod graph;
pub mod gradcheck;
pub mod jet;

pub use graph::{CustomOp, Grads, Graph, Var};

#[cfg(test)]
mod proptests;
