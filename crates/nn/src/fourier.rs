//! Random Fourier feature embedding (Tancik et al. 2020; Rahimi & Recht
//! 2007).
//!
//! Inputs `x ∈ ℝᵈ` are mapped to `[sin(x·Ω), cos(x·Ω)]` with a fixed random
//! projection `Ω ∈ ℝ^{d×F}` whose entries are `N(0, σ²)`. The embedding
//! injects high-frequency structure into the first layer and is the
//! standard mitigation for spectral bias in PINNs. `Ω` is **not**
//! trainable.

use crate::params::GraphCtx;
use qpinn_autodiff::jet::JetStack;
use qpinn_tensor::{pool, Tensor};
use rand::rngs::StdRng;

/// Fixed sinusoidal feature map `x ↦ [sin(xΩ), cos(xΩ)]`.
#[derive(Clone, Debug)]
pub struct RandomFourierFeatures {
    omega: Tensor,
}

impl RandomFourierFeatures {
    /// Sample a projection for `input_dim` inputs and `n_features`
    /// frequencies with scale `sigma` (output width is `2·n_features`).
    pub fn new(input_dim: usize, n_features: usize, sigma: f64, rng: &mut StdRng) -> Self {
        RandomFourierFeatures {
            omega: Tensor::randn([input_dim, n_features], sigma, rng),
        }
    }

    /// Build from an explicit projection matrix `[input_dim, n_features]`.
    pub fn from_matrix(omega: Tensor) -> Self {
        assert_eq!(omega.shape().rank(), 2, "Ω must be a matrix");
        RandomFourierFeatures { omega }
    }

    /// Output width (`2 · n_features`).
    pub fn output_dim(&self) -> usize {
        2 * self.omega.shape().ncols()
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.omega.shape().nrows()
    }

    /// Forward pass over a jet stack: the projection is linear (one
    /// bias-free matmul over every block), and sin/cos propagate by the
    /// chain rule into `[sin | cos]` feature rows.
    pub fn forward_stack(&self, ctx: &mut GraphCtx<'_>, x: JetStack) -> JetStack {
        let omega = ctx.g.constant(self.omega.clone());
        x.affine(ctx.g, omega, None).sin_cos(ctx.g)
    }

    /// Value-only forward pass over a plain batch, off the tape: the
    /// one-block kernels of [`RandomFourierFeatures::forward_stack`]. `x`
    /// and `x·Ω` go back to the buffer pool.
    pub fn forward_value(&self, x: Tensor) -> Tensor {
        let z = x.jet_affine(&self.omega, None, x.shape().nrows());
        pool::recycle(x);
        let y = z.jet_sin_cos(0, 0);
        pool::recycle(z);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use qpinn_autodiff::Graph;
    use rand::SeedableRng;

    #[test]
    fn forward_values_match_manual() {
        let omega = Tensor::from_rows(&[&[2.0], &[0.5]]); // d=2, F=1
        let rff = RandomFourierFeatures::from_matrix(omega);
        assert_eq!(rff.output_dim(), 2);
        assert_eq!(rff.input_dim(), 2);
        let params = ParamSet::new();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::from_rows(&[&[0.3, 0.8]]));
        let y = rff.forward_stack(&mut ctx, JetStack { stack: x, n_coords: 0, n_second: 0 });
        let z: f64 = 0.3 * 2.0 + 0.8 * 0.5;
        let out = g.value(y.stack);
        assert!((out.get(&[0, 0]) - z.sin()).abs() < 1e-14);
        assert!((out.get(&[0, 1]) - z.cos()).abs() < 1e-14);
    }

    #[test]
    fn jet_derivatives_match_analytic() {
        // With x = (x0,), Ω = [[w]]: features are sin(w x), cos(w x);
        // d/dx = w cos, -w sin; d²/dx² = -w² sin, -w² cos.
        let w = 1.7;
        let rff = RandomFourierFeatures::from_matrix(Tensor::from_rows(&[&[w]]));
        let params = ParamSet::new();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x0 = 0.4;
        let x = ctx.g.constant(Tensor::column(&[x0]));
        let jet = JetStack::seed(ctx.g, x, 0, 1, 1);
        let out = rff.forward_stack(&mut ctx, jet).unstack(ctx.g);
        let d = g.value(out.d[0]);
        assert!((d.get(&[0, 0]) - w * (w * x0).cos()).abs() < 1e-13);
        assert!((d.get(&[0, 1]) + w * (w * x0).sin()).abs() < 1e-13);
        let dd = g.value(out.dd[0]);
        assert!((dd.get(&[0, 0]) + w * w * (w * x0).sin()).abs() < 1e-13);
        assert!((dd.get(&[0, 1]) + w * w * (w * x0).cos()).abs() < 1e-13);
    }

    #[test]
    fn sampled_projection_is_reproducible() {
        let a = RandomFourierFeatures::new(3, 16, 1.0, &mut StdRng::seed_from_u64(11));
        let b = RandomFourierFeatures::new(3, 16, 1.0, &mut StdRng::seed_from_u64(11));
        assert!(a.omega.approx_eq(&b.omega, 0.0));
    }
}
