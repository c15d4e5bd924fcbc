//! Exact periodic coordinate embeddings (Dong & Ni 2021).
//!
//! A coordinate `x` on a periodic domain of length `L` is replaced by the
//! pair `(sin(2πx/L), cos(2πx/L))` before entering the network, which makes
//! the represented function *exactly* `L`-periodic — no boundary loss term
//! is needed. A learnable-period variant supports time coordinates whose
//! natural period is unknown a priori.

use crate::params::{GraphCtx, ParamId, ParamSet};
use qpinn_autodiff::jet::JetStack;
use qpinn_tensor::{pool, Tensor};
use std::f64::consts::TAU;

/// Fixed-period sin/cos embedding of one coordinate.
#[derive(Clone, Copy, Debug)]
pub struct PeriodicEmbedding {
    /// Domain length `L`.
    pub length: f64,
}

impl PeriodicEmbedding {
    /// Embedding with period `length`.
    pub fn new(length: f64) -> Self {
        assert!(length > 0.0, "period must be positive");
        PeriodicEmbedding { length }
    }

    /// Map a coordinate jet stack to a 2-column feature stack
    /// `[sin(2πx/L), cos(2πx/L)]` with exact derivative propagation.
    pub fn forward_stack(&self, ctx: &mut GraphCtx<'_>, x: JetStack) -> JetStack {
        x.scale(ctx.g, TAU / self.length).sin_cos(ctx.g)
    }

    /// Value-only forward pass over a plain `[n, 1]` column, off the tape:
    /// the zero-coordinate kernels of [`PeriodicEmbedding::forward_stack`].
    /// `x` and the scaled column go back to the buffer pool.
    pub fn forward_value(&self, x: Tensor) -> Tensor {
        let z = x.scale(TAU / self.length);
        pool::recycle(x);
        let y = z.jet_sin_cos(0, 0);
        pool::recycle(z);
        y
    }
}

/// Sin/cos embedding whose period is a trainable parameter — used for the
/// time coordinate when the simulated window is shorter than one period.
#[derive(Clone, Copy, Debug)]
pub struct LearnedPeriodEmbedding {
    inv_period: ParamId,
}

impl LearnedPeriodEmbedding {
    /// Register the inverse-period parameter, initialized to `1/period0`.
    pub fn new(params: &mut ParamSet, period0: f64, name: &str) -> Self {
        assert!(period0 > 0.0, "initial period must be positive");
        let inv = params.add(
            format!("{name}.inv_period"),
            Tensor::from_vec([1, 1], vec![1.0 / period0]),
        );
        LearnedPeriodEmbedding { inv_period: inv }
    }

    /// Map a coordinate jet stack to `[sin(2πx/P), cos(2πx/P)]` where `1/P`
    /// is the trainable parameter. Gradients flow into the period through
    /// the bias-free `[rows,1]·[1,1]` matmul over the stack.
    pub fn forward_stack(&self, ctx: &mut GraphCtx<'_>, x: JetStack) -> JetStack {
        let inv = ctx.param(self.inv_period);
        // z = 2π · x · (1/P); the map is linear in x, so every block goes
        // through the same matmul-then-scale.
        x.affine(ctx.g, inv, None).scale(ctx.g, TAU).sin_cos(ctx.g)
    }

    /// Value-only forward pass over a plain `[n, 1]` column, off the tape:
    /// the one-block kernels of [`LearnedPeriodEmbedding::forward_stack`],
    /// the inverse period read by reference. `x` and every intermediate go
    /// back to the buffer pool.
    pub fn forward_value(&self, params: &ParamSet, x: Tensor) -> Tensor {
        let m = x.jet_affine(params.get(self.inv_period), None, x.shape().nrows());
        pool::recycle(x);
        let z = m.scale(TAU);
        pool::recycle(m);
        let y = z.jet_sin_cos(0, 0);
        pool::recycle(z);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_autodiff::Graph;

    #[test]
    fn embedding_is_exactly_periodic() {
        let emb = PeriodicEmbedding::new(2.0);
        let params = ParamSet::new();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[0.3, 0.3 + 2.0, 0.3 - 4.0]));
        let jet = JetStack::seed(ctx.g, x, 0, 1, 1);
        let out = emb.forward_stack(&mut ctx, jet).unstack(ctx.g);
        let v = g.value(out.v);
        for col in 0..2 {
            let base = v.get(&[0, col]);
            assert!((v.get(&[1, col]) - base).abs() < 1e-12);
            assert!((v.get(&[2, col]) - base).abs() < 1e-12);
        }
    }

    #[test]
    fn derivatives_match_analytic() {
        let emb = PeriodicEmbedding::new(2.0);
        let params = ParamSet::new();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x0 = 0.7;
        let x = ctx.g.constant(Tensor::column(&[x0]));
        let jet = JetStack::seed(ctx.g, x, 0, 1, 1);
        let out = emb.forward_stack(&mut ctx, jet).unstack(ctx.g);
        let c = TAU / 2.0;
        let d = g.value(out.d[0]);
        assert!((d.get(&[0, 0]) - c * (c * x0).cos()).abs() < 1e-13);
        assert!((d.get(&[0, 1]) + c * (c * x0).sin()).abs() < 1e-13);
        let dd = g.value(out.dd[0]);
        assert!((dd.get(&[0, 0]) + c * c * (c * x0).sin()).abs() < 1e-13);
    }

    #[test]
    fn learned_period_receives_gradient() {
        let mut params = ParamSet::new();
        let emb = LearnedPeriodEmbedding::new(&mut params, 3.0, "t");
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let t = ctx.g.constant(Tensor::column(&[0.4, 0.9]));
        let jet = JetStack::seed(ctx.g, t, 0, 1, 1);
        let out = emb.forward_stack(&mut ctx, jet).unstack(ctx.g);
        // mse(out.v) is identically 0.5 (sin²+cos²), so use the derivative
        // features, whose magnitude scales with 2π/P.
        let loss = ctx.g.mse(out.d[0]);
        let mut grads = ctx.g.backward(loss);
        let collected = ctx.collect_grads(&mut grads);
        assert_eq!(collected.len(), 1);
        assert!(collected[0].max_abs() > 1e-6, "period gradient missing");
    }

    #[test]
    fn learned_period_gradient_matches_finite_difference() {
        let eval = |inv_p: f64| -> f64 {
            let mut params = ParamSet::new();
            let emb = LearnedPeriodEmbedding::new(&mut params, 1.0 / inv_p, "t");
            let mut g = Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let t = ctx.g.constant(Tensor::column(&[0.4, 0.9]));
            let jet = JetStack::seed(ctx.g, t, 0, 1, 1);
            let out = emb.forward_stack(&mut ctx, jet).unstack(ctx.g);
            let loss = ctx.g.mse(out.d[0]);
            let v = ctx.g.value(loss).item();
            let _ = emb;
            v
        };
        let inv0 = 1.0 / 3.0;
        let h = 1e-6;
        let fd = (eval(inv0 + h) - eval(inv0 - h)) / (2.0 * h);

        let mut params = ParamSet::new();
        let emb = LearnedPeriodEmbedding::new(&mut params, 3.0, "t");
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let t = ctx.g.constant(Tensor::column(&[0.4, 0.9]));
        let jet = JetStack::seed(ctx.g, t, 0, 1, 1);
        let out = emb.forward_stack(&mut ctx, jet).unstack(ctx.g);
        let loss = ctx.g.mse(out.d[0]);
        let mut grads = ctx.g.backward(loss);
        let collected = ctx.collect_grads(&mut grads);
        assert!(
            (collected[0].item() - fd).abs() < 1e-4 * fd.abs().max(1.0),
            "analytic {} vs fd {fd}",
            collected[0].item()
        );
    }
}
