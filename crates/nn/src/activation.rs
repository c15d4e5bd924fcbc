//! Activation functions over jet stacks.

use crate::params::GraphCtx;
use qpinn_autodiff::jet::JetStack;
use qpinn_tensor::{pool, Tensor};

/// Smooth activations usable in PINNs (must be C² for second-order
/// residuals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent — the standard PINN activation.
    Tanh,
    /// Sine — useful for highly oscillatory solutions (SIREN-style).
    Sin,
}

impl Activation {
    /// Apply to a jet stack: value, first and second derivative blocks in
    /// one fused node.
    pub fn forward_stack(&self, ctx: &mut GraphCtx<'_>, x: JetStack) -> JetStack {
        match self {
            Activation::Tanh => x.tanh(ctx.g),
            Activation::Sin => x.sin(ctx.g),
        }
    }

    /// Value-only forward pass over a plain batch, off the tape: the
    /// zero-coordinate kernel [`Activation::forward_stack`] runs. `x` (and
    /// the cosine `jet_sin` keeps for a backward pass) go back to the
    /// buffer pool.
    pub fn forward_value(&self, x: Tensor) -> Tensor {
        let y = match self {
            Activation::Tanh => x.jet_tanh(0, 0),
            Activation::Sin => {
                let (y, cos) = x.jet_sin(0, 0);
                pool::recycle(cos);
                y
            }
        };
        pool::recycle(x);
        y
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Tanh => "tanh",
            Activation::Sin => "sin",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use qpinn_autodiff::Graph;
    use qpinn_tensor::Tensor;

    #[test]
    fn forward_matches_tensor_ops() {
        let params = ParamSet::new();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[-0.5, 0.0, 1.2]));
        let x = JetStack { stack: x, n_coords: 0, n_second: 0 };
        let t = Activation::Tanh.forward_stack(&mut ctx, x);
        let s = Activation::Sin.forward_stack(&mut ctx, x);
        assert!((g.value(t.stack).data()[2] - 1.2f64.tanh()).abs() < 1e-15);
        assert!((g.value(s.stack).data()[0] - (-0.5f64).sin()).abs() < 1e-15);
    }

    #[test]
    fn jet_second_derivative_of_sin_activation() {
        let params = ParamSet::new();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[0.3]));
        let jet = JetStack::seed(ctx.g, x, 0, 1, 1);
        let out = Activation::Sin.forward_stack(&mut ctx, jet).unstack(ctx.g);
        assert!((g.value(out.dd[0]).item() + 0.3f64.sin()).abs() < 1e-14);
    }
}
