//! Fully connected (dense) layers over jet stacks.

use crate::init;
use crate::params::{GraphCtx, ParamId, ParamSet};
use qpinn_autodiff::jet::JetStack;
use qpinn_tensor::{pool, Tensor};
use rand::rngs::StdRng;

/// A dense layer `y = x·W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Clone, Copy, Debug)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
    fan_in: usize,
    fan_out: usize,
}

impl Dense {
    /// Register a glorot-initialized layer in `params`.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        fan_in: usize,
        fan_out: usize,
        name: &str,
    ) -> Self {
        let w = params.add(format!("{name}.w"), init::glorot_uniform(fan_in, fan_out, rng));
        let b = params.add(format!("{name}.b"), init::zero_bias(fan_out));
        Dense {
            w,
            b,
            fan_in,
            fan_out,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// Handles to this layer's parameters (weight, bias).
    pub fn param_ids(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    /// Forward pass over a jet stack: one matmul over every block, the
    /// bias on the value block only (the affine map is linear, so the
    /// derivative blocks pass through the weights alone).
    pub fn forward_stack(&self, ctx: &mut GraphCtx<'_>, x: JetStack) -> JetStack {
        let w = ctx.param(self.w);
        let b = ctx.param(self.b);
        x.affine(ctx.g, w, Some(b))
    }

    /// Value-only forward pass over a plain `[n, fan_in]` batch, off the
    /// tape: the one-block kernel [`Dense::forward_stack`] runs, with the
    /// parameters read by reference. `x` goes back to the buffer pool once
    /// the output exists.
    pub fn forward_value(&self, params: &ParamSet, x: Tensor) -> Tensor {
        let y = x.jet_affine(params.get(self.w), Some(params.get(self.b)), x.shape().nrows());
        pool::recycle(x);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_autodiff::Graph;
    use qpinn_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(&mut params, &mut rng, 2, 3, "l0");
        // overwrite with known values
        params
            .get_mut(layer.param_ids().0)
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        params
            .get_mut(layer.param_ids().1)
            .data_mut()
            .copy_from_slice(&[0.1, 0.2, 0.3]);
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::from_rows(&[&[1.0, 1.0]]));
        let y = layer.forward_stack(&mut ctx, JetStack { stack: x, n_coords: 0, n_second: 0 });
        // [1,1]·[[1,2,3],[4,5,6]] + [0.1,0.2,0.3] = [5.1, 7.2, 9.3]
        let out = g.value(y.stack);
        assert!(out.approx_eq(&Tensor::from_rows(&[&[5.1, 7.2, 9.3]]), 1e-12));
    }

    #[test]
    fn jet_forward_derivatives_are_weights() {
        // u(x) = x·W + b ⇒ ∂u/∂x = W row, ∂²u/∂x² = 0.
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(&mut params, &mut rng, 1, 2, "l0");
        let wvals = params.get(layer.param_ids().0).clone();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[0.5, -1.5]));
        let jet = JetStack::seed(ctx.g, x, 0, 1, 1);
        let out = layer.forward_stack(&mut ctx, jet).unstack(ctx.g);
        let d = g.value(out.d[0]);
        for i in 0..2 {
            assert!((d.get(&[i, 0]) - wvals.get(&[0, 0])).abs() < 1e-14);
            assert!((d.get(&[i, 1]) - wvals.get(&[0, 1])).abs() < 1e-14);
        }
        assert!(g.value(out.dd[0]).max_abs() < 1e-15);
    }

    #[test]
    fn gradcheck_through_dense_tanh_dense() {
        use qpinn_autodiff::gradcheck;
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let l0 = Dense::new(&mut params, &mut rng, 2, 4, "l0");
        let l1 = Dense::new(&mut params, &mut rng, 4, 1, "l1");
        let x = Tensor::from_rows(&[&[0.3, -0.2], &[0.8, 0.5]]);
        let tensors: Vec<Tensor> = params.tensors().to_vec();
        gradcheck::assert_gradients(
            move |g, vars| {
                // vars are [w0, b0, w1, b1] in registration order.
                let xc = g.constant(x.clone());
                let z0 = g.matmul(xc, vars[0]);
                let z0b = g.add_bias(z0, vars[1]);
                let h = g.tanh(z0b);
                let z1 = g.matmul(h, vars[2]);
                let z1b = g.add_bias(z1, vars[3]);
                g.mse(z1b)
            },
            &tensors,
            1e-5,
        );
        let _ = (l0, l1);
    }
}
