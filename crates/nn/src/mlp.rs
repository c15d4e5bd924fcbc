//! Multi-layer perceptron over jet stacks.

use crate::activation::Activation;
use crate::linear::Dense;
use crate::params::{GraphCtx, ParamSet};
use qpinn_autodiff::jet::JetStack;
use qpinn_tensor::Tensor;
use rand::rngs::StdRng;

/// Architecture description for an [`Mlp`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Input feature width (after any embedding).
    pub input_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Output width (number of predicted fields).
    pub output_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
}

impl MlpConfig {
    /// Convenience constructor: `depth` hidden layers of `width` tanh units.
    pub fn uniform(input_dim: usize, width: usize, depth: usize, output_dim: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden: vec![width; depth],
            output_dim,
            activation: Activation::Tanh,
        }
    }
}

/// A fully connected network `dense → act → … → dense` (linear output).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
}

impl Mlp {
    /// Register all layers in `params`.
    pub fn new(params: &mut ParamSet, rng: &mut StdRng, cfg: &MlpConfig, name: &str) -> Self {
        assert!(!cfg.hidden.is_empty(), "MLP needs at least one hidden layer");
        let mut layers = Vec::with_capacity(cfg.hidden.len() + 1);
        let mut fan_in = cfg.input_dim;
        for (i, &w) in cfg.hidden.iter().enumerate() {
            layers.push(Dense::new(params, rng, fan_in, w, &format!("{name}.h{i}")));
            fan_in = w;
        }
        layers.push(Dense::new(
            params,
            rng,
            fan_in,
            cfg.output_dim,
            &format!("{name}.out"),
        ));
        Mlp {
            layers,
            activation: cfg.activation,
        }
    }

    /// Layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Forward pass over a jet stack: two fused nodes per hidden layer
    /// (dense, activation) and one for the linear output layer, each
    /// carrying the value and every derivative block at once. A stack
    /// with no coordinates is the plain value forward pass.
    pub fn forward_stack(&self, ctx: &mut GraphCtx<'_>, x: JetStack) -> JetStack {
        let (hidden, out) = self.layers.split_at(self.layers.len() - 1);
        let mut h = x;
        for layer in hidden {
            h = layer.forward_stack(ctx, h);
            h = self.activation.forward_stack(ctx, h);
        }
        out[0].forward_stack(ctx, h)
    }

    /// Value-only forward pass over a plain batch, off the tape: the layer
    /// by layer counterpart of [`Mlp::forward_stack`] on a stack with no
    /// coordinates, bit for bit. Each layer's input goes back to the
    /// buffer pool once its output exists.
    pub fn forward_value(&self, params: &ParamSet, x: Tensor) -> Tensor {
        let (hidden, out) = self.layers.split_at(self.layers.len() - 1);
        let mut h = x;
        for layer in hidden {
            h = layer.forward_value(params, h);
            h = self.activation.forward_value(h);
        }
        out[0].forward_value(params, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_autodiff::Graph;
    use qpinn_tensor::Tensor;
    use rand::SeedableRng;

    fn tiny_mlp() -> (ParamSet, Mlp) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MlpConfig::uniform(1, 8, 2, 1);
        let mlp = Mlp::new(&mut params, &mut rng, &cfg, "net");
        (params, mlp)
    }

    /// The value-only forward pass at `x`.
    fn eval(mlp: &Mlp, params: &ParamSet, xs: &[f64]) -> Tensor {
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, params);
        let x = ctx.g.constant(Tensor::column(xs));
        let y = mlp.forward_stack(&mut ctx, JetStack { stack: x, n_coords: 0, n_second: 0 });
        g.value(y.stack).clone()
    }

    #[test]
    fn forward_and_jet_values_agree() {
        let (params, mlp) = tiny_mlp();
        let xs = [0.1, -0.4, 0.9];
        let y_plain = eval(&mlp, &params, &xs);

        let mut g2 = Graph::new();
        let mut ctx2 = GraphCtx::new(&mut g2, &params);
        let x2 = ctx2.g.constant(Tensor::column(&xs));
        let jet = JetStack::seed(ctx2.g, x2, 0, 1, 1);
        let out = mlp.forward_stack(&mut ctx2, jet).unstack(ctx2.g);
        assert!(g2.value(out.v).approx_eq(&y_plain, 1e-13));
    }

    #[test]
    fn jet_derivatives_match_finite_differences() {
        let (params, mlp) = tiny_mlp();
        let x0 = 0.35;
        let h = 1e-4;
        let f = |x: f64| eval(&mlp, &params, &[x]).item();

        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xc = ctx.g.constant(Tensor::column(&[x0]));
        let jet = JetStack::seed(ctx.g, xc, 0, 1, 1);
        let out = mlp.forward_stack(&mut ctx, jet).unstack(ctx.g);

        let fd1 = (f(x0 + h) - f(x0 - h)) / (2.0 * h);
        let fd2 = (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / (h * h);
        let d1 = g.value(out.d[0]).item();
        let d2 = g.value(out.dd[0]).item();
        assert!((d1 - fd1).abs() < 1e-6, "d1 {d1} vs {fd1}");
        assert!((d2 - fd2).abs() < 1e-4, "d2 {d2} vs {fd2}");
    }

    #[test]
    fn residual_loss_gradients_pass_gradcheck() {
        // Loss = mse(u_xx) for a 1-input 1-output net: the full Taylor-mode
        // + reverse composition must match finite differences in parameter
        // space.
        let (params, mlp) = tiny_mlp();
        let tensors: Vec<Tensor> = params.tensors().to_vec();
        qpinn_autodiff::gradcheck::assert_gradients(
            move |g, vars| {
                // Wire manually through the tape vars: layers alternate
                // (w, b) in registration order.
                let xc = g.constant(Tensor::column(&[0.2, -0.6, 0.7]));
                let mut h = JetStack::seed(g, xc, 0, 1, 1);
                let n_layers = vars.len() / 2;
                for li in 0..n_layers {
                    h = h.affine(g, vars[2 * li], Some(vars[2 * li + 1]));
                    if li < n_layers - 1 {
                        h = h.tanh(g);
                    }
                }
                let out = h.unstack(g);
                g.mse(out.dd[0])
            },
            &tensors,
            2e-4,
        );
        let _ = mlp;
    }
}
