//! The PINN field network: coordinate embeddings, optional random Fourier
//! features, and a jet-propagating MLP trunk.
//!
//! The whole network runs on [`JetStack`]s: one tape node per layer
//! carries the value, every first coordinate derivative and the second
//! derivatives a caller asks for, stacked by rows, and the output stack is
//! cut into a per-slot [`Jet`] only at the end, for the residual builders.
//! Inference ([`FieldNet::predict_batch`]) runs the same kernels on plain
//! tensors, off the tape.

use qpinn_autodiff::jet::{Jet, JetStack};
use qpinn_autodiff::Var;
use qpinn_nn::{
    Activation, GraphCtx, Mlp, MlpConfig, ParamSet, PeriodicEmbedding, RandomFourierFeatures,
};
use qpinn_tensor::{pool, Tensor};
use rand::rngs::StdRng;

/// How one input coordinate is embedded.
#[derive(Clone, Copy, Debug)]
pub enum CoordSpec {
    /// Fed through unchanged.
    Raw,
    /// Exact periodicity with fixed period (spatial coordinates).
    Periodic {
        /// Domain length.
        length: f64,
    },
    /// Sin/cos features with a trainable period (time coordinate).
    LearnedPeriod {
        /// Initial period.
        period0: f64,
    },
}

impl CoordSpec {
    fn feature_width(&self) -> usize {
        match self {
            CoordSpec::Raw => 1,
            CoordSpec::Periodic { .. } | CoordSpec::LearnedPeriod { .. } => 2,
        }
    }
}

/// Random-Fourier-feature settings.
#[derive(Clone, Copy, Debug)]
pub struct RffSpec {
    /// Number of frequencies (output width is `2·n_features`).
    pub n_features: usize,
    /// Frequency scale σ.
    pub sigma: f64,
}

/// Architecture of a [`FieldNet`].
#[derive(Clone, Debug)]
pub struct FieldNetConfig {
    /// One spec per input coordinate, in order.
    pub coords: Vec<CoordSpec>,
    /// Optional RFF layer after the coordinate embeddings.
    pub rff: Option<RffSpec>,
    /// Hidden widths of the MLP trunk.
    pub hidden: Vec<usize>,
    /// Number of output fields (2 for a complex wavefunction `u + iv`).
    pub n_fields: usize,
    /// Hidden activation.
    pub activation: Activation,
}

impl FieldNetConfig {
    /// The standard TDSE/NLS architecture: periodic `x`, learned-period
    /// `t`, RFF, tanh trunk.
    pub fn standard_wave(length: f64, t_end: f64, width: usize, depth: usize) -> Self {
        FieldNetConfig {
            coords: vec![
                CoordSpec::Periodic { length },
                CoordSpec::LearnedPeriod {
                    period0: 4.0 * t_end,
                },
            ],
            rff: Some(RffSpec {
                n_features: 64,
                sigma: 1.0,
            }),
            hidden: vec![width; depth],
            n_fields: 2,
            activation: Activation::Tanh,
        }
    }

    /// A plain architecture (raw coordinates, no RFF) for ablations.
    pub fn plain(n_coords: usize, width: usize, depth: usize, n_fields: usize) -> Self {
        FieldNetConfig {
            coords: vec![CoordSpec::Raw; n_coords],
            rff: None,
            hidden: vec![width; depth],
            n_fields,
            activation: Activation::Tanh,
        }
    }
}

#[derive(Clone)]
enum Embed {
    Raw,
    Periodic(PeriodicEmbedding),
    Learned(qpinn_nn::periodic::LearnedPeriodEmbedding),
}

/// A PINN predicting `n_fields` real fields from continuous coordinates,
/// with exact first/second coordinate derivatives via jet propagation.
#[derive(Clone)]
pub struct FieldNet {
    embeds: Vec<Embed>,
    rff: Option<RandomFourierFeatures>,
    mlp: Mlp,
    n_fields: usize,
}

impl FieldNet {
    /// Register all parameters in `params` and fix the RFF projection.
    pub fn new(params: &mut ParamSet, rng: &mut StdRng, cfg: &FieldNetConfig, name: &str) -> Self {
        let embeds: Vec<Embed> = cfg
            .coords
            .iter()
            .enumerate()
            .map(|(i, c)| match c {
                CoordSpec::Raw => Embed::Raw,
                CoordSpec::Periodic { length } => Embed::Periodic(PeriodicEmbedding::new(*length)),
                CoordSpec::LearnedPeriod { period0 } => {
                    Embed::Learned(qpinn_nn::periodic::LearnedPeriodEmbedding::new(
                        params,
                        *period0,
                        &format!("{name}.coord{i}"),
                    ))
                }
            })
            .collect();
        let embed_width: usize = cfg.coords.iter().map(CoordSpec::feature_width).sum();
        let (rff, trunk_in) = match cfg.rff {
            Some(spec) => {
                let rff = RandomFourierFeatures::new(embed_width, spec.n_features, spec.sigma, rng);
                let w = rff.output_dim();
                (Some(rff), w)
            }
            None => (None, embed_width),
        };
        let mlp = Mlp::new(
            params,
            rng,
            &MlpConfig {
                input_dim: trunk_in,
                hidden: cfg.hidden.clone(),
                output_dim: cfg.n_fields,
                activation: cfg.activation,
            },
            name,
        );
        FieldNet {
            embeds,
            rff,
            mlp,
            n_fields: cfg.n_fields,
        }
    }

    /// Number of output fields.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    /// Number of input coordinates.
    pub fn n_coords(&self) -> usize {
        self.embeds.len()
    }

    /// The network over coordinate stacks tracking `k` coordinates (0 for
    /// values only) and the second derivatives of the first `k2`: seeds,
    /// embeddings, RFF and trunk.
    fn forward_stack(
        &self,
        ctx: &mut GraphCtx<'_>,
        columns: &[Var],
        k: usize,
        k2: usize,
    ) -> JetStack {
        assert_eq!(columns.len(), self.embeds.len(), "coordinate arity");
        let seeds: Vec<JetStack> = columns
            .iter()
            .enumerate()
            .map(|(i, &c)| JetStack::seed(ctx.g, c, i, k, k2))
            .collect();
        let parts: Vec<JetStack> = self
            .embeds
            .iter()
            .zip(seeds)
            .map(|(e, s)| match e {
                Embed::Raw => s,
                Embed::Periodic(p) => p.forward_stack(ctx, s),
                Embed::Learned(l) => l.forward_stack(ctx, s),
            })
            .collect();
        let features = JetStack::hstack(ctx.g, &parts);
        let x = match &self.rff {
            Some(rff) => rff.forward_stack(ctx, features),
            None => features,
        };
        self.mlp.forward_stack(ctx, x)
    }

    /// Full jet forward pass: `columns[i]` is the `[batch, 1]` tensor of
    /// coordinate `i`; returns the `[batch, n_fields]` output jet tracking
    /// first and second derivatives with respect to every coordinate,
    /// one node per slot cut from the output stack.
    pub fn forward_jet(&self, ctx: &mut GraphCtx<'_>, columns: &[Var]) -> Jet {
        self.forward_jet_demand(ctx, columns, columns.len())
    }

    /// [`FieldNet::forward_jet`] with second derivatives for the first
    /// `n_second` coordinates only: the jet a residual that reads no other
    /// `∂²` demands (see `PdeProblem::second_derivatives`). Its slots
    /// carry the bits of the full jet's, and a loss that reads only them
    /// gets the same parameter gradients, at `1 + k + n_second` row blocks
    /// per layer instead of `1 + 2k`.
    pub fn forward_jet_demand(
        &self,
        ctx: &mut GraphCtx<'_>,
        columns: &[Var],
        n_second: usize,
    ) -> Jet {
        self.forward_stack(ctx, columns, columns.len(), n_second)
            .unstack(ctx.g)
    }

    /// Value-only forward pass (no derivative tracking) on the tape — for
    /// loss terms that need field values and their parameter gradients.
    /// It runs the same stacked ops on stacks with no derivative blocks.
    pub fn forward_values(&self, ctx: &mut GraphCtx<'_>, columns: &[Var]) -> Var {
        self.forward_stack(ctx, columns, 0, 0).stack
    }

    /// Evaluate the fields at a list of points (no gradients, no tape; see
    /// [`FieldNet::predict_batch`]). `points[i]` is one coordinate tuple;
    /// returns the `[n_points, n_fields]` prediction tensor.
    pub fn predict(&self, params: &ParamSet, points: &[Vec<f64>]) -> Tensor {
        let k = self.n_coords();
        let mut flat = Vec::with_capacity(points.len() * k);
        for p in points {
            assert_eq!(p.len(), k, "coordinate arity");
            flat.extend_from_slice(p);
        }
        self.predict_batch(params, &flat)
    }

    /// The batched-evaluation entry point: evaluate the fields at
    /// `coords.len() / n_coords` points given row-major flattened
    /// coordinates (`[x0, t0, x1, t1, …]` for a 2-coordinate net).
    ///
    /// This is the path the `qpinn-serve` batching engine dispatches
    /// coalesced requests through. It records no tape: one column per
    /// coordinate runs through every layer's `forward_value`, the
    /// zero-coordinate kernels of [`FieldNet::forward_values`] with the
    /// parameters read by reference, and each layer's input goes back to
    /// the buffer pool once its output exists. The result is bit-identical
    /// to the taped forward (asserted by `tests/jet_stack_bitwise.rs`).
    /// Every output row depends only on its own input row with a
    /// fixed-order dot product, so row `i` of a coalesced batch is
    /// bit-identical to evaluating point `i` alone — the invariant that
    /// makes request batching transparent (asserted by
    /// `tests/serve_e2e.rs`).
    pub fn predict_batch(&self, params: &ParamSet, coords: &[f64]) -> Tensor {
        let k = self.n_coords();
        assert!(
            k > 0 && coords.len() % k == 0,
            "flattened coords length {} is not a multiple of arity {k}",
            coords.len()
        );
        let n = coords.len() / k;
        let mut parts: Vec<Tensor> = self
            .embeds
            .iter()
            .enumerate()
            .map(|(c, e)| {
                // A pooled column: a fresh buffer would join the free list
                // when the first layer recycles it, and a caller that never
                // releases the pool would accumulate one per call.
                let mut col = Tensor::zeros([n, 1]);
                for (x, point) in col.data_mut().iter_mut().zip(coords.chunks_exact(k)) {
                    *x = point[c];
                }
                match e {
                    Embed::Raw => col,
                    Embed::Periodic(p) => p.forward_value(col),
                    Embed::Learned(l) => l.forward_value(params, col),
                }
            })
            .collect();
        let features = if parts.len() == 1 {
            parts.remove(0)
        } else {
            let h = Tensor::hstack(&parts.iter().collect::<Vec<_>>());
            parts.into_iter().for_each(pool::recycle);
            h
        };
        let x = match &self.rff {
            Some(rff) => rff.forward_value(features),
            None => features,
        };
        self.mlp.forward_value(params, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_autodiff::Graph;
    use rand::SeedableRng;

    fn net(cfg: &FieldNetConfig) -> (ParamSet, FieldNet) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let n = FieldNet::new(&mut params, &mut rng, cfg, "net");
        (params, n)
    }

    #[test]
    fn standard_wave_shapes() {
        let cfg = FieldNetConfig::standard_wave(10.0, 1.0, 32, 2);
        let (params, model) = net(&cfg);
        let pts = vec![vec![0.1, 0.2], vec![-3.0, 0.9], vec![4.0, 0.0]];
        let out = model.predict(&params, &pts);
        assert_eq!(out.shape().dims(), &[3, 2]);
        assert!(out.all_finite());
    }

    #[test]
    fn spatial_periodicity_is_exact() {
        let l = 10.0;
        let cfg = FieldNetConfig::standard_wave(l, 1.0, 16, 2);
        let (params, model) = net(&cfg);
        let a = model.predict(&params, &[vec![1.3, 0.4]]);
        let b = model.predict(&params, &[vec![1.3 + l, 0.4]]);
        let c = model.predict(&params, &[vec![1.3 - 2.0 * l, 0.4]]);
        assert!(a.approx_eq(&b, 1e-12));
        assert!(a.approx_eq(&c, 1e-12));
    }

    #[test]
    fn jet_value_agrees_with_predict() {
        let cfg = FieldNetConfig::standard_wave(4.0, 1.0, 16, 2);
        let (params, model) = net(&cfg);
        let pts = vec![vec![0.5, 0.3], vec![-1.0, 0.8]];
        let direct = model.predict(&params, &pts);
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xcol = ctx.g.constant(Tensor::column(&[0.5, -1.0]));
        let tcol = ctx.g.constant(Tensor::column(&[0.3, 0.8]));
        let out = model.forward_jet(&mut ctx, &[xcol, tcol]);
        assert!(g.value(out.v).approx_eq(&direct, 1e-12));
    }

    #[test]
    fn jet_derivatives_match_finite_differences() {
        let cfg = FieldNetConfig::standard_wave(6.0, 1.0, 16, 2);
        let (params, model) = net(&cfg);
        let (x0, t0) = (0.7, 0.4);
        let h = 1e-4;
        let f = |x: f64, t: f64, field: usize| -> f64 {
            model.predict(&params, &[vec![x, t]]).get(&[0, field])
        };
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let xc = ctx.g.constant(Tensor::column(&[x0]));
        let tc = ctx.g.constant(Tensor::column(&[t0]));
        let out = model.forward_jet(&mut ctx, &[xc, tc]);
        for field in 0..2 {
            let ux = g.value(out.d[0]).get(&[0, field]);
            let ut = g.value(out.d[1]).get(&[0, field]);
            let uxx = g.value(out.dd[0]).get(&[0, field]);
            let fdx = (f(x0 + h, t0, field) - f(x0 - h, t0, field)) / (2.0 * h);
            let fdt = (f(x0, t0 + h, field) - f(x0, t0 - h, field)) / (2.0 * h);
            let fdxx =
                (f(x0 + h, t0, field) - 2.0 * f(x0, t0, field) + f(x0 - h, t0, field)) / (h * h);
            assert!((ux - fdx).abs() < 1e-5, "u_x field {field}: {ux} vs {fdx}");
            assert!((ut - fdt).abs() < 1e-5, "u_t field {field}: {ut} vs {fdt}");
            assert!(
                (uxx - fdxx).abs() < 1e-3 * fdxx.abs().max(1.0),
                "u_xx field {field}: {uxx} vs {fdxx}"
            );
        }
    }

    #[test]
    fn predict_batch_rows_are_independent_of_batch_composition() {
        // The batching-transparency invariant qpinn-serve relies on:
        // evaluating a point inside a large mixed batch must produce the
        // same f64 bits as evaluating it alone.
        let cfg = FieldNetConfig::standard_wave(8.0, 1.0, 24, 2);
        let (params, model) = net(&cfg);
        let pts: Vec<Vec<f64>> = (0..37)
            .map(|i| vec![-4.0 + 8.0 * i as f64 / 36.0, i as f64 / 36.0])
            .collect();
        let batched = model.predict(&params, &pts);
        for (i, p) in pts.iter().enumerate() {
            let solo = model.predict(&params, std::slice::from_ref(p));
            for f in 0..2 {
                assert_eq!(
                    batched.get(&[i, f]).to_bits(),
                    solo.get(&[0, f]).to_bits(),
                    "row {i} field {f} changed bits inside a batch"
                );
            }
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let cfg = FieldNetConfig::plain(2, 16, 2, 2);
        let (params, model) = net(&cfg);
        let pts = vec![vec![0.1, 0.2], vec![-0.3, 0.9]];
        let flat = [0.1, 0.2, -0.3, 0.9];
        let a = model.predict(&params, &pts);
        let b = model.predict_batch(&params, &flat);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn plain_config_has_fewer_params_than_rff() {
        let plain = net(&FieldNetConfig::plain(2, 32, 2, 2)).0.n_scalars();
        let rff = net(&FieldNetConfig::standard_wave(4.0, 1.0, 32, 2))
            .0
            .n_scalars();
        assert!(rff > plain);
    }
}
