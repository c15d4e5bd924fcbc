//! Loss terms: PDE residual MSE (optionally causally weighted),
//! initial/boundary-condition fit, and the global
//! **norm-conservation** penalty that plays the role the energy-
//! conservation regularizer plays in conservative-PDE PINNs: in a closed,
//! lossless quantum system `∫|ψ|²dx` must stay exactly 1, and penalizing
//! its drift suppresses the spurious global amplitude decay failure mode.
//! The same lattice carries the orthogonality penalty that deflates an
//! excited state against the states below it.

use crate::model::FieldNet;
use qpinn_autodiff::{Graph, Var};
use qpinn_nn::GraphCtx;
use qpinn_tensor::Tensor;

/// MSE of a residual column, optionally with constant per-point weights.
pub fn residual_mse(g: &mut Graph, r: Var, weights: Option<Var>) -> Var {
    match weights {
        Some(w) => g.weighted_mse(r, w),
        None => g.mse(r),
    }
}

/// Initial-condition loss at `t = 0` points: the predicted `(u, v)` must
/// match the target tensor (shape `[n, 2]`).
pub fn ic_loss(ctx: &mut GraphCtx<'_>, net: &FieldNet, columns: &[Var], target: &Tensor) -> Var {
    let pred = net.forward_values(ctx, columns);
    let tgt = ctx.g.constant(target.clone());
    let diff = ctx.g.sub(pred, tgt);
    ctx.g.mse(diff)
}

/// Norm-conservation loss on a lattice of time slices × `per_slice`
/// spatial points (rows ordered time-major, i.e. all points of slice 0,
/// then slice 1, …; a stationary problem has one slice), from the field
/// columns predicted at the rows:
///
/// `L = mean_k ( measure·⟨Σ_c f_c²⟩(t_k) − N₀ )²`
///
/// where `N₀` is the exact norm and `measure` the spatial domain's size.
/// Field values only — no extra derivative cost.
pub fn norm_conservation_loss(
    g: &mut Graph,
    fields: &[Var],
    per_slice: usize,
    measure: f64,
    target_norm: f64,
) -> Var {
    let squares: Vec<Var> = fields.iter().map(|&f| g.square(f)).collect();
    let dens = sum_columns(g, &squares);
    let norm = slice_integrals(g, dens, per_slice, measure);
    let drift = g.add_scalar(norm, -target_norm);
    g.mse(drift)
}

/// Orthogonality loss on the same lattice: the squared overlap
/// `mean_k ( measure·⟨Σ_c f_c·φ_c⟩(t_k) )²` of the fields with a state φ
/// given by its columns at the rows.
pub fn overlap_loss(
    g: &mut Graph,
    fields: &[Var],
    state: &[Var],
    per_slice: usize,
    measure: f64,
) -> Var {
    let products: Vec<Var> = fields.iter().zip(state).map(|(&f, &s)| g.mul(f, s)).collect();
    let rows = sum_columns(g, &products);
    let overlap = slice_integrals(g, rows, per_slice, measure);
    g.mse(overlap)
}

fn sum_columns(g: &mut Graph, cols: &[Var]) -> Var {
    cols[1..].iter().fold(cols[0], |acc, &c| g.add(acc, c))
}

/// `measure·⟨rows⟩` over each consecutive group of `per_slice` rows.
fn slice_integrals(g: &mut Graph, rows: Var, per_slice: usize, measure: f64) -> Var {
    let means = g.mean_groups(rows, per_slice);
    g.scale(means, measure)
}

/// Weighted total loss: `Σ wᵢ·termᵢ`.
pub fn total_loss(g: &mut Graph, terms: &[(f64, Var)]) -> Var {
    g.lincomb(terms)
}

/// Read each *unweighted* named loss term's value into `out` (replacing
/// its contents, for the task's [`crate::trainer::PinnTask::loss_terms`])
/// and mirror it into a `train.loss.<name>` gauge, so `/metrics` and
/// final snapshots expose the loss decomposition (pde vs ic vs
/// conservation …), not just the weighted total the trainer logs.
/// Forward values are already computed during graph construction, so
/// this reads existing numbers — no extra passes.
pub fn publish_components(
    g: &Graph,
    terms: &[(&'static str, Var)],
    out: &mut Vec<(&'static str, f64)>,
) {
    out.clear();
    for &(name, v) in terms {
        let value = g.value(v).item();
        qpinn_telemetry::gauge(&format!("train.loss.{name}")).set(value);
        out.push((name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FieldNet, FieldNetConfig};
    use qpinn_nn::ParamSet;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_net() -> (ParamSet, FieldNet) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = FieldNetConfig::plain(2, 8, 1, 2);
        let net = FieldNet::new(&mut params, &mut rng, &cfg, "net");
        (params, net)
    }

    #[test]
    fn ic_loss_is_zero_for_perfect_prediction() {
        let (params, net) = toy_net();
        let pts = vec![vec![0.1, 0.0], vec![0.5, 0.0]];
        let target = net.predict(&params, &pts);
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[0.1, 0.5]));
        let t = ctx.g.constant(Tensor::column(&[0.0, 0.0]));
        let l = ic_loss(&mut ctx, &net, &[x, t], &target);
        assert!(g.value(l).item() < 1e-28);
    }

    #[test]
    fn ic_loss_positive_for_mismatch() {
        let (params, net) = toy_net();
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[0.1, 0.5]));
        let t = ctx.g.constant(Tensor::column(&[0.0, 0.0]));
        let target = Tensor::full([2, 2], 10.0);
        let l = ic_loss(&mut ctx, &net, &[x, t], &target);
        assert!(g.value(l).item() > 50.0);
    }

    #[test]
    fn conservation_loss_detects_drift() {
        // Hand-build a "network" situation via the real net, then verify
        // the loss formula on known values: two time slices with constant
        // densities 1/L and 2/L should give mean((1−1)², (2−1)²)/… = 0.5.
        // We verify the grouping arithmetic directly on the tape ops used
        // by the loss instead (the net itself is a black box).
        let mut g = Graph::new();
        let dens = g.constant(Tensor::column(&[0.5, 0.5, 1.0, 1.0])); // u²+v²
        let per_slice = g.mean_groups(dens, 2);
        let norm = g.scale(per_slice, 2.0); // L = 2 → norms [1, 2]
        let drift = g.add_scalar(norm, -1.0);
        let l = g.mse(drift);
        assert!((g.value(l).item() - 0.5).abs() < 1e-14);
    }

    #[test]
    fn conservation_loss_runs_through_network() {
        let (params, net) = toy_net();
        let (nt, nx) = (3, 4);
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        for k in 0..nt {
            for i in 0..nx {
                ts.push(k as f64 * 0.1);
                xs.push(-1.0 + 2.0 * i as f64 / nx as f64);
            }
        }
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&xs));
        let t = ctx.g.constant(Tensor::column(&ts));
        let pred = net.forward_values(&mut ctx, &[x, t]);
        let fields = [ctx.g.col(pred, 0), ctx.g.col(pred, 1)];
        let l = norm_conservation_loss(ctx.g, &fields, nx, 2.0, 1.0);
        let val = ctx.g.value(l).item();
        assert!(val.is_finite() && val >= 0.0);
        // gradient flows to parameters
        let mut grads = ctx.g.backward(l);
        let collected = ctx.collect_grads(&mut grads);
        assert!(collected.iter().any(|t| t.max_abs() > 0.0));
    }

    #[test]
    fn total_loss_weights_terms() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar(2.0));
        let b = g.constant(Tensor::scalar(3.0));
        let l = total_loss(&mut g, &[(1.0, a), (10.0, b)]);
        assert!((g.value(l).item() - 32.0).abs() < 1e-14);
    }
}
