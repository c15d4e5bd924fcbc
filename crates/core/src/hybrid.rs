//! The hybrid quantum-classical PINN: a [`QuantumLayer`] spliced between
//! the classical trunk and the output layer, trained end-to-end through
//! custom tape primitives whose VJPs come from exact dual-number
//! simulation.
//!
//! The hybrid model is demonstrated on the **variational (Rayleigh
//! quotient) eigenproblem**, which needs only first-order spatial
//! derivatives:
//!
//! `E[ψ] = ( ∫ ½(ψ′)² + Vψ² dx ) / ( ∫ ψ² dx )`
//!
//! so the quantum layer has to provide values and one JVP — both exactly
//! differentiable with the dual/hyper-dual machinery in `qpinn-qcircuit`.

use crate::trainer::PinnTask;
use qpinn_autodiff::{CustomOp, Var};
use qpinn_nn::{Dense, GraphCtx, ParamId, ParamSet};
use qpinn_problems::EigenProblem;
use qpinn_qcircuit::QuantumLayer;
use qpinn_tensor::Tensor;
use rand::rngs::StdRng;
use rayon::prelude::*;

/// Tape primitive: `E[m, nq] = QuantumLayer(A[m, nq]; θ[P])`.
struct QForwardOp {
    layer: QuantumLayer,
}

impl CustomOp for QForwardOp {
    fn name(&self) -> &str {
        "quantum-layer"
    }

    fn backward(
        &self,
        inputs: &[&Tensor],
        _output: &Tensor,
        out_grad: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let a = inputs[0];
        let theta = inputs[1].data();
        let nq = self.layer.n_qubits;
        let m = a.shape().nrows();
        let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..m)
            .into_par_iter()
            .map(|r| {
                let (_, ja, jt) = self.layer.jacobians_sample(a.row(r), theta);
                let gout = out_grad.row(r);
                let ga: Vec<f64> = (0..nq)
                    .map(|j| (0..nq).map(|k| gout[k] * ja[j][k]).sum())
                    .collect();
                let gth: Vec<f64> = (0..theta.len())
                    .map(|p| (0..nq).map(|k| gout[k] * jt[p][k]).sum())
                    .collect();
                (ga, gth)
            })
            .collect();
        let mut grad_a = Tensor::zeros([m, nq]);
        let mut grad_theta = vec![0.0; theta.len()];
        for (r, (ga, gth)) in rows.into_iter().enumerate() {
            grad_a.data_mut()[r * nq..(r + 1) * nq].copy_from_slice(&ga);
            for (acc, v) in grad_theta.iter_mut().zip(gth) {
                *acc += v;
            }
        }
        vec![
            Some(grad_a),
            Some(Tensor::from_vec([theta.len()], grad_theta)),
        ]
    }
}

/// Tape primitive: `Y[m, nq] = J_a(A, θ) · T` row-wise (the quantum layer's
/// input-JVP, used for first-order jets).
struct QJvpOp {
    layer: QuantumLayer,
}

impl CustomOp for QJvpOp {
    fn name(&self) -> &str {
        "quantum-layer-jvp"
    }

    fn backward(
        &self,
        inputs: &[&Tensor],
        _output: &Tensor,
        out_grad: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let a = inputs[0];
        let t = inputs[1];
        let theta = inputs[2].data();
        let nq = self.layer.n_qubits;
        let m = a.shape().nrows();
        let rows: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..m)
            .into_par_iter()
            .map(|r| {
                self.layer
                    .jvp_grads_sample(a.row(r), t.row(r), theta, out_grad.row(r))
            })
            .collect();
        let mut grad_a = Tensor::zeros([m, nq]);
        let mut grad_t = Tensor::zeros([m, nq]);
        let mut grad_theta = vec![0.0; theta.len()];
        for (r, (ga, gt, gth)) in rows.into_iter().enumerate() {
            grad_a.data_mut()[r * nq..(r + 1) * nq].copy_from_slice(&ga);
            grad_t.data_mut()[r * nq..(r + 1) * nq].copy_from_slice(&gt);
            for (acc, v) in grad_theta.iter_mut().zip(gth) {
                *acc += v;
            }
        }
        vec![
            Some(grad_a),
            Some(grad_t),
            Some(Tensor::from_vec([theta.len()], grad_theta)),
        ]
    }
}

/// A first-order jet (value + one spatial derivative), the hybrid model's
/// working representation.
pub struct Jet1 {
    /// Value `[batch, w]`.
    pub v: Var,
    /// `∂/∂x` `[batch, w]`.
    pub dx: Var,
}

/// The hybrid network: `x → dense → tanh → dense(nq) → tanh → PQC →
/// dense(1)`.
pub struct HybridNet {
    l0: Dense,
    l1: Dense,
    qlayer: QuantumLayer,
    theta: ParamId,
    out: Dense,
}

impl HybridNet {
    /// Register all classical and quantum parameters.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        hidden: usize,
        qlayer: QuantumLayer,
        name: &str,
    ) -> Self {
        let nq = qlayer.n_qubits;
        let l0 = Dense::new(params, rng, 1, hidden, &format!("{name}.l0"));
        let l1 = Dense::new(params, rng, hidden, nq, &format!("{name}.l1"));
        let theta = params.add(
            format!("{name}.theta"),
            Tensor::from_slice(&qlayer.init_params(rng)),
        );
        let out = Dense::new(params, rng, nq, 1, &format!("{name}.out"));
        HybridNet {
            l0,
            l1,
            qlayer,
            theta,
            out,
        }
    }

    /// The quantum layer.
    pub fn quantum_layer(&self) -> &QuantumLayer {
        &self.qlayer
    }

    fn dense_jet1(layer: &Dense, ctx: &mut GraphCtx<'_>, x: &Jet1) -> Jet1 {
        let (w, b) = layer.param_ids();
        let wv = ctx.param(w);
        let bv = ctx.param(b);
        let z = ctx.g.matmul(x.v, wv);
        let v = ctx.g.add_bias(z, bv);
        let dx = ctx.g.matmul(x.dx, wv);
        Jet1 { v, dx }
    }

    fn tanh_jet1(ctx: &mut GraphCtx<'_>, x: &Jet1) -> Jet1 {
        let u = ctx.g.tanh(x.v);
        let sp = ctx.g.one_minus_square(u);
        let dx = ctx.g.mul(sp, x.dx);
        Jet1 { v: u, dx }
    }

    /// First-order jet forward pass: `x` is the `[batch, 1]` coordinate
    /// column; returns the scalar field jet `[batch, 1]`.
    pub fn forward_jet1(&self, ctx: &mut GraphCtx<'_>, x: Var) -> Jet1 {
        let ones = ctx.g.constant(Tensor::ones(ctx.g.value(x).shape().clone()));
        let mut h = Jet1 { v: x, dx: ones };
        h = Self::dense_jet1(&self.l0, ctx, &h);
        h = Self::tanh_jet1(ctx, &h);
        h = Self::dense_jet1(&self.l1, ctx, &h);
        h = Self::tanh_jet1(ctx, &h);

        // quantum layer as custom primitives
        let theta = ctx.param(self.theta);
        let a_val = ctx.g.value(h.v).clone();
        let t_val = ctx.g.value(h.dx).clone();
        let theta_val = ctx.g.value(theta).data().to_vec();
        let m = a_val.shape().nrows();
        let e_val = Tensor::from_vec(
            [m, self.qlayer.n_qubits],
            self.qlayer.forward_batch(a_val.data(), m, &theta_val),
        );
        let e = ctx.g.custom(
            Box::new(QForwardOp { layer: self.qlayer }),
            &[h.v, theta],
            e_val,
        );
        let jvp_rows: Vec<Vec<f64>> = (0..m)
            .into_par_iter()
            .map(|r| {
                self.qlayer
                    .jvp_sample(a_val.row(r), t_val.row(r), &theta_val)
                    .1
            })
            .collect();
        let mut jvp_flat = Vec::with_capacity(m * self.qlayer.n_qubits);
        for row in jvp_rows {
            jvp_flat.extend_from_slice(&row);
        }
        let e_dx = ctx.g.custom(
            Box::new(QJvpOp { layer: self.qlayer }),
            &[h.v, h.dx, theta],
            Tensor::from_vec([m, self.qlayer.n_qubits], jvp_flat),
        );
        let hq = Jet1 { v: e, dx: e_dx };
        Self::dense_jet1(&self.out, ctx, &hq)
    }

    /// Evaluate ψ at points (values only).
    pub fn predict(&self, params: &ParamSet, xs: &[f64]) -> Vec<f64> {
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, params);
        let x = ctx.g.constant(Tensor::column(xs));
        let out = self.forward_jet1(&mut ctx, x);
        g.value(out.v).data().to_vec()
    }
}

/// The variational (Rayleigh quotient) eigenproblem task for a
/// [`HybridNet`]. The classical residual formulation is the
/// `qpinn_problems::zoo::eigenstate` adapter trained by
/// [`crate::task::ZooTask`].
pub struct HybridEigenTask {
    problem: EigenProblem,
    net: HybridNet,
    xs: Vec<f64>,
    potential_col: Tensor,
    w_boundary: f64,
    reference_energy: f64,
}

impl HybridEigenTask {
    /// Assemble the task (ground state only).
    pub fn new(
        problem: EigenProblem,
        net: HybridNet,
        n_collocation: usize,
        reference_nx: usize,
    ) -> Self {
        let l = problem.x1 - problem.x0;
        let xs: Vec<f64> = (0..n_collocation)
            .map(|i| problem.x0 + l * (i as f64 + 0.5) / n_collocation as f64)
            .collect();
        let potential_col = Tensor::column(
            &xs.iter()
                .map(|&x| problem.potential.eval(x))
                .collect::<Vec<_>>(),
        );
        let reference_energy = problem.reference(reference_nx)[0].energy;
        HybridEigenTask {
            problem,
            net,
            xs,
            potential_col,
            w_boundary: 10.0,
            reference_energy,
        }
    }

    /// The current Rayleigh-quotient energy estimate.
    pub fn energy(&self, params: &ParamSet) -> f64 {
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, params);
        let e = self.build_rayleigh(&mut ctx);
        g.value(e).item()
    }

    /// Reference (FD) ground-state energy.
    pub fn reference_energy(&self) -> f64 {
        self.reference_energy
    }

    /// The network.
    pub fn net(&self) -> &HybridNet {
        &self.net
    }

    fn build_rayleigh(&self, ctx: &mut GraphCtx<'_>) -> Var {
        let x = ctx.g.constant(Tensor::column(&self.xs));
        let psi = self.net.forward_jet1(ctx, x);
        let vpot = ctx.g.constant(self.potential_col.clone());
        // numerator: ⟨½(ψ′)² + Vψ²⟩
        let dpsi2 = ctx.g.square(psi.dx);
        let half = ctx.g.scale(dpsi2, 0.5);
        let psi2 = ctx.g.square(psi.v);
        let vpsi2 = ctx.g.mul(vpot, psi2);
        let integrand = ctx.g.add(half, vpsi2);
        let num = ctx.g.mean(integrand);
        // denominator: ⟨ψ²⟩ (+ tiny floor to avoid 0/0 at init)
        let den = ctx.g.mean(psi2);
        let den = ctx.g.add_scalar(den, 1e-9);
        ctx.g.div(num, den)
    }
}

impl PinnTask for HybridEigenTask {
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
        let e = self.build_rayleigh(ctx);
        // boundary decay
        let bx = ctx
            .g
            .constant(Tensor::column(&[self.problem.x0, self.problem.x1]));
        let bpsi = {
            let out = self.net.forward_jet1(ctx, bx);
            out.v
        };
        let lbnd = ctx.g.mse(bpsi);
        let lb = ctx.g.scale(lbnd, self.w_boundary);
        ctx.g.add(e, lb)
    }

    fn eval_error(&self, params: &ParamSet) -> f64 {
        (self.energy(params) - self.reference_energy).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_qcircuit::{Ansatz, InputScaling};
    use rand::SeedableRng;

    fn make_net(params: &mut ParamSet, rng: &mut StdRng) -> HybridNet {
        let q = QuantumLayer {
            n_qubits: 3,
            layers: 2,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Acos,
            reupload: false,
        };
        HybridNet::new(params, rng, 12, q, "hyb")
    }

    #[test]
    fn hybrid_jet_derivative_matches_finite_differences() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = make_net(&mut params, &mut rng);
        let x0 = 0.37;
        let h = 1e-5;
        let f = |x: f64| net.predict(&params, &[x])[0];
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let x = ctx.g.constant(Tensor::column(&[x0]));
        let out = net.forward_jet1(&mut ctx, x);
        let dx = g.value(out.dx).item();
        let fd = (f(x0 + h) - f(x0 - h)) / (2.0 * h);
        assert!((dx - fd).abs() < 1e-6, "dψ/dx {dx} vs {fd}");
    }

    #[test]
    fn hybrid_loss_gradients_match_finite_differences() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let net = make_net(&mut params, &mut rng);
        let problem = EigenProblem::harmonic(1.0);
        let mut task = HybridEigenTask::new(problem, net, 16, 201);

        // analytic gradients
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let loss = task.build_loss(&mut ctx);
        let mut grads = ctx.g.backward(loss);
        let analytic = ctx.collect_grads(&mut grads);

        // finite differences over a few entries of every parameter tensor
        let h = 1e-6;
        let eval = |p: &ParamSet, task: &mut HybridEigenTask| -> f64 {
            let mut g = qpinn_autodiff::Graph::new();
            let mut ctx = GraphCtx::new(&mut g, p);
            let loss = task.build_loss(&mut ctx);
            g.value(loss).item()
        };
        for k in 0..params.len() {
            let n = params.tensors()[k].len();
            for e in [0usize, n / 2, n - 1] {
                let mut plus = params.clone();
                plus.tensors_mut()[k].data_mut()[e] += h;
                let mut minus = params.clone();
                minus.tensors_mut()[k].data_mut()[e] -= h;
                let fd = (eval(&plus, &mut task) - eval(&minus, &mut task)) / (2.0 * h);
                let a = analytic[k].data()[e];
                assert!(
                    (a - fd).abs() < 2e-4 * fd.abs().max(1.0),
                    "param {k} elem {e}: analytic {a} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn rayleigh_energy_is_above_ground_state() {
        // The Rayleigh quotient upper-bounds the true ground energy for any
        // trial state.
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let net = make_net(&mut params, &mut rng);
        let problem = EigenProblem::harmonic(1.0);
        let task = HybridEigenTask::new(problem, net, 64, 201);
        let e = task.energy(&params);
        assert!(e > 0.45, "Rayleigh quotient {e} below ground state");
    }
}
