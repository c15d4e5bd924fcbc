//! The batched quantum layer: angle embedding → ansatz → per-qubit Pauli-Z
//! readout, with exact dual-number derivatives packaged for the autodiff
//! tape (the `CustomOp` glue lives in `qpinn-core`).
//!
//! Every derivative below is exact — computed by instantiating the *same*
//! simulation code with [`Dual64`] or [`HyperDual64`] scalars. The input
//! scaling `θ_j = σ(a_j)` is folded into the seeds analytically via
//! [`InputScaling::dangle`]/[`InputScaling::ddangle`].

use crate::ansatz::Ansatz;
use crate::encoding::{angle_embed, InputScaling};
use crate::state::State;
use qpinn_dual::{Dual, Dual64, HyperDual64, Scalar};
use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;

/// Configuration of a quantum layer with `n_qubits` inputs/outputs.
#[derive(Clone, Copy, Debug)]
pub struct QuantumLayer {
    /// Number of qubits (= input width = output width).
    pub n_qubits: usize,
    /// Ansatz repetitions.
    pub layers: usize,
    /// Variational template.
    pub ansatz: Ansatz,
    /// Input-angle scaling.
    pub scaling: InputScaling,
    /// Data re-uploading (Pérez-Salinas et al. 2020): re-apply the angle
    /// embedding before every ansatz layer instead of only once, which
    /// enriches the Fourier spectrum the circuit can express.
    pub reupload: bool,
}

impl QuantumLayer {
    /// Number of trainable circuit parameters.
    pub fn n_params(&self) -> usize {
        self.ansatz.n_params(self.n_qubits, self.layers)
    }

    /// Random initialization `U(0, 2π)` (the standard choice).
    pub fn init_params(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.n_params())
            .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
            .collect()
    }

    /// Run the circuit for generic scalars: `angles` are the (already
    /// scaled) embedding angles, `theta` the circuit parameters.
    fn run<S: Scalar>(&self, angles: &[S], theta: &[S]) -> Vec<S> {
        debug_assert_eq!(angles.len(), self.n_qubits);
        let mut state: State<S> = angle_embed(angles);
        if self.reupload {
            // embedding → layer → embedding → layer → … with the repeated
            // RX embedding fused into each layer's leading rotations (one
            // gate sweep per qubit instead of two).
            let per = self.ansatz.params_per_layer(self.n_qubits);
            let embed: Vec<_> = angles.iter().map(|&a| crate::gates::rx(a)).collect();
            for layer in 0..self.layers {
                let slice = &theta[layer * per..(layer + 1) * per];
                if layer > 0 {
                    self.ansatz
                        .apply_layer_fused(&mut state, layer, slice, &embed);
                } else {
                    self.ansatz.apply_layer(&mut state, layer, slice);
                }
            }
        } else {
            self.ansatz.apply(&mut state, self.layers, theta);
        }
        state.all_expectations_z()
    }

    /// Expectation outputs for one sample of raw activations `a ∈ [−1,1]`.
    pub fn forward_sample(&self, a: &[f64], theta: &[f64]) -> Vec<f64> {
        let angles: Vec<f64> = a.iter().map(|&x| self.scaling.angle(x)).collect();
        self.run(&angles, theta)
    }

    /// Batched forward pass over `batch` rows stored flat
    /// (`inputs[r·n_qubits + j]`), parallelized over rows.
    pub fn forward_batch(&self, inputs: &[f64], batch: usize, theta: &[f64]) -> Vec<f64> {
        assert_eq!(inputs.len(), batch * self.n_qubits, "flat input length");
        let nq = self.n_qubits;
        let mut out = vec![0.0; batch * nq];
        out.par_chunks_mut(nq)
            .zip(inputs.par_chunks(nq))
            .for_each(|(o, row)| {
                o.copy_from_slice(&self.forward_sample(row, theta));
            });
        out
    }

    /// Outputs plus full Jacobians for one sample:
    /// returns `(e, de/da, de/dθ)` with `de/da[j][k] = ∂e_k/∂a_j` and
    /// `de/dθ[p][k] = ∂e_k/∂θ_p`. Cost: `n_qubits + n_params` dual runs.
    #[allow(clippy::type_complexity)]
    pub fn jacobians_sample(
        &self,
        a: &[f64],
        theta: &[f64],
    ) -> (Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let nq = self.n_qubits;
        let base_angles: Vec<f64> = a.iter().map(|&x| self.scaling.angle(x)).collect();

        // The input-Jacobian block and the parameter-Jacobian block are
        // independent dual-number sweeps; fork them across the pool.
        let ((e, ja), jt) = rayon::join(
            || {
                let theta_c: Vec<Dual64> = theta.iter().map(|&t| Dual::constant(t)).collect();
                let mut ja: Vec<Vec<f64>> = Vec::with_capacity(nq);
                let mut e = Vec::new();
                for (j, &aj) in a[..nq].iter().enumerate() {
                    let angles: Vec<Dual64> = base_angles
                        .iter()
                        .enumerate()
                        .map(|(i, &ang)| {
                            if i == j {
                                // seed dθ/da through the scaling chain rule
                                Dual::new(ang, self.scaling.dangle(aj))
                            } else {
                                Dual::constant(ang)
                            }
                        })
                        .collect();
                    let out = self.run(&angles, &theta_c);
                    if j == 0 {
                        e = out.iter().map(|d| d.re).collect();
                    }
                    ja.push(out.iter().map(|d| d.eps).collect());
                }
                (e, ja)
            },
            || {
                let angles_c: Vec<Dual64> =
                    base_angles.iter().map(|&x| Dual::constant(x)).collect();
                let mut jt: Vec<Vec<f64>> = Vec::with_capacity(theta.len());
                for p in 0..theta.len() {
                    let th: Vec<Dual64> = theta
                        .iter()
                        .enumerate()
                        .map(|(q, &t)| if q == p { Dual64::var(t) } else { Dual::constant(t) })
                        .collect();
                    let out = self.run(&angles_c, &th);
                    jt.push(out.iter().map(|d| d.eps).collect());
                }
                jt
            },
        );
        (e, ja, jt)
    }

    /// Directional derivative (JVP) through the inputs for one sample:
    /// `(e, J_a·t)` where `t` is a tangent on the raw activations. One dual
    /// run.
    pub fn jvp_sample(&self, a: &[f64], tangent: &[f64], theta: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(tangent.len(), self.n_qubits);
        let angles: Vec<Dual64> = a
            .iter()
            .zip(tangent)
            .map(|(&x, &t)| Dual::new(self.scaling.angle(x), self.scaling.dangle(x) * t))
            .collect();
        let theta_c: Vec<Dual64> = theta.iter().map(|&t| Dual::constant(t)).collect();
        let out = self.run(&angles, &theta_c);
        (
            out.iter().map(|d| d.re).collect(),
            out.iter().map(|d| d.eps).collect(),
        )
    }

    /// Gradients of a cotangent-contracted JVP, for the tape backward of
    /// the jet quantity `y = J_a(a, θ)·t`:
    ///
    /// given `cot` with `s = Σ_k cot_k y_k`, returns
    /// `(∂s/∂a, ∂s/∂t, ∂s/∂θ)`. Uses hyper-dual runs: `n_qubits` for
    /// `∂s/∂a`, `n_qubits` dual runs for `∂s/∂t`, `n_params` hyper-dual
    /// runs for `∂s/∂θ`.
    #[allow(clippy::type_complexity)]
    pub fn jvp_grads_sample(
        &self,
        a: &[f64],
        tangent: &[f64],
        theta: &[f64],
        cot: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let nq = self.n_qubits;
        let base: Vec<f64> = a.iter().map(|&x| self.scaling.angle(x)).collect();
        let d1: Vec<f64> = a.iter().map(|&x| self.scaling.dangle(x)).collect();
        let d2: Vec<f64> = a.iter().map(|&x| self.scaling.ddangle(x)).collect();

        // ∂s/∂t_j = Σ_k cot_k (J_a)_{jk}: plain Jacobian rows.
        let theta_c1: Vec<Dual64> = theta.iter().map(|&t| Dual::constant(t)).collect();
        let mut grad_t = vec![0.0; nq];
        for (j, gt) in grad_t.iter_mut().enumerate() {
            let angles: Vec<Dual64> = base
                .iter()
                .enumerate()
                .map(|(i, &ang)| {
                    if i == j {
                        Dual::new(ang, d1[j])
                    } else {
                        Dual::constant(ang)
                    }
                })
                .collect();
            let out = self.run(&angles, &theta_c1);
            *gt = out.iter().zip(cot).map(|(d, c)| d.eps * c).sum();
        }

        // ∂s/∂a_i: hyper-dual with outer seed = tangent direction (through
        // the scaling 2-jet) and inner seed = e_i.
        let theta_c2: Vec<HyperDual64> = theta
            .iter()
            .map(|&t| <HyperDual64 as Scalar>::from_f64(t))
            .collect();
        let mut grad_a = vec![0.0; nq];
        for (i, ga) in grad_a.iter_mut().enumerate() {
            let angles: Vec<HyperDual64> = (0..nq)
                .map(|j| {
                    // θ_j(a + α t + β e_i) to second order:
                    // value σ(a_j); ∂α = σ'·t_j; ∂β = σ'·δ_ij;
                    // ∂α∂β = σ''·t_j·δ_ij.
                    let dd = if i == j { d2[j] * tangent[j] } else { 0.0 };
                    Dual {
                        re: Dual {
                            re: base[j],
                            eps: if i == j { d1[j] } else { 0.0 },
                        },
                        eps: Dual {
                            re: d1[j] * tangent[j],
                            eps: dd,
                        },
                    }
                })
                .collect();
            let out = self.run(&angles, &theta_c2);
            *ga = out.iter().zip(cot).map(|(h, c)| h.dd() * c).sum();
        }

        // ∂s/∂θ_p: outer seed = tangent over inputs, inner seed = e_p over
        // parameters.
        let mut grad_theta = vec![0.0; theta.len()];
        let angles_t: Vec<HyperDual64> = (0..nq)
            .map(|j| Dual {
                re: Dual {
                    re: base[j],
                    eps: 0.0,
                },
                eps: Dual {
                    re: d1[j] * tangent[j],
                    eps: 0.0,
                },
            })
            .collect();
        for (p, gt) in grad_theta.iter_mut().enumerate() {
            let th: Vec<HyperDual64> = theta
                .iter()
                .enumerate()
                .map(|(q, &t)| Dual {
                    re: Dual {
                        re: t,
                        eps: if q == p { 1.0 } else { 0.0 },
                    },
                    eps: Dual { re: 0.0, eps: 0.0 },
                })
                .collect();
            let out = self.run(&angles_t, &th);
            *gt = out.iter().zip(cot).map(|(h, c)| h.dd() * c).sum();
        }
        (grad_a, grad_t, grad_theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer() -> QuantumLayer {
        QuantumLayer {
            n_qubits: 3,
            layers: 2,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Acos,
            reupload: false,
        }
    }

    fn fd_eps() -> f64 {
        1e-6
    }

    #[test]
    fn forward_outputs_are_bounded_expectations() {
        let l = layer();
        let mut rng = StdRng::seed_from_u64(0);
        let theta = l.init_params(&mut rng);
        let e = l.forward_sample(&[0.2, -0.6, 0.9], &theta);
        assert_eq!(e.len(), 3);
        assert!(e.iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn batch_matches_per_sample() {
        let l = layer();
        let mut rng = StdRng::seed_from_u64(1);
        let theta = l.init_params(&mut rng);
        let rows = [[0.1, 0.2, 0.3], [-0.5, 0.7, 0.0], [0.9, -0.9, 0.4]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let out = l.forward_batch(&flat, 3, &theta);
        for (r, row) in rows.iter().enumerate() {
            let single = l.forward_sample(row, &theta);
            for k in 0..3 {
                assert!((out[r * 3 + k] - single[k]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn jacobians_match_finite_differences() {
        let l = layer();
        let mut rng = StdRng::seed_from_u64(2);
        let theta = l.init_params(&mut rng);
        let a = [0.3, -0.4, 0.6];
        let (e, ja, jt) = l.jacobians_sample(&a, &theta);
        let h = fd_eps();
        for j in 0..3 {
            let mut ap = a;
            ap[j] += h;
            let mut am = a;
            am[j] -= h;
            let fp = l.forward_sample(&ap, &theta);
            let fm = l.forward_sample(&am, &theta);
            for k in 0..3 {
                let fd = (fp[k] - fm[k]) / (2.0 * h);
                assert!(
                    (ja[j][k] - fd).abs() < 1e-6,
                    "input ({j},{k}): {} vs {fd}",
                    ja[j][k]
                );
            }
        }
        for p in [0usize, 5, theta.len() - 1] {
            let mut tp = theta.clone();
            tp[p] += h;
            let mut tm = theta.clone();
            tm[p] -= h;
            let fp = l.forward_sample(&a, &tp);
            let fm = l.forward_sample(&a, &tm);
            for k in 0..3 {
                let fd = (fp[k] - fm[k]) / (2.0 * h);
                assert!(
                    (jt[p][k] - fd).abs() < 1e-6,
                    "param ({p},{k}): {} vs {fd}",
                    jt[p][k]
                );
            }
        }
        let base = l.forward_sample(&a, &theta);
        for k in 0..3 {
            assert!((e[k] - base[k]).abs() < 1e-14);
        }
    }

    #[test]
    fn jvp_is_jacobian_contraction() {
        let l = layer();
        let mut rng = StdRng::seed_from_u64(3);
        let theta = l.init_params(&mut rng);
        let a = [0.1, 0.5, -0.3];
        let t = [0.7, -0.2, 0.4];
        let (_, ja, _) = l.jacobians_sample(&a, &theta);
        let (_, jvp) = l.jvp_sample(&a, &t, &theta);
        for k in 0..3 {
            let want: f64 = (0..3).map(|j| ja[j][k] * t[j]).sum();
            assert!((jvp[k] - want).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn jvp_grads_match_finite_differences() {
        let l = QuantumLayer {
            n_qubits: 2,
            layers: 1,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Pi,
            reupload: false,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let theta = l.init_params(&mut rng);
        let a = [0.25, -0.55];
        let t = [0.9, 0.3];
        let cot = [0.8, -1.2];
        let s = |a: &[f64], t: &[f64], th: &[f64]| -> f64 {
            let (_, jvp) = l.jvp_sample(a, t, th);
            jvp.iter().zip(&cot).map(|(y, c)| y * c).sum()
        };
        let (ga, gt, gth) = l.jvp_grads_sample(&a, &t, &theta, &cot);
        let h = fd_eps();
        for i in 0..2 {
            let mut ap = a;
            ap[i] += h;
            let mut am = a;
            am[i] -= h;
            let fd = (s(&ap, &t, &theta) - s(&am, &t, &theta)) / (2.0 * h);
            assert!((ga[i] - fd).abs() < 1e-5, "a[{i}]: {} vs {fd}", ga[i]);
        }
        for i in 0..2 {
            let mut tp = t;
            tp[i] += h;
            let mut tm = t;
            tm[i] -= h;
            let fd = (s(&a, &tp, &theta) - s(&a, &tm, &theta)) / (2.0 * h);
            assert!((gt[i] - fd).abs() < 1e-6, "t[{i}]: {} vs {fd}", gt[i]);
        }
        for p in 0..theta.len() {
            let mut thp = theta.clone();
            thp[p] += h;
            let mut thm = theta.clone();
            thm[p] -= h;
            let fd = (s(&a, &t, &thp) - s(&a, &t, &thm)) / (2.0 * h);
            assert!((gth[p] - fd).abs() < 1e-5, "θ[{p}]: {} vs {fd}", gth[p]);
        }
    }

    #[test]
    fn reupload_jacobians_match_finite_differences() {
        let l = QuantumLayer {
            n_qubits: 2,
            layers: 3,
            ansatz: Ansatz::BasicEntangling,
            scaling: InputScaling::Pi,
            reupload: true,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let theta = l.init_params(&mut rng);
        let a = [0.35, -0.15];
        let (_, ja, jt) = l.jacobians_sample(&a, &theta);
        let h = fd_eps();
        for j in 0..2 {
            let mut ap = a;
            ap[j] += h;
            let mut am = a;
            am[j] -= h;
            let fp = l.forward_sample(&ap, &theta);
            let fm = l.forward_sample(&am, &theta);
            for k in 0..2 {
                let fd = (fp[k] - fm[k]) / (2.0 * h);
                assert!((ja[j][k] - fd).abs() < 1e-6, "input ({j},{k})");
            }
        }
        for p in 0..theta.len() {
            let mut tp = theta.clone();
            tp[p] += h;
            let mut tm = theta.clone();
            tm[p] -= h;
            let fp = l.forward_sample(&a, &tp);
            let fm = l.forward_sample(&a, &tm);
            for k in 0..2 {
                let fd = (fp[k] - fm[k]) / (2.0 * h);
                assert!((jt[p][k] - fd).abs() < 1e-6, "param ({p},{k})");
            }
        }
    }

    #[test]
    fn reupload_enriches_the_fourier_spectrum() {
        // With a single encoding the output e(θ) of a 1-qubit circuit is a
        // first-harmonic trig polynomial in the embedding angle; with data
        // re-uploading across 2 layers, second-harmonic content appears.
        let harmonic_power = |reupload: bool, k: usize| -> f64 {
            let l = QuantumLayer {
                n_qubits: 1,
                layers: 2,
                ansatz: Ansatz::NoEntangling,
                scaling: InputScaling::Pi,
                reupload,
            };
            let mut rng = StdRng::seed_from_u64(3);
            let theta = l.init_params(&mut rng);
            let n = 64;
            // sample e over a full period of the embedding angle
            let mut re = 0.0;
            let mut im = 0.0;
            for i in 0..n {
                let a = -1.0 + 2.0 * i as f64 / n as f64; // θ = πa covers 2π
                let e = l.forward_sample(&[a], &theta)[0];
                let phase = 2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                re += e * phase.cos();
                im -= e * phase.sin();
            }
            (re * re + im * im).sqrt() / n as f64
        };
        assert!(
            harmonic_power(false, 2) < 1e-10,
            "single encoding must have no 2nd harmonic: {}",
            harmonic_power(false, 2)
        );
        assert!(
            harmonic_power(true, 2) > 1e-3,
            "re-uploading should create 2nd-harmonic content: {}",
            harmonic_power(true, 2)
        );
    }

    #[test]
    fn param_count_and_init_range() {
        let l = layer();
        assert_eq!(l.n_params(), 18);
        let mut rng = StdRng::seed_from_u64(5);
        let p = l.init_params(&mut rng);
        assert!(p
            .iter()
            .all(|&x| (0.0..2.0 * std::f64::consts::PI).contains(&x)));
    }
}
