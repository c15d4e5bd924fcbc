//! Evaluation metrics: norm drift, sign-invariant profile error, and the
//! energy and state error of a learned bound state. The field error of a
//! trained surrogate is [`crate::trainer::PinnTask::eval_error`].

use crate::model::FieldNet;
use qpinn_nn::ParamSet;
use qpinn_problems::EigenProblem;

/// The network's `∫|ψ|²dx` at each requested time (uniform spatial
/// quadrature over the periodic domain).
pub fn norm_series(
    net: &FieldNet,
    params: &ParamSet,
    x0: f64,
    x1: f64,
    nx: usize,
    times: &[f64],
) -> Vec<f64> {
    let l = x1 - x0;
    times
        .iter()
        .map(|&t| {
            let points: Vec<Vec<f64>> = (0..nx)
                .map(|i| vec![x0 + l * i as f64 / nx as f64, t])
                .collect();
            let pred = net.predict(params, &points);
            let mean_dens: f64 = (0..nx)
                .map(|i| pred.get(&[i, 0]).powi(2) + pred.get(&[i, 1]).powi(2))
                .sum::<f64>()
                / nx as f64;
            mean_dens * l
        })
        .collect()
}

/// Relative L2 error of a real 1D profile against reference samples on the
/// same abscissae, invariant to a global sign flip (wavefunctions are
/// defined up to phase).
pub fn rel_l2_error_profile(pred: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(pred.len(), reference.len());
    let den: f64 = reference.iter().map(|r| r * r).sum::<f64>().sqrt();
    let err = |sign: f64| -> f64 {
        pred.iter()
            .zip(reference)
            .map(|(p, r)| (sign * p - r).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    err(1.0).min(err(-1.0)) / den
}

/// A one-field surrogate over one coordinate, sampled at `xs`.
pub fn profile(net: &FieldNet, params: &ParamSet, xs: &[f64]) -> Vec<f64> {
    let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
    net.predict(params, &points).data().to_vec()
}

/// Trapezoid weight of sample `i` of `n` (half at both ends).
fn trapezoid(i: usize, n: usize) -> f64 {
    if i == 0 || i == n - 1 {
        0.5
    } else {
        1.0
    }
}

/// Rayleigh quotient `∫(½ψ′² + Vψ²) / ∫ψ²` of a one-field surrogate over
/// the problem's box: trapezoid weights and central-difference `ψ′` on
/// 1025 points. It is second order in the wavefunction error, so it
/// estimates the energy better than a trained eigenvalue does.
pub fn rayleigh_energy(net: &FieldNet, params: &ParamSet, problem: &EigenProblem) -> f64 {
    let n = 1025;
    let dx = (problem.x1 - problem.x0) / (n - 1) as f64;
    let xs: Vec<f64> = (0..n).map(|i| problem.x0 + dx * i as f64).collect();
    let psi = profile(net, params, &xs);
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        let dpsi = if i == 0 {
            (psi[1] - psi[0]) / dx
        } else if i == n - 1 {
            (psi[i] - psi[i - 1]) / dx
        } else {
            (psi[i + 1] - psi[i - 1]) / (2.0 * dx)
        };
        let w = trapezoid(i, n);
        num += w * (0.5 * dpsi * dpsi + problem.potential.eval(xs[i]) * psi[i] * psi[i]);
        den += w * psi[i] * psi[i];
    }
    num / den.max(1e-300)
}

/// [`rel_l2_error_profile`] of a one-field surrogate against a normalised
/// `state` sampled on the uniform grid `xs`, after normalising the
/// prediction with trapezoid weights.
pub fn state_error(net: &FieldNet, params: &ParamSet, xs: &[f64], state: &[f64]) -> f64 {
    let psi = profile(net, params, xs);
    let n = xs.len();
    let dx = (xs[n - 1] - xs[0]) / (n - 1) as f64;
    let sq: f64 = (0..n).map(|i| trapezoid(i, n) * psi[i] * psi[i]).sum();
    let norm = (sq * dx).sqrt().max(1e-300);
    let scaled: Vec<f64> = psi.iter().map(|v| v / norm).collect();
    rel_l2_error_profile(&scaled, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FieldNet, FieldNetConfig};
    use rand::{rngs::StdRng, SeedableRng};

    /// A network forced to output exactly `(re, im)` everywhere: all
    /// weights zeroed (tanh(0) = 0 through every hidden layer), output
    /// bias set to the constants. Turns the metrics into analytically
    /// checkable quantities.
    fn constant_net(re: f64, im: f64) -> (FieldNet, ParamSet) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = FieldNet::new(
            &mut params,
            &mut rng,
            &FieldNetConfig::plain(2, 8, 2, 2),
            "n",
        );
        for t in params.tensors_mut() {
            for v in t.data_mut() {
                *v = 0.0;
            }
        }
        let idx = params
            .iter()
            .position(|(_, name, _)| name == "n.out.b")
            .expect("output bias exists");
        params.tensors_mut()[idx]
            .data_mut()
            .copy_from_slice(&[re, im]);
        (net, params)
    }

    #[test]
    fn norm_series_has_analytic_value_for_constant_density() {
        // |ψ|² = 3² + 4² = 25 everywhere ⇒ ∫|ψ|²dx = 25·(x1−x0).
        let (net, params) = constant_net(3.0, 4.0);
        let s = norm_series(&net, &params, -1.0, 1.0, 32, &[0.0, 0.3, 1.0]);
        assert_eq!(s.len(), 3);
        for v in &s {
            assert!((v - 50.0).abs() < 1e-12, "norm {v} != 25·L");
        }
    }

    #[test]
    fn profile_error_is_sign_invariant() {
        let r = [1.0, 2.0, 3.0];
        let p = [-1.0, -2.0, -3.0];
        assert!(rel_l2_error_profile(&p, &r) < 1e-15);
        let q = [1.1, 2.0, 3.0];
        let want = 0.1 / 14f64.sqrt();
        assert!((rel_l2_error_profile(&q, &r) - want).abs() < 1e-12);
    }

    #[test]
    fn field_error_zero_against_itself() {
        // Build a trivial constant reference and a net; error of the net
        // against the net's own samples must be ~0 — checked indirectly by
        // the integration tests; here check norm_series on a fresh net is
        // finite and positive.
        use crate::model::{FieldNet, FieldNetConfig};
        use qpinn_nn::ParamSet;
        use rand::{rngs::StdRng, SeedableRng};
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = FieldNet::new(
            &mut params,
            &mut rng,
            &FieldNetConfig::plain(2, 8, 1, 2),
            "n",
        );
        let s = norm_series(&net, &params, -1.0, 1.0, 32, &[0.0, 0.5, 1.0]);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}
