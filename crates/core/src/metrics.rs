//! Evaluation metrics: norm drift and sign-invariant profile error. The
//! field error of a trained surrogate is [`crate::trainer::PinnTask::eval_error`].

use crate::model::FieldNet;
use qpinn_nn::ParamSet;

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
