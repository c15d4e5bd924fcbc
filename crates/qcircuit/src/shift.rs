//! The parameter-shift rule: exact gradients of Pauli-rotation circuits
//! from two shifted evaluations, `∂f/∂θ = (f(θ+π/2) − f(θ−π/2))/2`.
//!
//! On hardware this is the only exact option; in this repository it serves
//! as an independent oracle for the dual-number derivatives (they must
//! agree to machine precision).

use std::f64::consts::FRAC_PI_2;

/// Gradient of a scalar function of circuit parameters via the
/// parameter-shift rule. `f` is evaluated `2·θ.len()` times.
pub fn parameter_shift_gradient(f: &dyn Fn(&[f64]) -> f64, theta: &[f64]) -> Vec<f64> {
    let mut grad = Vec::with_capacity(theta.len());
    let mut work = theta.to_vec();
    for i in 0..theta.len() {
        work[i] = theta[i] + FRAC_PI_2;
        let plus = f(&work);
        work[i] = theta[i] - FRAC_PI_2;
        let minus = f(&work);
        work[i] = theta[i];
        grad.push(0.5 * (plus - minus));
    }
    grad
}

/// Gradient via the **four-term** shift rule, exact for controlled Pauli
/// rotations (generator eigenvalues `{0, ±½}`, hence two frequencies):
///
/// `∂f/∂θ = d₊·[f(θ+π/2) − f(θ−π/2)] − d₋·[f(θ+3π/2) − f(θ−3π/2)]`
///
/// with `d₊ = (√2+1)/(4√2)` and `d₋ = (√2−1)/(4√2)`. For plain one-qubit
/// rotations both frequencies collapse and this reduces to the two-term
/// rule, so it is a safe (4× cost) universal oracle across every ansatz
/// template, including `cross-mesh-crz`'s CRZ parameters where
/// [`parameter_shift_gradient`] is *wrong*.
pub fn controlled_shift_gradient(f: &dyn Fn(&[f64]) -> f64, theta: &[f64]) -> Vec<f64> {
    let sqrt2 = std::f64::consts::SQRT_2;
    let d_plus = (sqrt2 + 1.0) / (4.0 * sqrt2);
    let d_minus = (sqrt2 - 1.0) / (4.0 * sqrt2);
    let (s1, s2) = (FRAC_PI_2, 3.0 * FRAC_PI_2);
    let mut grad = Vec::with_capacity(theta.len());
    let mut work = theta.to_vec();
    for i in 0..theta.len() {
        let mut at = |v: f64| {
            work[i] = v;
            f(&work)
        };
        let near = at(theta[i] + s1) - at(theta[i] - s1);
        let far = at(theta[i] + s2) - at(theta[i] - s2);
        work[i] = theta[i];
        grad.push(d_plus * near - d_minus * far);
    }
    grad
}

/// Exact second derivative along one Pauli-rotation parameter, from the
/// composition of two first-order shifts:
/// `∂²f/∂θᵢ² = ¼·(f(θ+π·eᵢ) − 2f(θ) + f(θ−π·eᵢ))`.
///
/// (Any single-Pauli-generator expectation is `A·cos(θ+φ) + C`, for which
/// this identity is exact.)
pub fn parameter_shift_second(f: &dyn Fn(&[f64]) -> f64, theta: &[f64], i: usize) -> f64 {
    let mut work = theta.to_vec();
    let base = f(theta);
    work[i] = theta[i] + std::f64::consts::PI;
    let plus = f(&work);
    work[i] = theta[i] - std::f64::consts::PI;
    let minus = f(&work);
    0.25 * (plus + minus - 2.0 * base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::Ansatz;
    use crate::encoding::angle_embed;
    use crate::state::State;
    use qpinn_dual::{Dual, Dual64, Scalar};

    #[test]
    fn matches_cosine_rule() {
        // f(θ) = ⟨Z⟩ after RX(θ) = cos θ; f' = −sin θ.
        let f = |t: &[f64]| {
            let s = angle_embed(&[t[0]]);
            s.expectation_z(0)
        };
        for &t in &[0.0, 0.6, 2.1] {
            let g = parameter_shift_gradient(&f, &[t]);
            assert!((g[0] + t.sin()).abs() < 1e-12, "θ={t}");
        }
    }

    #[test]
    fn agrees_with_dual_numbers_on_full_ansatz() {
        let ansatz = Ansatz::BasicEntangling;
        let (nq, layers) = (3, 2);
        let n = ansatz.n_params(nq, layers);
        let theta: Vec<f64> = (0..n).map(|i| 0.3 + 0.17 * i as f64).collect();
        let f = |t: &[f64]| {
            let mut s: State<f64> = State::zero(nq);
            ansatz.apply(&mut s, layers, t);
            s.expectation_z(1)
        };
        let shift_grad = parameter_shift_gradient(&f, &theta);
        assert_eq!(shift_grad.len(), n);
        // dual-number gradient, one direction at a time
        for (i, &want) in shift_grad.iter().enumerate() {
            let td: Vec<Dual64> = theta
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    if j == i {
                        Dual64::var(v)
                    } else {
                        Dual::constant(v)
                    }
                })
                .collect();
            let mut s: State<Dual64> = State::zero(nq);
            ansatz.apply(&mut s, layers, &td);
            let e = s.expectation_z(1);
            assert!(
                (e.eps - want).abs() < 1e-11,
                "param {i}: dual {} vs shift {want}",
                e.eps
            );
            assert!((e.value() - f(&theta)).abs() < 1e-12);
        }
    }

    #[test]
    fn four_term_rule_reduces_to_two_term_on_plain_rotations() {
        let f = |t: &[f64]| {
            let s = angle_embed(&[t[0], t[1]]);
            s.expectation_z(0) * s.expectation_z(1)
        };
        let theta = [0.4, 1.3];
        let two = parameter_shift_gradient(&f, &theta);
        let four = controlled_shift_gradient(&f, &theta);
        for (a, b) in two.iter().zip(&four) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn four_term_rule_is_exact_on_controlled_rotations() {
        // CrossMeshCrz parametrizes CRZ gates, where the two-term rule is
        // *not* exact. The four-term rule must match dual numbers to
        // machine precision on every parameter.
        let ansatz = Ansatz::CrossMeshCrz;
        let (nq, layers) = (3, 1);
        let n = ansatz.n_params(nq, layers);
        let theta: Vec<f64> = (0..n).map(|i| 0.25 + 0.31 * i as f64).collect();
        let f = |t: &[f64]| {
            let mut s: State<f64> = State::zero(nq);
            // seed superposition so the CRZ controls are non-trivial
            for q in 0..nq {
                s.apply_1q(q, &crate::gates::ry(0.9 + 0.2 * q as f64));
            }
            ansatz.apply(&mut s, layers, t);
            s.expectation_z(1)
        };
        let four = controlled_shift_gradient(&f, &theta);
        assert_eq!(four.len(), n);
        for (i, &want) in four.iter().enumerate() {
            let td: Vec<Dual64> = theta
                .iter()
                .enumerate()
                .map(|(j, &v)| if j == i { Dual64::var(v) } else { Dual::constant(v) })
                .collect();
            let mut s: State<Dual64> = State::zero(nq);
            for q in 0..nq {
                s.apply_1q(q, &crate::gates::ry(Dual::constant(0.9 + 0.2 * q as f64)));
            }
            ansatz.apply(&mut s, layers, &td);
            let e = s.expectation_z(1);
            assert!(
                (e.eps - want).abs() < 1e-11,
                "param {i}: dual {} vs 4-term {want}",
                e.eps
            );
        }
    }

    #[test]
    fn second_derivative_of_cosine() {
        let f = |t: &[f64]| {
            let s = angle_embed(&[t[0]]);
            s.expectation_z(0)
        };
        for &t in &[0.2, 1.0, 2.4] {
            let d2 = parameter_shift_second(&f, &[t], 0);
            assert!((d2 + t.cos()).abs() < 1e-12, "θ={t}: {d2} vs {}", -t.cos());
        }
    }
}
