//! Spectral utilities for periodic grids: FFT wavenumbers and spectral
//! differentiation.

use crate::{fft, ifft};
use qpinn_dual::Complex64;

/// Angular wavenumbers `k` in FFT bin order for a periodic domain of length
/// `l` sampled at `n` points: `k_j = 2π·f_j/l` with `f_j = 0, 1, …, n/2−1,
//  −n/2, …, −1`.
pub fn fft_freq(n: usize, l: f64) -> Vec<f64> {
    let base = 2.0 * std::f64::consts::PI / l;
    (0..n)
        .map(|j| {
            let f = if j < n.div_ceil(2) {
                j as isize
            } else {
                j as isize - n as isize
            };
            base * f as f64
        })
        .collect()
}

/// First derivative of a periodic complex signal via `ik` multiplication in
/// Fourier space.
pub fn spectral_derivative(x: &[Complex64], l: f64) -> Vec<Complex64> {
    let ks = fft_freq(x.len(), l);
    let mut spec = fft(x);
    for (s, k) in spec.iter_mut().zip(ks) {
        *s *= Complex64::new(0.0, k);
    }
    ifft(&spec)
}

/// Second derivative via `−k²` multiplication in Fourier space.
pub fn spectral_second_derivative(x: &[Complex64], l: f64) -> Vec<Complex64> {
    let ks = fft_freq(x.len(), l);
    let mut spec = fft(x);
    for (s, k) in spec.iter_mut().zip(ks) {
        *s = s.scale(-k * k);
    }
    ifft(&spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_ordering_matches_convention() {
        // n = 8, l = 2π → base = 1; bins 0..3 positive, 4..7 negative.
        let f = fft_freq(8, 2.0 * std::f64::consts::PI);
        assert_eq!(
            f.iter().map(|v| v.round() as i64).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, -4, -3, -2, -1]
        );
    }

    #[test]
    fn derivative_of_sine_is_cosine() {
        let n = 128;
        let l = 2.0 * std::f64::consts::PI;
        let xs: Vec<f64> = (0..n).map(|i| l * i as f64 / n as f64).collect();
        let sig: Vec<Complex64> = xs.iter().map(|&x| Complex64::new((3.0 * x).sin(), 0.0)).collect();
        let d = spectral_derivative(&sig, l);
        for (x, v) in xs.iter().zip(&d) {
            assert!((v.re - 3.0 * (3.0 * x).cos()).abs() < 1e-9, "at {x}");
            assert!(v.im.abs() < 1e-9);
        }
    }

    #[test]
    fn second_derivative_of_plane_wave() {
        let n = 64;
        let l = 4.0;
        let k = 2.0 * std::f64::consts::PI * 5.0 / l;
        let sig: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(k * l * i as f64 / n as f64))
            .collect();
        let d2 = spectral_second_derivative(&sig, l);
        for (s, v) in sig.iter().zip(&d2) {
            let want = s.scale(-k * k);
            assert!((v.re - want.re).abs() < 1e-6 && (v.im - want.im).abs() < 1e-6);
        }
    }

    #[test]
    fn derivative_of_gaussian_matches_analytic() {
        // A periodic-enough Gaussian on [-8, 8): f' = -2x·σ⁻²/2 … use
        // f = exp(-x²), f' = -2x e^{-x²}.
        let n = 256;
        let l = 16.0;
        let d = spectral_derivative(
            &(0..n)
                .map(|i| {
                    let x = -8.0 + l * i as f64 / n as f64;
                    Complex64::new((-x * x).exp(), 0.0)
                })
                .collect::<Vec<_>>(),
            l,
        );
        assert_eq!(d.len(), n);
        for (i, di) in d.iter().enumerate() {
            let x = -8.0 + l * i as f64 / n as f64;
            let want = -2.0 * x * (-x * x).exp();
            assert!((di.re - want).abs() < 1e-8, "at {x}: {} vs {want}", di.re);
        }
    }
}
