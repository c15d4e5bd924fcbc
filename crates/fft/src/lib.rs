//! # qpinn-fft
//!
//! A radix-2 fast Fourier transform over [`qpinn_dual::Complex64`], plus
//! the spectral helpers the split-step Schrödinger propagator needs
//! (wavenumber grids, spectral derivatives).
//!
//! An [`FftPlan`] holds stage-major twiddle tables; the transform itself
//! is the split-complex kernel of `qpinn_tensor::simd` (real and
//! imaginary parts in separate arrays; the bit reversal as vector
//! transposes, then the butterflies; one algorithm over the scalar, AVX2
//! and AVX-512 lane types), which gives every output the bits of the
//! scalar `Complex64` butterfly loop at every dispatch width. The
//! interleaved entry points ([`fft`], [`ifft`], [`FftPlan::forward`],
//! [`FftPlan::inverse`], [`Fft2Plan`]) split their buffer into a
//! thread-local scratch pair and join the result back; the split-step
//! propagator keeps its field split and passes [`FftPlan::tables`] to the
//! kernels directly.
//!
//! Conventions: `fft` computes `X[k] = Σ_n x[n]·e^{-2πikn/N}` (unnormalized
//! forward transform); `ifft` divides by `N` so `ifft(fft(x)) = x`.
//!
//! ```
//! use qpinn_dual::Complex64;
//! let x: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
//! let back = qpinn_fft::ifft(&qpinn_fft::fft(&x));
//! assert!((back[3].re - 3.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod fft2;
pub mod plan;
pub mod spectral;

pub use fft2::Fft2Plan;
pub use plan::FftPlan;
pub use spectral::{fft_freq, spectral_derivative, spectral_second_derivative};

use qpinn_dual::Complex64;

/// Forward FFT of a power-of-two-length buffer (out of place).
///
/// # Panics
/// Panics when the length is not a power of two.
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    let mut buf = x.to_vec();
    FftPlan::new(x.len()).forward(&mut buf);
    buf
}

/// Inverse FFT (normalized by `1/N`).
///
/// # Panics
/// Panics when the length is not a power of two.
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    let mut buf = x.to_vec();
    FftPlan::new(x.len()).inverse(&mut buf);
    buf
}

/// Naive O(N²) discrete Fourier transform, kept as the test oracle.
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex64::zero();
            for (j, &xj) in x.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc += xj * Complex64::cis(angle);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod proptests;
