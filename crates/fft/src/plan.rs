//! Iterative radix-2 Cooley–Tukey FFT with precomputed twiddles, reusable
//! across transforms of the same length (the split-step propagator calls
//! it thousands of times).
//!
//! The plan stores its twiddles stage-major — the stage of butterfly span
//! `h` reads `h` consecutive entries from offset `h − 1` — in three
//! tables: real parts, forward imaginary parts and conjugated (inverse)
//! imaginary parts. The transform runs split-complex, real and imaginary
//! parts in separate arrays, through [`qpinn_tensor::simd::fft`]: the
//! bit-reversal permutation as vector transposes, then the butterflies,
//! one algorithm over the scalar, AVX2 and AVX-512 lane types that gives
//! every element the IEEE operations of a scalar `Complex64` butterfly
//! loop, so the outputs are the same bits at every width.
//! [`FftPlan::forward`] and [`FftPlan::inverse`] split the interleaved
//! buffer into a thread-local scratch pair, transform it into a second
//! pair and join that back; callers that keep their data split (the
//! split-step propagator) pass [`FftPlan::tables`] to the kernels
//! directly.

use qpinn_dual::Complex64;
use qpinn_tensor::simd::{self, Radix2};
use std::cell::RefCell;

/// Precomputed tables for transforms of a fixed power-of-two length.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    // Stage-major twiddles e^{-2πik/2h}: real, imaginary, conjugated
    // imaginary parts, `n − 1` entries each.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    tw_im_conj: Vec<f64>,
}

thread_local! {
    /// The split source and destination pairs of the interleaved entry
    /// points.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Twiddle factors `e^{-2πik/N}` for `k < N/2`.
fn twiddles(n: usize) -> Vec<Complex64> {
    (0..n / 2)
        .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
        .collect()
}

/// Bit-reversal permutation of `0..n`.
#[cfg(test)]
fn bit_reverse(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    (0..n as u32)
        .map(|i| if bits == 0 { 0 } else { i.reverse_bits() >> (32 - bits) })
        .collect()
}

impl FftPlan {
    /// Build a plan for length `n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two and ≥ 1.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 1, "FFT length {n} not 2^k");
        let tw = twiddles(n);
        let mut staged = Vec::with_capacity(n - 1);
        let mut h = 1;
        while h < n {
            let stride = n / (2 * h);
            staged.extend((0..h).map(|k| tw[k * stride]));
            h <<= 1;
        }
        FftPlan {
            n,
            tw_re: staged.iter().map(|w| w.re).collect(),
            tw_im: staged.iter().map(|w| w.im).collect(),
            tw_im_conj: staged.iter().map(|w| w.conj().im).collect(),
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The plan's tables for the split-complex kernels of
    /// [`qpinn_tensor::simd`] ([`simd::fft`], [`simd::split_step`]).
    pub fn tables(&self) -> Radix2<'_> {
        Radix2::new(&self.tw_re, &self.tw_im, &self.tw_im_conj)
    }

    fn run(&self, buf: &mut [Complex64], inverse: bool) {
        assert_eq!(buf.len(), self.n, "buffer length vs plan");
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.resize(4 * self.n, 0.0);
            let (src, dst) = s.split_at_mut(2 * self.n);
            let (sr, si) = src.split_at_mut(self.n);
            let (dr, di) = dst.split_at_mut(self.n);
            for ((r, i), c) in sr.iter_mut().zip(si.iter_mut()).zip(buf.iter()) {
                *r = c.re;
                *i = c.im;
            }
            simd::fft(self.tables(), sr, si, dr, di, inverse);
            for ((c, &r), &i) in buf.iter_mut().zip(dr.iter()).zip(di.iter()) {
                *c = Complex64::new(r, i);
            }
        });
    }

    /// In-place forward transform.
    ///
    /// # Panics
    /// Panics on a length mismatch with the plan.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.run(buf, false);
    }

    /// In-place inverse transform (normalized by `1/N`).
    ///
    /// # Panics
    /// Panics on a length mismatch with the plan.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.run(buf, true);
    }
}

/// The scalar radix-2 loop over interleaved `Complex64` the split-complex
/// kernels replaced, kept as their bit-for-bit oracle.
#[cfg(test)]
pub(crate) struct Radix2Oracle {
    n: usize,
    twiddles: Vec<Complex64>,
    rev: Vec<u32>,
}

#[cfg(test)]
impl Radix2Oracle {
    pub(crate) fn new(n: usize) -> Self {
        Radix2Oracle {
            n,
            twiddles: twiddles(n),
            rev: bit_reverse(n),
        }
    }

    fn permute(&self, buf: &mut [Complex64]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex64], conj: bool) {
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if conj {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }

    pub(crate) fn forward(&self, buf: &mut [Complex64]) {
        self.permute(buf);
        self.butterflies(buf, false);
    }

    pub(crate) fn inverse(&self, buf: &mut [Complex64]) {
        self.permute(buf);
        self.butterflies(buf, true);
        let inv = 1.0 / self.n as f64;
        for v in buf.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let fast = crate::fft(&x);
            let slow = dft_naive(&x);
            assert_close(&fast, &slow, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 256;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sqrt().sin(), (i as f64 * 0.11).cos()))
            .collect();
        let back = crate::ifft(&crate::fft(&x));
        assert_close(&back, &x, 1e-11);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 16;
        let mut x = vec![Complex64::zero(); n];
        x[0] = Complex64::one();
        let spec = crate::fft(&x);
        for v in spec {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        let spec = crate::fft(&x);
        for (k, v) in spec.iter().enumerate() {
            let want = if k == k0 { n as f64 } else { 0.0 };
            assert!((v.abs() - want).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = FftPlan::new(12);
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = FftPlan::new(64);
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut a = x.clone();
        plan.forward(&mut a);
        let mut b = x;
        plan.forward(&mut b);
        assert_close(&a, &b, 1e-15);
    }
}
