//! 2D FFT on row-major `nx × ny` complex buffers: 1D transforms along both
//! axes. Used by the 2D split-step Schrödinger propagator.

use crate::plan::FftPlan;
use qpinn_dual::Complex64;

/// Plans for a fixed `nx × ny` transform (both powers of two).
#[derive(Clone, Debug)]
pub struct Fft2Plan {
    nx: usize,
    ny: usize,
    row_plan: FftPlan,
    col_plan: FftPlan,
}

impl Fft2Plan {
    /// Build plans for an `nx × ny` grid.
    ///
    /// # Panics
    /// Panics unless both extents are powers of two.
    pub fn new(nx: usize, ny: usize) -> Self {
        Fft2Plan {
            nx,
            ny,
            row_plan: FftPlan::new(ny),
            col_plan: FftPlan::new(nx),
        }
    }

    /// Grid extents `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    fn transform(&self, buf: &mut [Complex64], inverse: bool) {
        assert_eq!(buf.len(), self.nx * self.ny, "buffer size");
        // rows (y-axis contiguous)
        for row in buf.chunks_mut(self.ny) {
            if inverse {
                self.row_plan.inverse(row);
            } else {
                self.row_plan.forward(row);
            }
        }
        // columns
        let mut col = vec![Complex64::zero(); self.nx];
        for j in 0..self.ny {
            for i in 0..self.nx {
                col[i] = buf[i * self.ny + j];
            }
            if inverse {
                self.col_plan.inverse(&mut col);
            } else {
                self.col_plan.forward(&mut col);
            }
            for i in 0..self.nx {
                buf[i * self.ny + j] = col[i];
            }
        }
    }

    /// In-place forward 2D transform.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.transform(buf, false);
    }

    /// In-place inverse 2D transform (normalized by `1/(nx·ny)`).
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.transform(buf, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let (nx, ny) = (16, 32);
        let plan = Fft2Plan::new(nx, ny);
        let orig: Vec<Complex64> = (0..nx * ny)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let mut buf = orig.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn plane_wave_hits_single_bin() {
        let (nx, ny) = (8, 8);
        let plan = Fft2Plan::new(nx, ny);
        let (kx, ky) = (3usize, 5usize);
        let mut buf: Vec<Complex64> = Vec::with_capacity(nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                let phase = 2.0 * std::f64::consts::PI
                    * (kx * i) as f64
                    / nx as f64
                    + 2.0 * std::f64::consts::PI * (ky * j) as f64 / ny as f64;
                buf.push(Complex64::cis(phase));
            }
        }
        plan.forward(&mut buf);
        for i in 0..nx {
            for j in 0..ny {
                let want = if i == kx && j == ky {
                    (nx * ny) as f64
                } else {
                    0.0
                };
                assert!(
                    (buf[i * ny + j].abs() - want).abs() < 1e-8,
                    "bin ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn parseval_2d() {
        let (nx, ny) = (16, 16);
        let plan = Fft2Plan::new(nx, ny);
        let sig: Vec<Complex64> = (0..nx * ny)
            .map(|i| Complex64::new((i as f64).sqrt().sin(), 0.3 * (i as f64 * 0.21).cos()))
            .collect();
        let time: f64 = sig.iter().map(|v| v.norm_sqr()).sum();
        let mut buf = sig;
        plan.forward(&mut buf);
        let freq: f64 = buf.iter().map(|v| v.norm_sqr()).sum::<f64>() / (nx * ny) as f64;
        assert!((time - freq).abs() < 1e-8 * time);
    }

    #[test]
    fn separable_signal_transforms_separably() {
        // f(i,j) = g(i)·h(j) → F(k,l) = G(k)·H(l).
        let n = 8;
        let plan = Fft2Plan::new(n, n);
        let g: Vec<Complex64> = (0..n).map(|i| Complex64::new((i as f64).cos(), 0.0)).collect();
        let h: Vec<Complex64> = (0..n).map(|j| Complex64::new(0.0, (j as f64).sin())).collect();
        let mut buf: Vec<Complex64> = Vec::new();
        for &gi in &g {
            for &hj in &h {
                buf.push(gi * hj);
            }
        }
        plan.forward(&mut buf);
        let gf = crate::fft(&g);
        let hf = crate::fft(&h);
        for i in 0..n {
            for j in 0..n {
                let want = gf[i] * hf[j];
                let got = buf[i * n + j];
                assert!((got.re - want.re).abs() < 1e-8 && (got.im - want.im).abs() < 1e-8);
            }
        }
    }
}
