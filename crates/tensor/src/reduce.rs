//! Reductions: sums, means, norms, axis reductions.
//!
//! Parallel reductions are **thread-count and SIMD-width invariant at the
//! bit level**: partials are computed over fixed
//! [`crate::tune::CHUNK`]-element blocks and combined in chunk-index order
//! (the ordered `sum` consumer in the vendored rayon), and within a chunk
//! the [`crate::simd`] kernels accumulate in eight fixed lanes at every
//! dispatch width. The floating-point association is therefore a function
//! of the chunk size and the eight-lane tree only — never of how many
//! workers ran or which instruction set executed.

use crate::tune::CHUNK;
use crate::{simd, Tensor, PAR_THRESHOLD};
use rayon::prelude::*;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        if self.len() >= PAR_THRESHOLD {
            self.data().par_chunks(CHUNK).map(simd::vsum).sum()
        } else {
            simd::vsum(self.data())
        }
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Sum of squares of all elements.
    pub fn sum_sq(&self) -> f64 {
        if self.len() >= PAR_THRESHOLD {
            self.data().par_chunks(CHUNK).map(simd::vsum_sq).sum()
        } else {
            simd::vsum_sq(self.data())
        }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.sum_sq().sqrt()
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f64 {
        self.data().iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Smallest element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data().iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of squares — the MSE reduction used by every PINN loss term.
    pub fn mse(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_sq() / self.len() as f64
        }
    }

    /// Column sums of a rank-2 tensor, as a rank-1 tensor of length `ncols`.
    ///
    /// This is the reduction that backs bias gradients.
    pub fn sum_rows(&self) -> Tensor {
        let (m, n) = (self.shape().nrows(), self.shape().ncols());
        let mut out = crate::pool::take(n);
        for i in 0..m {
            simd::vaxpy(1.0, self.row(i), &mut out);
        }
        Tensor::from_vec([n], out)
    }

    /// Row sums of a rank-2 tensor, as a `[nrows, 1]` column.
    pub fn sum_cols(&self) -> Tensor {
        let n = self.shape().ncols();
        let sums: Vec<f64> = self.data().chunks(n).map(simd::vsum).collect();
        Tensor::column(&sums)
    }

    /// Relative L2 error `‖self − other‖ / ‖other‖` against a reference of
    /// identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch or when the reference is identically zero.
    pub fn rel_l2_error(&self, reference: &Tensor) -> f64 {
        assert_eq!(self.shape(), reference.shape(), "rel_l2_error shapes");
        let denom = reference.norm();
        assert!(denom > 0.0, "rel_l2_error against a zero reference");
        self.sub(reference).norm() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, -4.0]);
        assert!((t.sum() - (-2.0)).abs() < 1e-15);
        assert!((t.mean() + 0.5).abs() < 1e-15);
        assert!((t.sum_sq() - 30.0).abs() < 1e-15);
        assert!((t.norm() - 30f64.sqrt()).abs() < 1e-15);
        assert!((t.max_abs() - 4.0).abs() < 1e-15);
        assert!((t.min() + 4.0).abs() < 1e-15);
        assert!((t.max() - 3.0).abs() < 1e-15);
        assert!((t.mse() - 7.5).abs() < 1e-15);
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(t.sum_rows().data(), &[9.0, 12.0]);
        assert_eq!(t.sum_cols().data(), &[3.0, 7.0, 11.0]);
        assert_eq!(t.sum_cols().shape().dims(), &[3, 1]);
    }

    #[test]
    fn relative_error() {
        let a = Tensor::from_slice(&[1.1, 2.0]);
        let b = Tensor::from_slice(&[1.0, 2.0]);
        let want = 0.1 / 5f64.sqrt();
        assert!((a.rel_l2_error(&b) - want).abs() < 1e-12);
        assert_eq!(b.rel_l2_error(&b), 0.0);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let n = crate::PAR_THRESHOLD * 2 + 3;
        let t = Tensor::full([n], 0.5);
        assert!((t.sum() - 0.5 * n as f64).abs() < 1e-9);
        assert!((t.sum_sq() - 0.25 * n as f64).abs() < 1e-9);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let t = Tensor::zeros([0]);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.mse(), 0.0);
    }
}
