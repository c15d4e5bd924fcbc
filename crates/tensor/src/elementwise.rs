//! Elementwise kernels: unary maps, same-shape binary zips, and the row
//! broadcast used for bias addition.
//!
//! The named operations (`add`/`mul`/`tanh`/…) run on the dispatched SIMD
//! width via [`crate::simd`]; the closure-based [`Tensor::map`]/
//! [`Tensor::zip`] remain for arbitrary functions. All output buffers come
//! from the thread-local pool ([`crate::pool`]) instead of fresh
//! allocations. Kernels run serially below [`crate::tune::PAR_THRESHOLD`]
//! elements and switch to rayon `par_chunks` above it, so the fork/join
//! overhead is only paid where it is amortized. Chunk size and cutoff both
//! live in [`crate::tune`].

use crate::tune::CHUNK;
use crate::{pool, simd, Shape, Tensor, PAR_THRESHOLD};
use rayon::prelude::*;

#[inline]
fn map_into(src: &[f64], dst: &mut Vec<f64>, f: impl Fn(f64) -> f64 + Sync + Send) {
    dst.resize(src.len(), 0.0);
    if src.len() >= PAR_THRESHOLD {
        dst.par_chunks_mut(CHUNK)
            .zip(src.par_chunks(CHUNK))
            .for_each(|(d, s)| {
                for (di, si) in d.iter_mut().zip(s) {
                    *di = f(*si);
                }
            });
    } else {
        for (di, si) in dst.iter_mut().zip(src) {
            *di = f(*si);
        }
    }
}

#[inline]
fn zip_into(a: &[f64], b: &[f64], dst: &mut Vec<f64>, f: impl Fn(f64, f64) -> f64 + Sync + Send) {
    dst.resize(a.len(), 0.0);
    if a.len() >= PAR_THRESHOLD {
        dst.par_chunks_mut(CHUNK)
            .zip(a.par_chunks(CHUNK).zip(b.par_chunks(CHUNK)))
            .for_each(|(d, (x, y))| {
                for ((di, xi), yi) in d.iter_mut().zip(x).zip(y) {
                    *di = f(*xi, *yi);
                }
            });
    } else {
        for ((di, xi), yi) in dst.iter_mut().zip(a).zip(b) {
            *di = f(*xi, *yi);
        }
    }
}

impl Tensor {
    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
    }

    /// Run a SIMD-dispatched unary kernel (`c` is the op's scalar operand)
    /// into a pooled output buffer.
    pub(crate) fn map_simd<O: simd::MapOp>(&self, c: f64) -> Tensor {
        let mut out = pool::take_uninit(self.len());
        let src = self.data();
        if src.len() >= PAR_THRESHOLD {
            out.par_chunks_mut(CHUNK)
                .zip(src.par_chunks(CHUNK))
                .for_each(|(d, s)| simd::map_k::<O>(c, s, d));
        } else {
            simd::map_k::<O>(c, src, &mut out);
        }
        Tensor::from_vec(self.shape().clone(), out)
    }

    /// Run a SIMD-dispatched binary kernel into a pooled output buffer.
    pub(crate) fn zip_simd<O: simd::BinOp>(&self, other: &Tensor, op: &str) -> Tensor {
        self.assert_same_shape(other, op);
        let mut out = pool::take_uninit(self.len());
        let (a, b) = (self.data(), other.data());
        if a.len() >= PAR_THRESHOLD {
            out.par_chunks_mut(CHUNK)
                .zip(a.par_chunks(CHUNK).zip(b.par_chunks(CHUNK)))
                .for_each(|(d, (x, y))| simd::bin_k::<O>(x, y, d));
        } else {
            simd::bin_k::<O>(a, b, &mut out);
        }
        Tensor::from_vec(self.shape().clone(), out)
    }

    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync + Send) -> Tensor {
        let mut out = pool::take_uninit(self.len());
        map_into(self.data(), &mut out, f);
        Tensor::from_vec(self.shape().clone(), out)
    }

    /// Combine with another tensor of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64 + Sync + Send) -> Tensor {
        self.assert_same_shape(other, "zip");
        let mut out = pool::take_uninit(self.len());
        zip_into(self.data(), other.data(), &mut out, f);
        Tensor::from_vec(self.shape().clone(), out)
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_simd::<simd::OpAdd>(other, "add")
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_simd::<simd::OpSub>(other, "sub")
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_simd::<simd::OpMul>(other, "mul")
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_simd::<simd::OpDiv>(other, "div")
    }

    /// In-place `self += alpha * other` (the axpy kernel optimizers use).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        if self.len() >= PAR_THRESHOLD {
            let src = other.data();
            self.data_mut()
                .par_chunks_mut(CHUNK)
                .zip(src.par_chunks(CHUNK))
                .for_each(|(d, s)| simd::vaxpy(alpha, s, d));
        } else {
            simd::vaxpy(alpha, other.data(), self.data_mut());
        }
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        self.map_simd::<simd::OpNeg>(0.0)
    }

    /// Multiply every element by `c`.
    pub fn scale(&self, c: f64) -> Tensor {
        self.map_simd::<simd::OpScale>(c)
    }

    /// Add `c` to every element.
    pub fn add_scalar(&self, c: f64) -> Tensor {
        self.map_simd::<simd::OpAddScalar>(c)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map_simd::<simd::OpSquare>(0.0)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map_simd::<simd::OpSqrt>(0.0)
    }

    /// Elementwise reciprocal.
    pub fn recip(&self) -> Tensor {
        self.map_simd::<simd::OpRecipOf>(1.0)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map_simd::<simd::OpAbs>(0.0)
    }

    /// Elementwise integer power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.map(move |a| a.powi(n))
    }

    /// Elementwise sine (vectorized; within 2 ulp of libm, bit-identical at
    /// every dispatch width, and libm's own value past `|x| = 2²⁹`).
    pub fn sin(&self) -> Tensor {
        self.map_simd::<simd::OpSin>(0.0)
    }

    /// Elementwise cosine (vectorized, like [`Tensor::sin`]).
    pub fn cos(&self) -> Tensor {
        self.map_simd::<simd::OpCos>(0.0)
    }

    /// Elementwise hyperbolic tangent (vectorized; matches libm to a few
    /// ulp and is bit-identical at every dispatch width).
    pub fn tanh(&self) -> Tensor {
        self.map_simd::<simd::OpTanh>(0.0)
    }

    /// Elementwise natural exponential (vectorized; matches libm to a few
    /// ulp and is bit-identical at every dispatch width).
    pub fn exp(&self) -> Tensor {
        self.map_simd::<simd::OpExp>(0.0)
    }

    /// Add a rank-1 bias of length `ncols` to every row of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics when shapes are incompatible.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let (m, n) = (self.shape().nrows(), self.shape().ncols());
        assert_eq!(
            bias.shape().dims(),
            &[n],
            "bias shape {} incompatible with {}",
            bias.shape(),
            self.shape()
        );
        let b = bias.data();
        let mut out = self.clone().into_vec();
        if out.len() >= PAR_THRESHOLD {
            out.par_chunks_mut(n).for_each(|row| {
                simd::vaxpy(1.0, b, row);
            });
        } else {
            for row in out.chunks_mut(n) {
                simd::vaxpy(1.0, b, row);
            }
        }
        let _ = m;
        Tensor::from_vec(self.shape().clone(), out)
    }

    /// Multiply every row of a rank-2 tensor by the matching entry of a
    /// `[nrows]` or `[nrows, 1]` weight vector (per-sample loss weighting).
    ///
    /// # Panics
    /// Panics when shapes are incompatible.
    pub fn mul_col_broadcast(&self, w: &Tensor) -> Tensor {
        let (m, n) = (self.shape().nrows(), self.shape().ncols());
        assert_eq!(w.len(), m, "weight length {} != nrows {m}", w.len());
        let wv = w.data();
        let mut out = self.clone().into_vec();
        for (i, row) in out.chunks_mut(n).enumerate() {
            simd::map_inplace_k::<simd::OpScale>(wv[i], row);
        }
        Tensor::from_vec(Shape::new(&[m, n]), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn unary_ops() {
        let a = Tensor::from_slice(&[0.0, 1.0, -2.0]);
        assert_eq!(a.neg().data(), &[0.0, -1.0, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[0.0, 2.0, -4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[1.0, 2.0, -1.0]);
        assert_eq!(a.square().data(), &[0.0, 1.0, 4.0]);
        assert_eq!(a.abs().data(), &[0.0, 1.0, 2.0]);
        assert!((a.tanh().data()[1] - 1f64.tanh()).abs() < 1e-14);
        assert!((a.sin().data()[2] - (-2f64).sin()).abs() < 1e-15);
        assert!((a.exp().data()[2] - (-2f64).exp()).abs() < 1e-15);
        assert!((a.recip().data()[2] + 0.5).abs() < 1e-15);
        let s = Tensor::from_slice(&[4.0, 9.0]);
        assert_eq!(s.sqrt().data(), &[2.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn bias_broadcast() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.row(0), &[11.0, 22.0]);
        assert_eq!(y.row(1), &[13.0, 24.0]);
    }

    #[test]
    fn per_row_weighting() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let w = Tensor::from_slice(&[2.0, 0.5]);
        let y = x.mul_col_broadcast(&w);
        assert_eq!(y.row(0), &[2.0, 4.0]);
        assert_eq!(y.row(1), &[1.5, 2.0]);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        let _ = a.add(&b);
    }

    #[test]
    fn large_tensor_parallel_path() {
        let n = crate::PAR_THRESHOLD + 17;
        let a = Tensor::full([n], 2.0);
        let b = Tensor::full([n], 3.0);
        let c = a.mul(&b);
        assert!(c.data().iter().all(|&x| x == 6.0));
        let s = a.square();
        assert!(s.data().iter().all(|&x| x == 4.0));
        let mut d = Tensor::zeros([n]);
        d.axpy(2.0, &b);
        assert!(d.data().iter().all(|&x| x == 6.0));
    }
}
