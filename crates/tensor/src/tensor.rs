//! The dense [`Tensor`] type: storage, constructors, accessors.

use crate::{pool, Shape};
use std::fmt;

/// A dense, row-major, `f64` tensor.
///
/// Most tensors in the PINN stack are rank-2 (`[batch, features]` activations
/// and `[in, out]` weights) or rank-1 (bias vectors, coordinate columns);
/// scalars are rank-0. Clones and the filled constructors draw their
/// storage from the thread's buffer [`pool`].
#[derive(PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_uninit(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }
}

impl Tensor {
    /// Build from an explicit shape and row-major data.
    ///
    /// # Panics
    /// Panics when `data.len()` disagrees with the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f64>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(v: f64) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![v],
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor {
            shape,
            data: pool::take(n),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, v: f64) -> Self {
        let shape = shape.into();
        let mut data = pool::take_uninit(shape.len());
        data.fill(v);
        Tensor { shape, data }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Rank-1 tensor from a slice.
    pub fn from_slice(v: &[f64]) -> Self {
        let mut data = pool::take_uninit(v.len());
        data.copy_from_slice(v);
        Tensor {
            shape: Shape::new(&[v.len()]),
            data,
        }
    }

    /// Rank-2 tensor from row slices.
    ///
    /// # Panics
    /// Panics when rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            shape: Shape::new(&[nrows, ncols]),
            data,
        }
    }

    /// A `[n, 1]` column tensor from a slice (the shape PINN coordinates use).
    pub fn column(v: &[f64]) -> Self {
        Tensor::from_slice(v).reshape([v.len(), 1])
    }

    /// `n` evenly spaced points covering `[a, b]` inclusive, as a rank-1
    /// tensor.
    ///
    /// # Panics
    /// Panics when `n < 2`.
    pub fn linspace(a: f64, b: f64, n: usize) -> Self {
        assert!(n >= 2, "linspace needs at least 2 points");
        let step = (b - a) / (n as f64 - 1.0);
        Tensor::from_vec(
            [n],
            (0..n).map(|i| a + step * i as f64).collect::<Vec<_>>(),
        )
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element at a multi-index.
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.shape.offset(idx)]
    }

    /// Set the element at a multi-index.
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// The single value of a scalar or 1-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert_eq!(self.len(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Reinterpret with a new shape of the same total length.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into {}",
            self.data.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Matrix transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.shape.nrows(), self.shape.ncols());
        let mut out = pool::take_uninit(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec([n, m], out)
    }

    /// Row `i` of a rank-2 tensor as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        let n = self.shape.ncols();
        &self.data[i * n..(i + 1) * n]
    }

    /// Column `j` of a rank-2 tensor, copied out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let (m, n) = (self.shape.nrows(), self.shape.ncols());
        (0..m).map(|i| self.data[i * n + j]).collect()
    }

    /// Horizontally stack rank-2 tensors with equal row counts.
    ///
    /// # Panics
    /// Panics when `parts` is empty or row counts differ.
    pub fn hstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "hstack of nothing");
        let m = parts[0].shape.nrows();
        let total: usize = parts.iter().map(|p| p.shape.ncols()).sum();
        assert!(parts.iter().all(|p| p.shape.nrows() == m), "hstack row mismatch");
        let mut data = pool::take_uninit(m * total);
        let mut col0 = 0;
        for p in parts {
            let nc = p.shape.ncols();
            for (i, row) in data.chunks_exact_mut(total.max(1)).take(m).enumerate() {
                row[col0..col0 + nc].copy_from_slice(p.row(i));
            }
            col0 += nc;
        }
        Tensor::from_vec([m, total], data)
    }

    /// Elementwise approximate equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Largest absolute difference against another tensor of equal shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const MAX: usize = 12;
        if self.len() <= MAX {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "{:?}…", &self.data[..MAX])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([4]);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let e = Tensor::eye(3);
        assert_eq!(e.get(&[1, 1]), 1.0);
        assert_eq!(e.get(&[0, 2]), 0.0);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    fn linspace_endpoints() {
        let l = Tensor::linspace(-1.0, 1.0, 5);
        assert_eq!(l.data(), &[-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros([2, 2]);
        t.set(&[1, 0], 7.0);
        assert_eq!(t.get(&[1, 0]), 7.0);
        assert_eq!(t.get(&[0, 1]), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let att = a.transpose().transpose();
        assert!(a.approx_eq(&att, 0.0));
        assert_eq!(a.transpose().get(&[2, 1]), 6.0);
    }

    #[test]
    fn hstack_columns() {
        let a = Tensor::column(&[1.0, 2.0]);
        let b = Tensor::column(&[3.0, 4.0]);
        let c = Tensor::hstack(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.row(0), &[1.0, 3.0]);
        assert_eq!(c.row(1), &[2.0, 4.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]).reshape([2, 2]);
        assert_eq!(t.get(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic]
    fn reshape_len_mismatch_panics() {
        let _ = Tensor::from_slice(&[1.0, 2.0, 3.0]).reshape([2, 2]);
    }

    #[test]
    fn row_col_views() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::ones([3]);
        assert!(t.all_finite());
        t.set(&[1], f64::NAN);
        assert!(!t.all_finite());
    }

    #[test]
    fn max_abs_diff_reports_worst() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[1.0, 2.5, 2.0]);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-15);
    }
}
