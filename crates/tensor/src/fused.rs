//! Fused single-pass kernels for chains that would otherwise materialize
//! intermediates: [`Tensor::one_minus_square`] and [`Tensor::grad_tanh`],
//! the tanh derivative and backward in one sweep each. Both draw their
//! outputs from the buffer pool ([`crate::pool`]) and run on the
//! dispatched SIMD width ([`crate::simd`]).

use crate::{simd, Tensor};

impl Tensor {
    /// Elementwise `1 − x²` (the tanh derivative from a stored activation),
    /// fused into one kernel instead of `square → neg → add_scalar`.
    pub fn one_minus_square(&self) -> Tensor {
        self.map_simd::<simd::OpConstMinusSquare>(1.0)
    }

    /// Elementwise `self · (1 − y²)` — the tanh backward (upstream gradient
    /// times activation derivative) in one pass.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn grad_tanh(&self, y: &Tensor) -> Tensor {
        self.zip_simd::<simd::OpGradTanh>(y, "grad_tanh")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_minus_square_and_grad_tanh() {
        let y = Tensor::from_slice(&[0.5, -0.25, 0.0, 0.99]);
        let g = Tensor::from_slice(&[2.0, 1.0, -1.0, 0.5]);
        let d = y.one_minus_square();
        for (di, yi) in d.data().iter().zip(y.data()) {
            assert!((di - (1.0 - yi * yi)).abs() < 1e-15);
        }
        let gt = g.grad_tanh(&y);
        for ((gi, yi), oi) in g.data().iter().zip(y.data()).zip(gt.data()) {
            assert!((oi - gi * (1.0 - yi * yi)).abs() < 1e-15);
        }
    }
}
