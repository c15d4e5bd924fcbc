//! Fused single-pass kernels for chains that would otherwise materialize
//! intermediates:
//!
//! * [`Tensor::affine_act`] — `act(X·W + b)` with the bias seeded into the
//!   output accumulator and the activation applied in place, so the
//!   pre-activation matrix never exists;
//! * [`Tensor::one_minus_square`] and [`Tensor::grad_tanh`] — the tanh
//!   derivative and backward in one sweep each.
//!
//! All draw their outputs from the buffer pool ([`crate::pool`]) and run
//! on the dispatched SIMD width ([`crate::simd`]). Accumulation order in
//! `affine_act` is bias-first then ascending `k` — bit-identical at any
//! pool width, though (by design) not bit-identical to the unfused
//! `matmul` + `add_row_broadcast` pair, whose rounding sequence differs.

use crate::matmul::gemm_nn;
use crate::tune::CHUNK;
use crate::{pool, simd, Tensor, PAR_THRESHOLD};
use rayon::prelude::*;

/// Activation fused into [`Tensor::affine_act`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation: plain `X·W + b`.
    Identity,
    /// Hyperbolic tangent applied in place after accumulation.
    Tanh,
}

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

    /// Fused affine layer `act(self · w + bias)` for rank-2 `self[m,k]`,
    /// `w[k,n]` and rank-1 `bias[n]`.
    ///
    /// The output is seeded with the bias, the `X·W` contraction
    /// accumulates on top in ascending `k`, and the activation is applied
    /// in place — one output allocation, no intermediate pre-activation
    /// tensor.
    ///
    /// # Panics
    /// Panics when shapes are incompatible.
    pub fn affine_act(&self, w: &Tensor, bias: &Tensor, act: FusedAct) -> Tensor {
        let (m, k) = (self.shape().nrows(), self.shape().ncols());
        let (kb, n) = (w.shape().nrows(), w.shape().ncols());
        assert_eq!(k, kb, "affine_act: {} · {}", self.shape(), w.shape());
        assert_eq!(
            bias.shape().dims(),
            &[n],
            "affine_act bias shape {} incompatible with {}",
            bias.shape(),
            w.shape()
        );
        let mut out = pool::take_uninit(m * n);
        gemm_nn(self.data(), w.data(), (m, k, n), Some(bias.data()), m, &mut out);
        if matches!(act, FusedAct::Tanh) {
            if out.len() >= PAR_THRESHOLD {
                out.par_chunks_mut(CHUNK)
                    .for_each(|c| simd::map_inplace_k::<simd::OpTanh>(0.0, c));
            } else {
                simd::map_inplace_k::<simd::OpTanh>(0.0, &mut out);
            }
        }
        Tensor::from_vec([m, n], out)
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

    #[test]
    fn affine_act_matches_unfused_chain() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (m, k, n) in [(3, 4, 5), (17, 33, 9), (40, 7, 65), (1, 1, 1)] {
            let x = Tensor::from_vec(
                [m, k],
                (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect::<Vec<_>>(),
            );
            let w = Tensor::from_vec(
                [k, n],
                (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect::<Vec<_>>(),
            );
            let b = Tensor::from_vec(
                [n],
                (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>(),
            );
            let want_lin = x.matmul(&w).add_row_broadcast(&b);
            let got_lin = x.affine_act(&w, &b, FusedAct::Identity);
            assert!(got_lin.approx_eq(&want_lin, 1e-12), "identity {m}x{k}x{n}");
            let got_tanh = x.affine_act(&w, &b, FusedAct::Tanh);
            assert!(
                got_tanh.approx_eq(&want_lin.tanh(), 1e-12),
                "tanh {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn affine_act_zero_inner_dim_is_bias_row() {
        let x = Tensor::zeros([2, 0]);
        let w = Tensor::zeros([0, 3]);
        let b = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        let y = x.affine_act(&w, &b, FusedAct::Identity);
        assert_eq!(y.row(0), &[1.0, -2.0, 0.5]);
        assert_eq!(y.row(1), &[1.0, -2.0, 0.5]);
    }
}
