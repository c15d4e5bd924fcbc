//! Matrix multiplication kernels.
//!
//! All three layouts needed by reverse-mode autodiff are provided directly
//! (rather than materializing transposes of the large operand):
//!
//! * [`Tensor::matmul`] — `C = A·B`
//! * [`Tensor::matmul_tn`] — `C = Aᵀ·B` (weight gradients)
//! * [`Tensor::matmul_nt`] — `C = A·Bᵀ` (input gradients)
//!
//! The slice-level [`gemm_nn`], [`gemm_tn`] and [`gemm_nt`] behind them
//! also serve the jet-stack kernels, which run them on row blocks of a
//! stack. Kernel shape, per the tuning constants in [`crate::tune`]:
//!
//! * the inner loops are the register-blocked micro-kernels of
//!   `simd::tile`: `nn` and `tn` keep a tile of output rows × columns in
//!   registers and load each row of the shared operand once per tile;
//!   `nt` transposes its (small) right operand once per call and
//!   vectorizes across output columns with eight lane accumulators each;
//! * with fewer than [`SKINNY`] output columns a tile would fall back to
//!   scalar one-column tiles, so `tn` computes `Bᵀ·A` and transposes it
//!   (products commute exactly and the ascending-row sum is unchanged),
//!   and `nt` calls `vdot` per element, which vectorizes along the
//!   contraction with the association `nt` already has (when that
//!   contraction is at least [`SKINNY`] long);
//! * work above [`crate::tune::PAR_FLOPS`] is parallelized over
//!   [`crate::tune::ROW_BLOCK`]-row output blocks on the real rayon pool;
//!   [`gemm_tn_blocks`] runs the `tn` products of several row blocks of
//!   a stack as one parallel operation;
//! * `nn` and `tn` stream the contraction in [`crate::tune::K_BLOCK`]
//!   panels so the shared panel stays in L1/L2 while the task's rows
//!   accumulate against it.
//!
//! Determinism: accumulation order over the contraction dimension is fixed
//! and never depends on the thread count or the tile shape, so every
//! product is bit-identical at any pool width. `nn`/`tn` run a per-element
//! multiply-add chain in ascending order (no FMA, no reassociation), and
//! `nt` gives every element the eight-lane association of
//! [`Tensor::dot`], so products are also bit-identical across
//! scalar/AVX2/AVX-512 dispatch.

use crate::simd::PanelSeed;
use crate::tune::{K_BLOCK, PAR_FLOPS, ROW_BLOCK};
use crate::{pool, simd, Tensor};
use rayon::prelude::*;

/// Output columns below which `tn` and `nt` leave the register tiles: one
/// AVX-512 vector is eight columns, and a narrower output runs through
/// scalar one-column tiles.
pub(crate) const SKINNY: usize = 8;

/// Run `body(block_index, rows)` over `ROW_BLOCK`-row chunks of `out`
/// (`ld` elements per row), in parallel when the product is large enough.
fn for_row_blocks(out: &mut [f64], ld: usize, par: bool, body: impl Fn(usize, &mut [f64]) + Sync + Send) {
    if par {
        out.par_chunks_mut(ROW_BLOCK * ld)
            .enumerate()
            .for_each(|(blk, chunk)| body(blk, chunk));
    } else {
        for (blk, chunk) in out.chunks_mut(ROW_BLOCK * ld).enumerate() {
            body(blk, chunk);
        }
    }
}

/// `out[m,n] = seed + a[m,k] · b[k,n]`: rows below `bias_rows` start from
/// `bias[n]`, the others from zero (`bias_rows` is ignored without a
/// bias). Every element of `out` is overwritten.
///
/// # Panics
/// Panics when a slice is shorter than its extents.
pub fn gemm_nn(
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    bias: Option<&[f64]>,
    bias_rows: usize,
    out: &mut [f64],
) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n, "gemm_nn extents");
    if let Some(bias) = bias {
        assert!(bias.len() >= n, "gemm_nn bias extent");
    }
    if m == 0 || n == 0 {
        return;
    }
    let out = &mut out[..m * n];
    // One task owns ROW_BLOCK output rows; the k loop is panelled so the
    // B panel (K_BLOCK × n doubles) stays hot in cache across the block's
    // rows. Each element's chain (seed, then ascending k) is the untiled
    // i-k-j kernel's.
    let body = |blk: usize, out_blk: &mut [f64]| {
        let i0 = blk * ROW_BLOCK;
        let rows = out_blk.len() / n;
        let seeded = bias.map_or(0, |_| bias_rows.saturating_sub(i0).min(rows));
        if k == 0 {
            for (r, row) in out_blk.chunks_mut(n).enumerate() {
                match bias {
                    Some(bias) if r < seeded => row.copy_from_slice(&bias[..n]),
                    _ => row.fill(0.0),
                }
            }
            return;
        }
        let mut kb0 = 0;
        while kb0 < k {
            let kb1 = (kb0 + K_BLOCK).min(k);
            let seed = match bias {
                _ if kb0 > 0 => PanelSeed::Out,
                Some(bias) if seeded > 0 => PanelSeed::Bias(bias, seeded),
                _ => PanelSeed::Zero,
            };
            simd::axpy_panel(&a[i0 * k + kb0..], k, 1, kb1 - kb0, &b[kb0 * n..], n, n, out_blk, n, rows, seed);
            kb0 = kb1;
        }
    };
    for_row_blocks(out, n, m * k.max(1) * n >= PAR_FLOPS && m > ROW_BLOCK, body);
}

/// `out[k,n] = aᵀ[k,m] · b[m,n]` for `a[m,k]`. Every element of `out` is
/// overwritten.
///
/// # Panics
/// Panics when a slice is shorter than its extents.
pub fn gemm_tn(a: &[f64], b: &[f64], (m, k, n): (usize, usize, usize), out: &mut [f64]) {
    assert!(a.len() >= m * k && b.len() >= m * n && out.len() >= k * n, "gemm_tn extents");
    gemm_tn_blocks(a, b, (m, k, n), &mut [out]);
}

/// `outs[s] = a_sᵀ · b_s` for the consecutive `m`-row blocks `a_s` of
/// `a[·, k]` and `b_s` of `b[·, n]`, one block per entry of `outs`. The
/// blocks run as one parallel operation whose chunks are every block's
/// `ROW_BLOCK`-row output blocks (a whole block below [`SKINNY`]
/// columns), not one operation per block; a block's bits do not depend
/// on the others.
///
/// # Panics
/// Panics when a slice is shorter than its extents.
pub(crate) fn gemm_tn_blocks<O: AsMut<[f64]> + Send>(
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    outs: &mut [O],
) {
    let blocks = outs.len();
    assert!(
        a.len() >= blocks * m * k && b.len() >= blocks * m * n && outs.iter_mut().all(|o| o.as_mut().len() >= k * n),
        "gemm_tn_blocks extents"
    );
    if k == 0 || n == 0 {
        return;
    }
    let skinny = tn_is_skinny(k, n);
    let task_rows = if skinny { k } else { ROW_BLOCK };
    let tasks: Vec<(usize, usize, &mut [f64])> = outs
        .iter_mut()
        .enumerate()
        .flat_map(|(s, out)| {
            out.as_mut()[..k * n]
                .chunks_mut(task_rows * n)
                .enumerate()
                .map(move |(blk, chunk)| (s, blk, chunk))
        })
        .collect();
    let body = |(s, blk, out_blk): (usize, usize, &mut [f64])| {
        let (a, b) = (&a[s * m * k..(s + 1) * m * k], &b[s * m * n..(s + 1) * m * n]);
        if m == 0 {
            out_blk.fill(0.0);
        } else if skinny {
            tn_transposed(a, b, (m, k, n), out_blk);
        } else {
            tn_rows(a, b, (m, k, n), blk, out_blk);
        }
    };
    if blocks * m * k * n >= PAR_FLOPS && tasks.len() > 1 {
        tasks.into_par_iter().for_each(body);
    } else {
        tasks.into_iter().for_each(body);
    }
}

/// Whether `aᵀ·b` with `k` rows and `n` columns runs as `(bᵀ·a)ᵀ`.
fn tn_is_skinny(k: usize, n: usize) -> bool {
    n < SKINNY && k >= SKINNY
}

/// Output rows `[blk·ROW_BLOCK, …)` of `aᵀ·b` (`m > 0`) into `out_blk`:
/// `C[p, q] = Σ_i A[i, p] B[i, q]`, the reduction over `i` panelled so the
/// B panel is reused across the block, in ascending `i`.
fn tn_rows(a: &[f64], b: &[f64], (m, k, n): (usize, usize, usize), blk: usize, out_blk: &mut [f64]) {
    let p0 = blk * ROW_BLOCK;
    let rows = out_blk.len() / n;
    let mut ib0 = 0;
    while ib0 < m {
        let ib1 = (ib0 + K_BLOCK).min(m);
        let seed = if ib0 > 0 { PanelSeed::Out } else { PanelSeed::Zero };
        simd::axpy_panel(&a[ib0 * k + p0..], 1, k, ib1 - ib0, &b[ib0 * n..], n, n, out_blk, n, rows, seed);
        ib0 = ib1;
    }
}

/// All of `aᵀ·b` (`m > 0`) as the transpose of `bᵀ·a`, whose `k ≥ SKINNY`
/// columns fill the register tiles. Every element is the same ascending
/// chain of the same products (`b·a = a·b` exactly), so the bits are those
/// of the direct product.
fn tn_transposed(a: &[f64], b: &[f64], (m, k, n): (usize, usize, usize), out: &mut [f64]) {
    let mut t = pool::take_uninit(n * k);
    tn_rows(b, a, (m, n, k), 0, &mut t);
    for (q, row) in t.chunks_exact(k).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            out[p * n + q] = v;
        }
    }
    pool::recycle(Tensor::from_vec([n * k], t));
}

/// `out[m,k] = a[m,n] · bᵀ[n,k]` for `b[k,n]`. Every element of `out` is
/// overwritten.
///
/// # Panics
/// Panics when a slice is shorter than its extents.
pub fn gemm_nt(a: &[f64], b: &[f64], (m, n, k): (usize, usize, usize), out: &mut [f64]) {
    assert!(a.len() >= m * n && b.len() >= k * n && out.len() >= m * k, "gemm_nt extents");
    if m == 0 || k == 0 {
        return;
    }
    let out = &mut out[..m * k];
    let par = m * n * k >= PAR_FLOPS && m > ROW_BLOCK;
    if k < SKINNY && n >= SKINNY {
        // C[i, p] = A[i, ·] · B[p, ·], one `vdot` per element. A shorter
        // contraction leaves `vdot` nothing to vectorize, and the tiles
        // below run it without a call per element.
        for_row_blocks(out, k, par, |blk, out_blk| {
            let i0 = blk * ROW_BLOCK;
            for (r, orow) in out_blk.chunks_exact_mut(k).enumerate() {
                let arow = &a[(i0 + r) * n..(i0 + r + 1) * n];
                for (p, o) in orow.iter_mut().enumerate() {
                    *o = simd::vdot(arow, &b[p * n..(p + 1) * n]);
                }
            }
        });
        return;
    }
    // C[i, p] = Σ_j A[i, j] B[p, j]. Transposing the right operand once
    // lets the kernel vectorize across output columns p while keeping the
    // per-element association of a row dot.
    let mut bt = pool::take_uninit(n * k);
    for (p, row) in b[..k * n].chunks_exact(n.max(1)).enumerate().take(k) {
        for (j, &v) in row.iter().enumerate() {
            bt[j * k + p] = v;
        }
    }
    let body = |blk: usize, out_blk: &mut [f64]| {
        let i0 = blk * ROW_BLOCK;
        let rows = out_blk.len() / k;
        simd::dot_rows(&a[i0 * n..], n, &bt, k, out_blk, rows);
    };
    for_row_blocks(out, k, par, body);
    pool::recycle(Tensor::from_vec([n * k], bt));
}

impl Tensor {
    /// Standard product `C[m,n] = A[m,k] · B[k,n]`.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree or either operand is not rank 2.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        let (m, k) = (self.shape().nrows(), self.shape().ncols());
        let (kb, n) = (b.shape().nrows(), b.shape().ncols());
        assert_eq!(k, kb, "matmul: {} · {}", self.shape(), b.shape());
        let mut out = pool::take_uninit(m * n);
        gemm_nn(self.data(), b.data(), (m, k, n), None, 0, &mut out);
        Tensor::from_vec([m, n], out)
    }

    /// Transposed-left product `C[k,n] = Aᵀ[k,m] · B[m,n]` for `A[m,k]`.
    ///
    /// # Panics
    /// Panics when row counts disagree.
    pub fn matmul_tn(&self, b: &Tensor) -> Tensor {
        let (m, k) = (self.shape().nrows(), self.shape().ncols());
        let (mb, n) = (b.shape().nrows(), b.shape().ncols());
        assert_eq!(m, mb, "matmul_tn: {}ᵀ · {}", self.shape(), b.shape());
        let mut out = pool::take_uninit(k * n);
        gemm_tn(self.data(), b.data(), (m, k, n), &mut out);
        Tensor::from_vec([k, n], out)
    }

    /// Transposed-right product `C[m,k] = A[m,n] · Bᵀ[n,k]` for `B[k,n]`.
    ///
    /// # Panics
    /// Panics when column counts disagree.
    pub fn matmul_nt(&self, b: &Tensor) -> Tensor {
        let (m, n) = (self.shape().nrows(), self.shape().ncols());
        let (k, nb) = (b.shape().nrows(), b.shape().ncols());
        assert_eq!(n, nb, "matmul_nt: {} · {}ᵀ", self.shape(), b.shape());
        let mut out = pool::take_uninit(m * k);
        gemm_nt(self.data(), b.data(), (m, n, k), &mut out);
        Tensor::from_vec([m, k], out)
    }

    /// Dot product of two rank-1 tensors (or any equal-shape tensors,
    /// treated flat).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        simd::vdot(self.data(), other.data())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().nrows(), a.shape().ncols());
        let n = b.shape().ncols();
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(&[i, p]) * b.get(&[p, j]);
                }
                c.set(&[i, j], s);
            }
        }
        c
    }

    #[test]
    fn small_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 1.0]]);
        let c = a.matmul(&Tensor::eye(3));
        assert!(c.approx_eq(&a, 1e-15));
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 3.0], &[4.0, 5.0, 6.0]]);
        let want = naive(&a.transpose(), &b);
        assert!(a.matmul_tn(&b).approx_eq(&want, 1e-12));
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 3.0]]);
        let want = naive(&a, &b.transpose());
        assert!(a.matmul_nt(&b).approx_eq(&want, 1e-12));
    }

    #[test]
    fn large_parallel_matches_naive() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut rand_t = |m: usize, n: usize| {
            Tensor::from_vec(
                [m, n],
                (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>(),
            )
        };
        let a = rand_t(37, 53);
        let b = rand_t(53, 41);
        let c = a.matmul(&b);
        assert!(c.approx_eq(&naive(&a, &b), 1e-10));
        assert!(a
            .matmul_tn(&c)
            .approx_eq(&naive(&a.transpose(), &c), 1e-10));
        assert!(c
            .matmul_nt(&b)
            .approx_eq(&naive(&c, &b.transpose()), 1e-10));
    }

    #[test]
    fn blocked_kernels_match_naive_past_every_block_boundary() {
        // Shapes straddling ROW_BLOCK/K_BLOCK and register-tile edges (including
        // exact multiples and off-by-one ragged tails).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut rand_t = |m: usize, n: usize| {
            Tensor::from_vec(
                [m, n],
                (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>(),
            )
        };
        for (m, k, n) in [
            (ROW_BLOCK, K_BLOCK, 64),
            (ROW_BLOCK + 1, K_BLOCK + 1, 65),
            (2 * ROW_BLOCK - 1, 17, 131),
            (3, K_BLOCK + 7, 5),
            (1, 300, 1),
        ] {
            let a = rand_t(m, k);
            let b = rand_t(k, n);
            assert!(a.matmul(&b).approx_eq(&naive(&a, &b), 1e-10), "{m}x{k}x{n}");
            let at = rand_t(k, m);
            assert!(
                at.matmul_tn(&b).approx_eq(&naive(&at.transpose(), &b), 1e-10),
                "tn {m}x{k}x{n}"
            );
            let bt = rand_t(n, k);
            assert!(
                a.matmul_nt(&bt).approx_eq(&naive(&a, &bt.transpose()), 1e-10),
                "nt {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn tiled_kernels_keep_the_unblocked_association_bit_for_bit() {
        // nn and tn: seed 0 then `+ a·b` in ascending contraction order,
        // exactly the naive triple loop; nt: every element is the `vdot`
        // of its two rows. Shapes overhang every register tile and one
        // contraction panel, and the last three have fewer than SKINNY
        // output columns in tn and nt.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let mut rand_t = |m: usize, n: usize| {
            Tensor::from_vec(
                [m, n],
                (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>(),
            )
        };
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, k, n) in [(37, 19, 45), (6, K_BLOCK + 9, 33), (21, 8, 7), (40, 64, 2), (33, K_BLOCK + 44, 4)] {
            let a = rand_t(m, k);
            let b = rand_t(k, n);
            assert_eq!(bits(&a.matmul(&b)), bits(&naive(&a, &b)), "nn {m}x{k}x{n}");
            let at = rand_t(k, m);
            assert_eq!(
                bits(&at.matmul_tn(&b)),
                bits(&naive(&at.transpose(), &b)),
                "tn {m}x{k}x{n}"
            );
            let bt = rand_t(n, k);
            let c = a.matmul_nt(&bt);
            for i in 0..m {
                for p in 0..n {
                    let want = Tensor::from_slice(a.row(i)).dot(&Tensor::from_slice(bt.row(p)));
                    assert_eq!(c.get(&[i, p]).to_bits(), want.to_bits(), "nt {m}x{k}x{n} [{i},{p}]");
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 4]);
        assert_eq!(a.matmul(&b).shape().dims(), &[0, 4]);
        let a = Tensor::zeros([2, 0]);
        let b = Tensor::zeros([0, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 4]);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, -5.0, 6.0]);
        assert!((a.dot(&b) - 12.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        let _ = a.matmul(&b);
    }
}
