//! Property-based tests for tensor algebra invariants, plus the
//! SIMD-vs-scalar conformance suite: every dispatched kernel must produce
//! bit-identical results at widths 1 (forced scalar), 4 (AVX2) and 8
//! (AVX-512) across ragged shapes whose tails do not divide the lane count.

use crate::simd::{with_width, WIDTH_LOCK};
use crate::{Tensor, PAR_THRESHOLD};
use proptest::prelude::*;

/// Run `f` at forced-scalar width and at every wider width the host
/// supports, asserting the results are bit-identical to the scalar
/// reference (which also bounds them within the 1e-12 contract).
fn assert_width_invariant(f: impl Fn() -> Vec<f64>) {
    assert_width_and_pool_invariant(&[0], f)
}

/// [`assert_width_invariant`] in a pool of each of the `threads` widths
/// (`0` is the default pool): every SIMD width at every pool width must
/// give the bits of the scalar path in the first pool.
fn assert_width_and_pool_invariant(threads: &[usize], f: impl Fn() -> Vec<f64>) {
    let _g = WIDTH_LOCK.lock().unwrap();
    let at = |t: usize, w: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        pool.install(|| with_width(w, &f))
    };
    let want = at(threads[0], 1).expect("scalar always available");
    for &t in threads {
        for w in [1usize, 4, 8] {
            if let Some(got) = at(t, w) {
                assert_eq!(got.len(), want.len());
                for (i, (g, s)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        g.to_bits() == s.to_bits(),
                        "width {w}, pool {t} diverged from scalar at [{i}]: {g} vs {s}"
                    );
                }
            }
        }
    }
}

/// Strategy: `len` arguments in ±50 with every 97th scaled by 1e9, so
/// some fall past the reduction's range.
fn angles(len: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-50.0..50.0f64, len).prop_map(|v| {
        let v: Vec<f64> = v
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 97 == 5 { x * 1e9 } else { *x })
            .collect();
        Tensor::from_slice(&v)
    })
}

/// Strategy: a jet stack of row width 1, 3, 7, 8, 33 or 72 with `k` of
/// 0–3 coordinates and `k2` of 0–`k` second derivatives, either 1–40 rows
/// per block or enough that the sin|cos output reaches the pool, plus a
/// gradient stack of the same rows and twice the width.
fn sine_stack() -> impl Strategy<Value = (usize, usize, Tensor, Tensor)> {
    (0usize..=3, 0usize..6, 1usize..=40, 0usize..2)
        .prop_flat_map(|(k, wi, n, big)| (Just(k), 0..=k, Just(wi), Just(n), Just(big)))
        .prop_flat_map(|(k, k2, wi, n, big)| {
            let w = [1, 3, 7, 8, 33, 72][wi];
            let blocks = 1 + k + k2;
            let n = if big == 1 { PAR_THRESHOLD.div_ceil(2 * w * blocks) + n } else { n };
            let rows = blocks * n;
            let g = proptest::collection::vec(-2.0..2.0f64, 2 * rows * w);
            (Just(k), Just(k2), angles(rows * w), g).prop_map(move |(k, k2, z, g)| {
                (k, k2, z.reshape([rows, w]), Tensor::from_vec([rows, 2 * w], g))
            })
        })
}

/// Strategy: operand pairs that fill and overhang the register tiles —
/// 17–70 rows, widths 1–72 (every other case a multiple of 8), and
/// contraction depths either up to 72 or past one 256-deep panel.
fn tile_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (17usize..=70, 0usize..4, 1usize..=72, 1usize..=9, 1usize..=72, 257usize..=300).prop_flat_map(
        |(m, kind, k_small, n8, n_any, k_deep)| {
            let n = if kind % 2 == 0 { 8 * n8 } else { n_any };
            let k = if kind < 2 { k_small } else { k_deep };
            let a = proptest::collection::vec(-5.0..5.0f64, m * k)
                .prop_map(move |v| Tensor::from_vec([m, k], v));
            let b = proptest::collection::vec(-5.0..5.0f64, k * n)
                .prop_map(move |v| Tensor::from_vec([k, n], v));
            (a, b)
        },
    )
}

/// Strategy: a jet stack with `k` of 0–3 coordinates, `k2` of 0–`k`
/// second derivatives, 1–40 rows per block and width 1–72, plus a
/// gradient stack of the same rows and twice the width.
fn jet_stack() -> impl Strategy<Value = (usize, usize, Tensor, Tensor)> {
    (0usize..=3, 1usize..=40, 1usize..=72)
        .prop_flat_map(|(k, n, w)| (Just(k), 0..=k, Just(n), Just(w)))
        .prop_flat_map(|(k, k2, n, w)| {
            let rows = (1 + k + k2) * n;
            let z = proptest::collection::vec(-3.0..3.0f64, rows * w)
                .prop_map(move |v| Tensor::from_vec([rows, w], v));
            let g = proptest::collection::vec(-2.0..2.0f64, 2 * rows * w)
                .prop_map(move |v| Tensor::from_vec([rows, 2 * w], v));
            (Just(k), Just(k2), z, g)
        })
}

/// Strategy: a rank-2 tensor with bounded dims and moderate values.
fn mat(max: usize) -> impl Strategy<Value = Tensor> {
    (1..=max, 1..=max).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0..10.0f64, m * n)
            .prop_map(move |v| Tensor::from_vec([m, n], v))
    })
}

fn mat_pair(max: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max, 1..=max, 1..=max).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-5.0..5.0f64, m * k)
            .prop_map(move |v| Tensor::from_vec([m, k], v));
        let b = proptest::collection::vec(-5.0..5.0f64, k * n)
            .prop_map(move |v| Tensor::from_vec([k, n], v));
        (a, b)
    })
}

proptest! {
    #[test]
    fn add_commutes(t in mat(6)) {
        let u = t.scale(0.5);
        prop_assert!(t.add(&u).approx_eq(&u.add(&t), 1e-12));
    }

    #[test]
    fn sub_then_add_roundtrips(t in mat(6)) {
        let u = t.map(|x| x.sin());
        let r = t.sub(&u).add(&u);
        prop_assert!(r.approx_eq(&t, 1e-12));
    }

    #[test]
    fn scale_distributes_over_add(t in mat(6), c in -3.0..3.0f64) {
        let u = t.map(|x| x * 0.3 + 1.0);
        let lhs = t.add(&u).scale(c);
        let rhs = t.scale(c).add(&u.scale(c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn matmul_agrees_with_naive(
        (a, b) in mat_pair(8)
    ) {
        let c = a.matmul(&b);
        let (m, k) = (a.shape().nrows(), a.shape().ncols());
        let n = b.shape().ncols();
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(&[i, p]) * b.get(&[p, j]);
                }
                prop_assert!((c.get(&[i, j]) - s).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matmul_tn_nt_consistency((a, b) in mat_pair(8)) {
        // Aᵀ·C computed directly must equal transpose-then-matmul; same for
        // the NT kernel.
        let c = a.matmul(&b);
        let t1 = a.matmul_tn(&c);
        let t2 = a.transpose().matmul(&c);
        prop_assert!(t1.approx_eq(&t2, 1e-9));
        let u1 = c.matmul_nt(&b);
        let u2 = c.matmul(&b.transpose());
        prop_assert!(u1.approx_eq(&u2, 1e-9));
    }

    #[test]
    fn transpose_preserves_norm(t in mat(8)) {
        prop_assert!((t.norm() - t.transpose().norm()).abs() < 1e-10);
    }

    #[test]
    fn sum_rows_plus_cols_totals(t in mat(8)) {
        let total = t.sum();
        prop_assert!((t.sum_rows().sum() - total).abs() < 1e-9);
        prop_assert!((t.sum_cols().sum() - total).abs() < 1e-9);
    }

    #[test]
    fn mse_is_mean_of_squares(t in mat(8)) {
        let want = t.data().iter().map(|x| x * x).sum::<f64>() / t.len() as f64;
        prop_assert!((t.mse() - want).abs() < 1e-10);
    }

    #[test]
    fn hstack_then_columns_roundtrip(t in mat(6)) {
        let cols: Vec<Tensor> = (0..t.shape().ncols()).map(|j| Tensor::column(&t.col(j))).collect();
        let refs: Vec<&Tensor> = cols.iter().collect();
        let stacked = Tensor::hstack(&refs);
        prop_assert!(stacked.approx_eq(&t, 0.0));
    }

    #[test]
    fn simd_elementwise_width_invariant(
        v in proptest::collection::vec(-6.0..6.0f64, 1..67),
        c in -3.0..3.0f64,
    ) {
        // Ragged 1..67 lengths hit every n % 4 and n % 8 tail case.
        let x = Tensor::from_slice(&v);
        let y = x.map(|e| e * 0.37 - 0.11);
        assert_width_invariant(|| {
            let mut out = Vec::new();
            out.extend_from_slice(x.add(&y).data());
            out.extend_from_slice(x.sub(&y).data());
            out.extend_from_slice(x.mul(&y).data());
            out.extend_from_slice(x.div(&y.abs().add_scalar(1.0)).data());
            out.extend_from_slice(x.scale(c).data());
            out.extend_from_slice(x.add_scalar(c).data());
            out.extend_from_slice(x.neg().data());
            out.extend_from_slice(x.square().data());
            out.extend_from_slice(x.abs().sqrt().data());
            out.extend_from_slice(x.abs().add_scalar(0.5).recip().data());
            out.extend_from_slice(x.tanh().data());
            out.extend_from_slice(x.exp().data());
            let mut acc = y.clone();
            acc.axpy(c, &x);
            out.extend_from_slice(acc.data());
            out
        });
    }

    #[test]
    fn simd_reductions_width_invariant(
        v in proptest::collection::vec(-6.0..6.0f64, 1..131),
    ) {
        let x = Tensor::from_slice(&v);
        let y = x.map(|e| e.cos());
        assert_width_invariant(|| {
            vec![x.sum(), x.sum_sq(), x.dot(&y)]
        });
    }

    #[test]
    fn simd_matmul_width_invariant((a, b) in mat_pair(9)) {
        assert_width_invariant(|| {
            let c = a.matmul(&b);
            let mut out = Vec::new();
            out.extend_from_slice(c.data());
            out.extend_from_slice(a.matmul_tn(&c).data());
            out.extend_from_slice(c.matmul_nt(&b).data());
            out
        });
    }

    #[test]
    fn simd_fused_width_invariant((a, b) in mat_pair(9)) {
        let bias = Tensor::from_vec(
            [b.shape().ncols()],
            (0..b.shape().ncols()).map(|j| (j as f64) * 0.21 - 0.4).collect::<Vec<_>>(),
        );
        assert_width_invariant(|| {
            let mut out = Vec::new();
            out.extend_from_slice(a.one_minus_square().data());
            // The bias seeded into every row of a bias-first `gemm_nn`.
            out.extend_from_slice(a.jet_affine(&b, Some(&bias), a.shape().nrows()).data());
            out
        });
    }

    #[test]
    fn simd_jet_kernels_width_invariant((k, k2, z, g2) in jet_stack()) {
        // Forward and backward of every jet-stack kernel, compared with
        // the scalar path bit for bit. `g2` is twice as wide as `z`: the
        // sin|cos pair's output gradient; its left half serves the others.
        let (rows, w) = (z.shape().nrows(), z.shape().ncols());
        let g = Tensor::from_vec(
            [rows, w],
            g2.data().chunks(2 * w).flat_map(|r| r[..w].to_vec()).collect::<Vec<_>>(),
        );
        let wt = Tensor::from_vec([w, 3], (0..3 * w).map(|i| (i as f64 * 0.37).sin()).collect::<Vec<_>>());
        let bias = Tensor::from_slice(&[0.25, -0.5, 1.0]);
        let g3 = Tensor::from_vec([rows, 3], g.data()[..rows * 3.min(w)].iter().cycle().take(rows * 3).copied().collect::<Vec<_>>());
        assert_width_invariant(|| {
            let mut out = Vec::new();
            let t = z.jet_tanh(k, k2);
            out.extend_from_slice(t.data());
            out.extend_from_slice(z.jet_tanh_backward(&t, &g, k, k2).data());
            let (s, c) = z.jet_sin(k, k2);
            out.extend_from_slice(s.data());
            out.extend_from_slice(z.jet_sin_backward(&s, &c, &g, k, k2).data());
            let sc = z.jet_sin_cos(k, k2);
            out.extend_from_slice(sc.data());
            out.extend_from_slice(z.jet_sin_cos_backward(&sc, &g2, k, k2).data());
            let n = rows / (1 + k + k2);
            out.extend_from_slice(z.jet_affine(&wt, Some(&bias), n).data());
            let grads = z.jet_affine_backward(&wt, &g3, 1 + k + k2, (true, true, true));
            for t in grads.x.iter().chain(&grads.w).chain(&grads.b) {
                out.extend_from_slice(t.data());
            }
            out
        });
    }

    #[test]
    fn simd_tanh_matches_scalar_reference(
        v in proptest::collection::vec(-40.0..40.0f64, 1..50),
    ) {
        // Accuracy against libm (not just cross-width consistency): the
        // shared polynomial kernel must stay within 1e-12 of `f64::tanh`
        // and `f64::exp` everywhere the PINN stack evaluates them.
        let x = Tensor::from_slice(&v);
        let t = x.tanh();
        for (got, xi) in t.data().iter().zip(&v) {
            prop_assert!((got - xi.tanh()).abs() <= 1e-12);
        }
        let clipped = x.scale(0.25);
        for (got, xi) in clipped.exp().data().iter().zip(clipped.data()) {
            let want = xi.exp();
            prop_assert!(((got - want) / want).abs() <= 1e-12);
        }
    }

    #[test]
    fn bias_broadcast_matches_manual(t in mat(6)) {
        let n = t.shape().ncols();
        let bias = Tensor::linspace(-1.0, 1.0, n.max(2)).into_vec();
        let bias = Tensor::from_slice(&bias[..n]);
        let out = t.add_row_broadcast(&bias);
        for i in 0..t.shape().nrows() {
            for j in 0..n {
                prop_assert!((out.get(&[i, j]) - (t.get(&[i, j]) + bias.data()[j])).abs() < 1e-12);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_sin_cos_width_and_pool_invariant(
        x in (0usize..2, 1usize..67, 0usize..200).prop_flat_map(|(big, small, extra)| {
            // Lengths on both sides of the parallel cutoff, ragged against
            // every lane count and the chunk size.
            angles(if big == 1 { PAR_THRESHOLD - 100 + extra } else { small })
        }),
    ) {
        assert_width_and_pool_invariant(&[1, 2], || {
            let mut out = x.sin().into_vec();
            out.extend_from_slice(x.cos().data());
            out
        });
    }

    #[test]
    fn simd_sine_jets_width_and_pool_invariant((k, k2, z, g2) in sine_stack()) {
        let (rows, w) = (z.shape().nrows(), z.shape().ncols());
        let g = Tensor::from_vec(
            [rows, w],
            g2.data().chunks(2 * w).flat_map(|r| r[..w].to_vec()).collect::<Vec<_>>(),
        );
        assert_width_and_pool_invariant(&[1, 2], || {
            let mut out = Vec::new();
            let (s, c) = z.jet_sin(k, k2);
            out.extend_from_slice(s.data());
            out.extend_from_slice(c.data());
            out.extend_from_slice(z.jet_sin_backward(&s, &c, &g, k, k2).data());
            let sc = z.jet_sin_cos(k, k2);
            out.extend_from_slice(sc.data());
            out.extend_from_slice(z.jet_sin_cos_backward(&sc, &g2, k, k2).data());
            out
        });
    }

    #[test]
    fn simd_matmul_tiles_width_invariant((a, b) in tile_pair()) {
        assert_width_invariant(|| {
            let c = a.matmul(&b);
            let mut out = Vec::new();
            out.extend_from_slice(c.data());
            out.extend_from_slice(a.matmul_tn(&c).data());
            out.extend_from_slice(c.matmul_nt(&b).data());
            out
        });
    }

    #[test]
    fn simd_fused_tiles_width_invariant((a, b) in tile_pair()) {
        let n = b.shape().ncols();
        let bias = Tensor::from_vec([n], (0..n).map(|j| (j as f64) * 0.21 - 0.4).collect::<Vec<_>>());
        let rows = a.shape().nrows();
        assert_width_invariant(|| {
            let mut out = Vec::new();
            // Bias on a ragged leading block of rows only.
            out.extend_from_slice(a.jet_affine(&b, Some(&bias), rows / 3).data());
            out
        });
    }
}
