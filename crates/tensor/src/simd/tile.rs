//! Register-blocked matmul micro-kernels.
//!
//! A tile keeps `R × V` vectors of accumulators in registers while it
//! streams the shared operand: each loaded row of `B` serves `R` output
//! rows, and each broadcast coefficient serves `V` vectors of columns.
//! Tile shapes are const generics so the accumulator arrays unroll into
//! registers; with runtime bounds they spill to the stack and the
//! blocking buys nothing. One algorithm serves every width through
//! [`Lanes`]:
//!
//! | width | `nn`/`tn` tile | `nt` tile |
//! |---|---|---|
//! | AVX-512 (8) | 4 rows × 32 columns | 2 rows × 8 columns × 8 lanes |
//! | AVX2 (4) | 4 rows × 8 columns | 1 row × 4 columns × 8 lanes |
//! | scalar (1) | 4 rows × 4 columns | 1 row × 1 column × 8 lanes |
//!
//! Columns left over after the full tiles run through one-vector tiles,
//! then one-column `f64` tiles; rows left over run through one-row tiles.
//!
//! **Bit-identity.** [`axpy_panel`] replays, per output element, the chain
//! `acc = seed; acc = acc + c_t · b_t` for ascending `t` — exactly the
//! unblocked i-k-j kernel — so a tile only replaces exact store/reload
//! round trips. [`dot_rows`] gives every output element the association of
//! [`super::vdot`]: eight lane partials over the `len − len % 8` prefix,
//! the fixed `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` tree, then the tail in
//! ascending order. Both are therefore bit-identical at every width and
//! tile shape.

#[cfg(target_arch = "x86_64")]
use super::{V4, V8};
use super::{width, Lanes};

/// Where a panel's accumulators start.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PanelSeed<'a> {
    /// From zero (a fresh product).
    Zero,
    /// From the values already in the output (a later contraction panel).
    Out,
    /// The first `rows` output rows start from this bias row; the others
    /// start from zero.
    Bias(&'a [f64], usize),
}

/// [`PanelSeed`] with the bias as a raw pointer offset to a tile's first
/// column.
#[derive(Clone, Copy)]
enum Seed {
    Zero,
    Out,
    Bias(*const f64, usize),
}

impl Seed {
    #[inline(always)]
    fn rows_from(self, r0: usize) -> Seed {
        match self {
            Seed::Bias(p, rows) => Seed::Bias(p, rows.saturating_sub(r0)),
            s => s,
        }
    }

    #[inline(always)]
    unsafe fn col(self, j: usize) -> Seed {
        match self {
            Seed::Bias(p, rows) => Seed::Bias(p.add(j), rows),
            s => s,
        }
    }
}

/// `R` rows × `V` vectors of `out[r, j] = seed + Σ_{t<nk} c[r·rs + t·ts] ·
/// b[t·ldb + j]`, ascending `t`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_tile<L: Lanes, const R: usize, const V: usize>(
    c: *const f64,
    rs: usize,
    ts: usize,
    nk: usize,
    b: *const f64,
    ldb: usize,
    o: *mut f64,
    ldo: usize,
    seed: Seed,
) {
    let mut acc = [[L::splat(0.0); V]; R];
    match seed {
        Seed::Zero => {}
        Seed::Out => {
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, a) in row.iter_mut().enumerate() {
                    *a = L::ld(o.add(r * ldo + v * L::W));
                }
            }
        }
        Seed::Bias(bias, rows) => {
            for row in acc.iter_mut().take(rows) {
                for (v, a) in row.iter_mut().enumerate() {
                    *a = L::ld(bias.add(v * L::W));
                }
            }
        }
    }
    for t in 0..nk {
        let bt = b.add(t * ldb);
        let mut bv = [L::splat(0.0); V];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = L::ld(bt.add(v * L::W));
        }
        let ct = c.add(t * ts);
        for (r, row) in acc.iter_mut().enumerate() {
            let cv = L::splat(*ct.add(r * rs));
            for (a, x) in row.iter_mut().zip(&bv) {
                *a = a.add(cv.mul(*x));
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, a) in row.iter().enumerate() {
            a.st(o.add(r * ldo + v * L::W));
        }
    }
}

/// One group of `R` rows across all `n` columns: full tiles, then
/// one-vector tiles, then one-column tiles.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_rows<L: Lanes, const R: usize, const V: usize>(
    c: *const f64,
    rs: usize,
    ts: usize,
    nk: usize,
    b: *const f64,
    ldb: usize,
    n: usize,
    o: *mut f64,
    ldo: usize,
    seed: Seed,
) {
    let step = V * L::W;
    let mut j = 0;
    while j + step <= n {
        axpy_tile::<L, R, V>(c, rs, ts, nk, b.add(j), ldb, o.add(j), ldo, seed.col(j));
        j += step;
    }
    while j + L::W <= n {
        axpy_tile::<L, R, 1>(c, rs, ts, nk, b.add(j), ldb, o.add(j), ldo, seed.col(j));
        j += L::W;
    }
    while j < n {
        axpy_tile::<f64, R, 1>(c, rs, ts, nk, b.add(j), ldb, o.add(j), ldo, seed.col(j));
        j += 1;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_panel_drive<L: Lanes, const R: usize, const V: usize>(
    c: *const f64,
    rs: usize,
    ts: usize,
    nk: usize,
    b: *const f64,
    ldb: usize,
    n: usize,
    o: *mut f64,
    ldo: usize,
    rows: usize,
    seed: Seed,
) {
    let mut r0 = 0;
    while r0 + R <= rows {
        let s = seed.rows_from(r0);
        axpy_rows::<L, R, V>(c.add(r0 * rs), rs, ts, nk, b, ldb, n, o.add(r0 * ldo), ldo, s);
        r0 += R;
    }
    while r0 < rows {
        let s = seed.rows_from(r0);
        axpy_rows::<L, 1, V>(c.add(r0 * rs), rs, ts, nk, b, ldb, n, o.add(r0 * ldo), ldo, s);
        r0 += 1;
    }
}

/// `R` rows × `V` vectors of `out[r, j] = Σ_t a[r·lda + t] · bt[t·ldbt + j]`
/// in the eight-lane association of `vdot`.
#[inline(always)]
unsafe fn dot_tile<L: Lanes, const R: usize, const V: usize>(
    a: *const f64,
    lda: usize,
    n: usize,
    bt: *const f64,
    ldbt: usize,
    o: *mut f64,
    ldo: usize,
) {
    let main = n - n % 8;
    let mut acc = [[[L::splat(0.0); 8]; V]; R];
    let mut t = 0;
    while t < main {
        for l in 0..8 {
            let brow = bt.add((t + l) * ldbt);
            let mut bv = [L::splat(0.0); V];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = L::ld(brow.add(v * L::W));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = L::splat(*a.add(r * lda + t + l));
                for (lanes, x) in row.iter_mut().zip(&bv) {
                    lanes[l] = lanes[l].add(av.mul(*x));
                }
            }
        }
        t += 8;
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, x) in row.iter().enumerate() {
            let mut tot = x[0]
                .add(x[1])
                .add(x[2].add(x[3]))
                .add(x[4].add(x[5]).add(x[6].add(x[7])));
            for t in main..n {
                let av = L::splat(*a.add(r * lda + t));
                tot = tot.add(av.mul(L::ld(bt.add(t * ldbt + v * L::W))));
            }
            tot.st(o.add(r * ldo + v * L::W));
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn dot_cols<L: Lanes, const R: usize, const V: usize>(
    a: *const f64,
    lda: usize,
    n: usize,
    bt: *const f64,
    k: usize,
    o: *mut f64,
    ldo: usize,
) {
    let step = V * L::W;
    let mut j = 0;
    while j + step <= k {
        dot_tile::<L, R, V>(a, lda, n, bt.add(j), k, o.add(j), ldo);
        j += step;
    }
    while j + L::W <= k {
        dot_tile::<L, R, 1>(a, lda, n, bt.add(j), k, o.add(j), ldo);
        j += L::W;
    }
    while j < k {
        dot_tile::<f64, R, 1>(a, lda, n, bt.add(j), k, o.add(j), ldo);
        j += 1;
    }
}

#[inline(always)]
unsafe fn dot_rows_drive<L: Lanes, const R: usize, const V: usize>(
    a: *const f64,
    n: usize,
    bt: *const f64,
    k: usize,
    o: *mut f64,
    rows: usize,
) {
    let mut r0 = 0;
    while r0 + R <= rows {
        dot_cols::<L, R, V>(a.add(r0 * n), n, n, bt, k, o.add(r0 * k), k);
        r0 += R;
    }
    while r0 < rows {
        dot_cols::<L, 1, V>(a.add(r0 * n), n, n, bt, k, o.add(r0 * k), k);
        r0 += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_panel_w4(
    c: *const f64,
    rs: usize,
    ts: usize,
    nk: usize,
    b: *const f64,
    ldb: usize,
    n: usize,
    o: *mut f64,
    ldo: usize,
    rows: usize,
    seed: Seed,
) {
    axpy_panel_drive::<V4, 4, 2>(c, rs, ts, nk, b, ldb, n, o, ldo, rows, seed)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_panel_w8(
    c: *const f64,
    rs: usize,
    ts: usize,
    nk: usize,
    b: *const f64,
    ldb: usize,
    n: usize,
    o: *mut f64,
    ldo: usize,
    rows: usize,
    seed: Seed,
) {
    axpy_panel_drive::<V8, 4, 4>(c, rs, ts, nk, b, ldb, n, o, ldo, rows, seed)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_rows_w4(a: *const f64, n: usize, bt: *const f64, k: usize, o: *mut f64, rows: usize) {
    dot_rows_drive::<V4, 1, 1>(a, n, bt, k, o, rows)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_rows_w8(a: *const f64, n: usize, bt: *const f64, k: usize, o: *mut f64, rows: usize) {
    dot_rows_drive::<V8, 2, 1>(a, n, bt, k, o, rows)
}

/// One contraction panel of a matmul over `rows` output rows and `n`
/// columns: `out[r·ldo + j] = seed + Σ_{t<nk} coef[r·rs + t·ts] ·
/// b[t·ldb + j]`, accumulated in ascending `t`. `matmul` passes
/// `(rs, ts) = (k, 1)` (rows of `A`), `matmul_tn` passes `(1, k)`
/// (columns of `A`).
///
/// # Panics
/// Panics when an operand is too short for the extents.
#[allow(clippy::too_many_arguments)]
pub(crate) fn axpy_panel(
    coef: &[f64],
    rs: usize,
    ts: usize,
    nk: usize,
    b: &[f64],
    ldb: usize,
    n: usize,
    out: &mut [f64],
    ldo: usize,
    rows: usize,
    seed: PanelSeed<'_>,
) {
    if rows == 0 || n == 0 {
        return;
    }
    assert!(out.len() >= (rows - 1) * ldo + n, "axpy_panel: output extent");
    if nk > 0 {
        assert!(coef.len() > (rows - 1) * rs + (nk - 1) * ts, "axpy_panel: coefficient extent");
        assert!(b.len() >= (nk - 1) * ldb + n, "axpy_panel: operand extent");
    }
    let seed = match seed {
        PanelSeed::Zero => Seed::Zero,
        PanelSeed::Out => Seed::Out,
        PanelSeed::Bias(bias, brows) => {
            assert!(bias.len() >= n, "axpy_panel: bias extent");
            Seed::Bias(bias.as_ptr(), brows)
        }
    };
    let (c, bp, o) = (coef.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    // SAFETY: the asserts above bound every offset the tiles touch, and
    // the wide paths run only when dispatch detected their feature.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => axpy_panel_w4(c, rs, ts, nk, bp, ldb, n, o, ldo, rows, seed),
            #[cfg(target_arch = "x86_64")]
            8 => axpy_panel_w8(c, rs, ts, nk, bp, ldb, n, o, ldo, rows, seed),
            _ => axpy_panel_drive::<f64, 4, 4>(c, rs, ts, nk, bp, ldb, n, o, ldo, rows, seed),
        }
    }
}

/// `out[r·k + j] = a[r·n ..][..n] · bt[.. j]` for `rows` rows of `a` against
/// the columns of the transposed operand `bt[n, k]` — the `matmul_nt` rows
/// with `vdot`'s association.
///
/// # Panics
/// Panics when an operand is too short for the extents.
pub(crate) fn dot_rows(a: &[f64], n: usize, bt: &[f64], k: usize, out: &mut [f64], rows: usize) {
    if rows == 0 || k == 0 {
        return;
    }
    assert!(a.len() >= rows * n, "dot_rows: row extent");
    assert!(bt.len() >= n * k, "dot_rows: operand extent");
    assert!(out.len() >= rows * k, "dot_rows: output extent");
    let (ap, bp, o) = (a.as_ptr(), bt.as_ptr(), out.as_mut_ptr());
    // SAFETY: as in `axpy_panel`.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => dot_rows_w4(ap, n, bp, k, o, rows),
            #[cfg(target_arch = "x86_64")]
            8 => dot_rows_w8(ap, n, bp, k, o, rows),
            _ => dot_rows_drive::<f64, 1, 1>(ap, n, bp, k, o, rows),
        }
    }
}
