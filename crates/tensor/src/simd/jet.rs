//! Elementwise kernels of the stacked second-order jet.
//!
//! A jet stack holds `1 + k + k₂` equal row blocks — the value, the first
//! derivatives `d_0 … d_{k−1}` and the diagonal second derivatives
//! `dd_0 … dd_{k₂−1}` of the leading `k₂ ≤ k` coordinates — and every
//! kernel here receives one chunk of each block as a slice (`blocks[0]`
//! value, `blocks[1 + i]` first, `blocks[1 + k + i]` second derivative).
//! `k₂ = k` is the full jet; a coordinate past `k₂` carries only its
//! first derivative, so its `σ''` terms are neither computed nor unwound.
//!
//! **Bit-identity.** Each kernel replays, per element, the IEEE operation
//! sequence of the per-block tape chain it replaces: the forward formulas
//! of the old `Jet::tanh`/`sin`/`cos`, and a backward pass that visits the
//! old nodes in reverse creation order. Where the old tape accumulated
//! several contributions into one gradient slot, the first contribution
//! is assigned and later ones are added in the same order. No kernel uses
//! a fused multiply-add, so the vector paths agree bit for bit with the
//! scalar path. The sine and cosine themselves are not here: the callers
//! evaluate them once per value element with [`super::sincos`] or
//! [`super::sincos_rows`] and pass the values in.
//!
//! **Safety.** Every `unsafe fn` here reads and writes whole lane vectors
//! by raw offset. Its caller guarantees that each block slice holds
//! `1 + k + k₂` blocks with `k₂ ≤ k`, and that every block is long enough
//! for the offsets it touches (`e + L::W` elements, or the `[sin | cos]`
//! row offsets of the sin|cos kernels); the `pub(crate)` entry points
//! check both before they dispatch, and run a wide lane type only on a
//! host that reports its feature.

#[cfg(target_arch = "x86_64")]
use super::{V4, V8};
use super::{tanh_l, width, Lanes};

#[inline(always)]
unsafe fn at<L: Lanes>(s: &[f64], e: usize) -> L {
    L::ld(s.as_ptr().add(e))
}

#[inline(always)]
unsafe fn put<L: Lanes>(v: L, d: &mut [f64], e: usize) {
    v.st(d.as_mut_ptr().add(e))
}

#[inline(always)]
unsafe fn neg<L: Lanes>(x: L) -> L {
    x.xor(L::splat(-0.0))
}

/// Forward of `σ` given `σ'` and `σ''` at one vector of elements:
/// `d_i = σ'·z′_i` for every coordinate, `dd_i = σ''·(z′_i·z′_i) +
/// σ'·z″_i` for the first `k2`, reading `z` at offset `ez` and writing
/// `o` at offset `eo`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn derivs_fwd<L: Lanes>(
    sp: L,
    spp: L,
    z: &[&[f64]],
    ez: usize,
    o: &mut [&mut [f64]],
    eo: usize,
    k: usize,
    k2: usize,
) {
    for i in 0..k {
        let zp = at::<L>(z[1 + i], ez);
        put(sp.mul(zp), o[1 + i], eo);
        if i < k2 {
            let zpp = at::<L>(z[1 + k + i], ez);
            put(spp.mul(zp.mul(zp)).add(sp.mul(zpp)), o[1 + k + i], eo);
        }
    }
}

/// Backward through the per-coordinate nodes of one `σ` jet, visited from
/// the last coordinate to the first (`dd_i`, `σ'·z″_i`, `σ''·z′_i²`,
/// `z′_i²`, `d_i`; only `d_i` past `k2`). Reads `z` and writes `∂z′_i`,
/// `∂z″_i` at offset `ez` (adding to the slots when `acc` is set: a later
/// jet already wrote them), reads `g` at `eg`, and returns `(∂σ', ∂σ'')`.
/// The first contribution to `∂σ'` and to `∂σ''` is assigned; with
/// `k2 = 0` nothing reaches `∂σ''`, and the caller must not read it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn derivs_bwd<L: Lanes>(
    sp: L,
    spp: L,
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    ez: usize,
    eg: usize,
    k: usize,
    k2: usize,
    acc: bool,
) -> (L, L) {
    let two = L::splat(2.0);
    let mut gsp = L::splat(0.0);
    let mut gspp = L::splat(0.0);
    for i in (0..k).rev() {
        let zp = at::<L>(z[1 + i], ez);
        let gd = at::<L>(g[1 + i], eg);
        let mut gzp;
        if i < k2 {
            let zpp = at::<L>(z[1 + k + i], ez);
            let gdd = at::<L>(g[1 + k + i], eg);
            // σ'·z″_i: ∂σ' += gdd·z″_i, ∂z″_i += gdd·σ'.
            let a = gdd.mul(zpp);
            gsp = if i + 1 == k { a } else { gsp.add(a) };
            let mut gzpp = gdd.mul(sp);
            // σ''·z′_i²: ∂σ'' += gdd·z′_i², then z′_i² passes 2·z′_i on.
            let b = gdd.mul(zp.mul(zp));
            gspp = if i + 1 == k2 { b } else { gspp.add(b) };
            gzp = gdd.mul(spp).mul(two.mul(zp));
            if acc {
                gzpp = at::<L>(dz[1 + k + i], ez).add(gzpp);
                gzp = at::<L>(dz[1 + i], ez).add(gzp);
            }
            put(gzpp, dz[1 + k + i], ez);
            // d_i = σ'·z′_i.
            gsp = gsp.add(gd.mul(zp));
            gzp = gzp.add(gd.mul(sp));
        } else {
            // No dd_i block: d_i = σ'·z′_i is the coordinate's only node.
            let a = gd.mul(zp);
            gsp = if i + 1 == k { a } else { gsp.add(a) };
            gzp = gd.mul(sp);
            if acc {
                gzp = at::<L>(dz[1 + i], ez).add(gzp);
            }
        }
        put(gzp, dz[1 + i], ez);
    }
    (gsp, gspp)
}

#[inline(always)]
unsafe fn tanh_fwd_at<L: Lanes>(z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize, e: usize) {
    let u = tanh_l(at::<L>(z[0], e));
    let sp = L::splat(1.0).sub(u.mul(u));
    let spp = L::splat(-2.0).mul(u).mul(sp);
    put(u, o[0], e);
    derivs_fwd(sp, spp, z, e, o, e, k, k2);
}

/// `u = tanh z`, `σ' = 1 − u²`, `σ'' = (−2·u)·σ'`. Backward: the
/// coordinate nodes, then `σ''` and `−2u` (which only `dd` blocks read),
/// `σ'` and `tanh` in that order.
#[inline(always)]
unsafe fn tanh_bwd_at<L: Lanes>(
    y: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    e: usize,
) {
    let one = L::splat(1.0);
    let m2 = L::splat(-2.0);
    let u = at::<L>(y, e);
    let mut gu = at::<L>(g[0], e);
    if k > 0 {
        let sp = one.sub(u.mul(u));
        let m2u = m2.mul(u);
        let spp = m2u.mul(sp);
        let (mut gsp, gspp) = derivs_bwd(sp, spp, z, g, dz, e, e, k, k2, false);
        if k2 > 0 {
            let gm2u = gspp.mul(sp);
            gsp = gsp.add(gspp.mul(m2u));
            gu = gu.add(m2.mul(gm2u));
        }
        gu = gu.add(m2.mul(gsp.mul(u)));
    }
    put(gu.mul(one.sub(u.mul(u))), dz[0], e);
}

/// `σ' = cos z` (from `c`), `σ'' = −sin z = −u`.
#[inline(always)]
unsafe fn sin_fwd_at<L: Lanes>(
    c: &[f64],
    z: &[&[f64]],
    o: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    e: usize,
) {
    let s = at::<L>(o[0], e);
    derivs_fwd(at::<L>(c, e), neg(s), z, e, o, e, k, k2);
}

/// Backward of the old `sin z`, `cos z`, `sin z`, `−sin z` node quartet:
/// `∂z = ((−∂σ'')·cos + ∂σ'·(−sin)) + ∂u·cos`, without the `∂σ''` term
/// when no `dd` block exists.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn sin_bwd_at<L: Lanes>(
    y: &[f64],
    c: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    e: usize,
) {
    let s = at::<L>(y, e);
    let c = at::<L>(c, e);
    let gu = at::<L>(g[0], e);
    let gz = if k > 0 {
        let (gsp, gspp) = derivs_bwd(c, neg(s), z, g, dz, e, e, k, k2, false);
        let gz = if k2 > 0 {
            neg(gspp).mul(c).add(gsp.mul(neg(s)))
        } else {
            gsp.mul(neg(s))
        };
        gz.add(gu.mul(c))
    } else {
        gu.mul(c)
    };
    put(gz, dz[0], e);
}

/// Sine and cosine jets at one vector of row `r`, column `j`: the
/// derivative blocks from the `[sin | cos]` value row already in `o[0]`.
#[inline(always)]
unsafe fn sincos_fwd_at<L: Lanes>(
    z: &[&[f64]],
    o: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    w: usize,
    r: usize,
    j: usize,
) {
    let (ez, so, co) = (r * w + j, r * 2 * w + j, r * 2 * w + w + j);
    let s = at::<L>(o[0], so);
    let c = at::<L>(o[0], co);
    // sin jet: σ' = cos, σ'' = −sin; cos jet: σ' = −sin, σ'' = −cos.
    derivs_fwd(c, neg(s), z, ez, o, so, k, k2);
    derivs_fwd(neg(s), neg(c), z, ez, o, co, k, k2);
}

/// Backward of the sin|cos pair at one vector of row `r`, column `j`. The
/// cosine jet's nodes were created after the sine jet's, so its
/// contributions come first.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn sincos_bwd_at<L: Lanes>(
    y: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    w: usize,
    r: usize,
    j: usize,
) {
    let (ez, so, co) = (r * w + j, r * 2 * w + j, r * 2 * w + w + j);
    let s = at::<L>(y, so);
    let c = at::<L>(y, co);
    let ns = neg(s);
    let gsu = at::<L>(g[0], so);
    let gcu = at::<L>(g[0], co);
    let mut gz;
    if k > 0 {
        // cos jet: u = cos, σ' = −sin, σ'' = −cos; its value-side nodes
        // (cos, sin, −sin, cos, −cos) unwind as −cos, cos, −sin, sin, cos,
        // the first two only when a `dd` block reads σ''.
        let (gspc, gsppc) = derivs_bwd(ns, neg(c), z, g, dz, ez, co, k, k2, false);
        if k2 > 0 {
            gz = neg(gsppc).mul(ns);
            gz = gz.add(neg(gspc).mul(c));
        } else {
            gz = neg(gspc).mul(c);
        }
        gz = gz.add(gcu.mul(ns));
        // sin jet: u = sin, σ' = cos, σ'' = −sin (sin, cos, sin, −sin).
        let (gsps, gspps) = derivs_bwd(c, ns, z, g, dz, ez, so, k, k2, true);
        if k2 > 0 {
            gz = gz.add(neg(gspps).mul(c));
        }
        gz = gz.add(gsps.mul(ns));
        gz = gz.add(gsu.mul(c));
    } else {
        gz = gcu.mul(ns).add(gsu.mul(c));
    }
    put(gz, dz[0], ez);
}

// ---------------------------------------------------------------------------
// Drive loops: full vectors, then the tail through the f64 lane.
// ---------------------------------------------------------------------------

#[inline(always)]
unsafe fn tanh_fwd_drive<L: Lanes>(z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize) {
    let len = z[0].len();
    let main = len - len % L::W;
    let mut e = 0;
    while e < main {
        tanh_fwd_at::<L>(z, o, k, k2, e);
        e += L::W;
    }
    while e < len {
        tanh_fwd_at::<f64>(z, o, k, k2, e);
        e += 1;
    }
}

#[inline(always)]
unsafe fn tanh_bwd_drive<L: Lanes>(
    y: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
) {
    let len = y.len();
    let main = len - len % L::W;
    let mut e = 0;
    while e < main {
        tanh_bwd_at::<L>(y, z, g, dz, k, k2, e);
        e += L::W;
    }
    while e < len {
        tanh_bwd_at::<f64>(y, z, g, dz, k, k2, e);
        e += 1;
    }
}

#[inline(always)]
unsafe fn sin_fwd_drive<L: Lanes>(
    c: &[f64],
    z: &[&[f64]],
    o: &mut [&mut [f64]],
    k: usize,
    k2: usize,
) {
    let len = c.len();
    let main = len - len % L::W;
    let mut e = 0;
    while e < main {
        sin_fwd_at::<L>(c, z, o, k, k2, e);
        e += L::W;
    }
    while e < len {
        sin_fwd_at::<f64>(c, z, o, k, k2, e);
        e += 1;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn sin_bwd_drive<L: Lanes>(
    y: &[f64],
    c: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
) {
    let len = y.len();
    let main = len - len % L::W;
    let mut e = 0;
    while e < main {
        sin_bwd_at::<L>(y, c, z, g, dz, k, k2, e);
        e += L::W;
    }
    while e < len {
        sin_bwd_at::<f64>(y, c, z, g, dz, k, k2, e);
        e += 1;
    }
}

#[inline(always)]
unsafe fn sincos_fwd_drive<L: Lanes>(
    z: &[&[f64]],
    o: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    w: usize,
) {
    let main = w - w % L::W;
    for r in 0..z[0].len() / w {
        let mut j = 0;
        while j < main {
            sincos_fwd_at::<L>(z, o, k, k2, w, r, j);
            j += L::W;
        }
        while j < w {
            sincos_fwd_at::<f64>(z, o, k, k2, w, r, j);
            j += 1;
        }
    }
}

#[inline(always)]
unsafe fn sincos_bwd_drive<L: Lanes>(
    y: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    w: usize,
) {
    let main = w - w % L::W;
    for r in 0..z[0].len() / w {
        let mut j = 0;
        while j < main {
            sincos_bwd_at::<L>(y, z, g, dz, k, k2, w, r, j);
            j += L::W;
        }
        while j < w {
            sincos_bwd_at::<f64>(y, z, g, dz, k, k2, w, r, j);
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Target-feature shims and dispatch.
// ---------------------------------------------------------------------------

macro_rules! shims {
    ($w4:ident, $w8:ident, $drive:ident, ($($a:ident: $t:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $w4($($a: $t),*) {
            $drive::<V4>($($a),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $w8($($a: $t),*) {
            $drive::<V8>($($a),*)
        }
    };
}

shims!(tanh_fwd_w4, tanh_fwd_w8, tanh_fwd_drive,
    (z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize));
shims!(tanh_bwd_w4, tanh_bwd_w8, tanh_bwd_drive,
    (y: &[f64], z: &[&[f64]], g: &[&[f64]], dz: &mut [&mut [f64]], k: usize, k2: usize));
shims!(sin_fwd_w4, sin_fwd_w8, sin_fwd_drive,
    (c: &[f64], z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize));
shims!(sin_bwd_w4, sin_bwd_w8, sin_bwd_drive,
    (y: &[f64], c: &[f64], z: &[&[f64]], g: &[&[f64]], dz: &mut [&mut [f64]], k: usize, k2: usize));
shims!(sincos_fwd_w4, sincos_fwd_w8, sincos_fwd_drive,
    (z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize, w: usize));
shims!(sincos_bwd_w4, sincos_bwd_w8, sincos_bwd_drive,
    (y: &[f64], z: &[&[f64]], g: &[&[f64]], dz: &mut [&mut [f64]], k: usize, k2: usize, w: usize));

/// Every slice in `bs` has length `len`, and there are `1 + k + k2` of
/// them with `k2 ≤ k`.
fn check_blocks(bs: &[&[f64]], k: usize, k2: usize, len: usize) {
    assert!(
        k2 <= k,
        "jet kernel: {k2} second-derivative blocks for {k} coordinates"
    );
    assert_eq!(bs.len(), 1 + k + k2, "jet kernel: block count");
    assert!(bs.iter().all(|b| b.len() == len), "jet kernel: block extent");
}

fn check_blocks_mut(bs: &[&mut [f64]], k: usize, k2: usize, len: usize) {
    assert!(
        k2 <= k,
        "jet kernel: {k2} second-derivative blocks for {k} coordinates"
    );
    assert_eq!(bs.len(), 1 + k + k2, "jet kernel: block count");
    assert!(bs.iter().all(|b| b.len() == len), "jet kernel: block extent");
}

/// Tanh jet forward: `o[0] = tanh z`, derivative blocks by the chain rule.
pub(crate) fn tanh_jet_fwd(z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize) {
    let len = z[0].len();
    check_blocks(z, k, k2, len);
    check_blocks_mut(o, k, k2, len);
    // SAFETY: every block holds `len` elements (checked above); wide
    // paths run only on hosts that report their feature.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => tanh_fwd_w4(z, o, k, k2),
            #[cfg(target_arch = "x86_64")]
            8 => tanh_fwd_w8(z, o, k, k2),
            _ => tanh_fwd_drive::<f64>(z, o, k, k2),
        }
    }
}

/// Tanh jet backward from the stored output value `y` (`tanh z`).
pub(crate) fn tanh_jet_bwd(
    y: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
) {
    let len = y.len();
    check_blocks(z, k, k2, len);
    check_blocks(g, k, k2, len);
    check_blocks_mut(dz, k, k2, len);
    // SAFETY: as in `tanh_jet_fwd`.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => tanh_bwd_w4(y, z, g, dz, k, k2),
            #[cfg(target_arch = "x86_64")]
            8 => tanh_bwd_w8(y, z, g, dz, k, k2),
            _ => tanh_bwd_drive::<f64>(y, z, g, dz, k, k2),
        }
    }
}

/// Sine jet forward: `o[0]` already holds `sin z` and `c` holds `cos z`.
pub(crate) fn sin_jet_fwd(c: &[f64], z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize) {
    let len = c.len();
    check_blocks(z, k, k2, len);
    check_blocks_mut(o, k, k2, len);
    // SAFETY: as in `tanh_jet_fwd`.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => sin_fwd_w4(c, z, o, k, k2),
            #[cfg(target_arch = "x86_64")]
            8 => sin_fwd_w8(c, z, o, k, k2),
            _ => sin_fwd_drive::<f64>(c, z, o, k, k2),
        }
    }
}

/// Sine jet backward from `y = sin z` and `c = cos z`.
pub(crate) fn sin_jet_bwd(
    y: &[f64],
    c: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
) {
    let len = y.len();
    assert_eq!(c.len(), len, "jet kernel: cosine extent");
    check_blocks(z, k, k2, len);
    check_blocks(g, k, k2, len);
    check_blocks_mut(dz, k, k2, len);
    // SAFETY: as in `tanh_jet_fwd`.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => sin_bwd_w4(y, c, z, g, dz, k, k2),
            #[cfg(target_arch = "x86_64")]
            8 => sin_bwd_w8(y, c, z, g, dz, k, k2),
            _ => sin_bwd_drive::<f64>(y, c, z, g, dz, k, k2),
        }
    }
}

/// Sin|cos jet forward over rows of width `w`: `o[0]` already holds the
/// `[sin z | cos z]` value rows (`2w` wide); the derivative rows follow.
pub(crate) fn sincos_jet_fwd(z: &[&[f64]], o: &mut [&mut [f64]], k: usize, k2: usize, w: usize) {
    let len = z[0].len();
    assert!(w > 0 && len.is_multiple_of(w), "jet kernel: row width");
    check_blocks(z, k, k2, len);
    check_blocks_mut(o, k, k2, 2 * len);
    // SAFETY: as in `tanh_jet_fwd`.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => sincos_fwd_w4(z, o, k, k2, w),
            #[cfg(target_arch = "x86_64")]
            8 => sincos_fwd_w8(z, o, k, k2, w),
            _ => sincos_fwd_drive::<f64>(z, o, k, k2, w),
        }
    }
}

/// Sin|cos jet backward from the `[sin | cos]` value rows `y`.
pub(crate) fn sincos_jet_bwd(
    y: &[f64],
    z: &[&[f64]],
    g: &[&[f64]],
    dz: &mut [&mut [f64]],
    k: usize,
    k2: usize,
    w: usize,
) {
    let len = z[0].len();
    assert!(w > 0 && len.is_multiple_of(w), "jet kernel: row width");
    assert_eq!(y.len(), 2 * len, "jet kernel: value extent");
    check_blocks(z, k, k2, len);
    check_blocks(g, k, k2, 2 * len);
    check_blocks_mut(dz, k, k2, len);
    // SAFETY: as in `tanh_jet_fwd`.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => sincos_bwd_w4(y, z, g, dz, k, k2, w),
            #[cfg(target_arch = "x86_64")]
            8 => sincos_bwd_w8(y, z, g, dz, k, k2, w),
            _ => sincos_bwd_drive::<f64>(y, z, g, dz, k, k2, w),
        }
    }
}
