//! Split-complex radix-2 FFT butterflies and the Strang split-step loop
//! built on them.
//!
//! A complex array lives as two `f64` arrays, `re` and `im`, so one lane
//! vector holds `W` real or `W` imaginary parts and a complex product is
//! four lane multiplies and two lane adds.
//!
//! **FFT.** [`fft`] runs the iterative decimation-in-time Cooley–Tukey
//! transform of a [`Radix2`] plan out of place: the bit-reversal
//! permutation from the source into the destination, then one stage per
//! butterfly span `h = 1, 2, 4, …, n/2` in the destination, each
//! butterfly `a ± b·w` with the twiddle `w` read from a stage-major table.
//!
//! * The permutation moves whole vectors. Write an index as
//!   `x·(n/W) + y·W + z` with `x, z < W`: bit reversal sends it to
//!   `rev(z)·(n/W) + rev(y)·W + rev(x)`, so for each `y` it loads the `W`
//!   vectors of rows `x = rev(l)`, transposes the `W × W` block in
//!   registers ([`transpose`], `log₂W` rounds of [`Lanes::exchange`]) and
//!   stores vector `z` at row `rev(z)`. Transforms shorter than `W²`
//!   permute on the `f64` lane.
//! * The stages with `h ≤ W` stay inside aligned blocks of `2W` elements,
//!   so they run block by block with the block in four registers: a span
//!   shorter than a vector pairs lanes of the same two vectors, which
//!   [`Lanes::exchange`] splits into lanes of first and second halves and,
//!   applied again, puts back; the span `W` pairs the two vectors. The
//!   longer stages sweep the array one vector of butterflies at a time.
//!   Transforms shorter than `2W` run on the `f64` lane.
//!
//! **Bit-identity.** The permutation only moves values. Every element then
//! meets exactly the IEEE operations of the scalar transform over
//! `Complex64`: `b·w` as `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)`,
//! then `a + b·w` and `a − b·w`, stage after stage, and the inverse
//! multiplies by `1/n` after its last stage. Blocking only reorders
//! independent butterflies and no multiply-add is fused, so every width
//! gives the same bits, signed zeros included.
//!
//! **Split step.** [`split_step`] runs a whole Strang propagation — half
//! kick, forward FFT, kinetic factor, inverse FFT, half kick, per step —
//! inside one dispatch, so the loop never leaves vector code between
//! steps; the transforms alternate between the caller's arrays and one
//! scratch pair. The cubic kick evaluates its phase through the shared
//! [`super::sincos_l`] polynomial.
//!
//! **Safety.** The vector loads and stores take raw offsets into the
//! arrays and the twiddle tables; [`Radix2::new`] checks the table
//! lengths and the entry points check every array against the plan's
//! length before they dispatch, and run a wide lane type only on a host
//! that reports its feature.

use super::{sincos_l, width, Lanes};
#[cfg(target_arch = "x86_64")]
use super::{V4, V8};

/// The twiddle tables of a radix-2 transform of length `n`, borrowed from
/// the plan that owns them.
#[derive(Clone, Copy, Debug)]
pub struct Radix2<'a> {
    n: usize,
    re: &'a [f64],
    im: &'a [f64],
    im_conj: &'a [f64],
}

impl<'a> Radix2<'a> {
    /// Tables for length `n = re.len() + 1`, stage-major: the stage of
    /// span `h` reads its `h` twiddles `e^{−2πik/2h}` from offset `h − 1`,
    /// as real parts, forward imaginary parts and conjugated (inverse)
    /// imaginary parts.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two and the three tables have one
    /// length.
    pub fn new(re: &'a [f64], im: &'a [f64], im_conj: &'a [f64]) -> Self {
        let n = re.len() + 1;
        assert!(n.is_power_of_two(), "radix-2 tables of {} twiddles", re.len());
        assert!(
            im.len() == re.len() && im_conj.len() == re.len(),
            "radix-2 twiddle tables of {}, {} and {} entries",
            re.len(),
            im.len(),
            im_conj.len()
        );
        Radix2 {
            n,
            re,
            im,
            im_conj,
        }
    }

}

/// The potential half-kick `ψ ← e^{−i(V − g|ψ|²)Δt/2}·ψ` of a Strang step.
#[derive(Clone, Copy, Debug)]
pub enum Kick<'a> {
    /// A factor fixed in time, one per point (real and imaginary parts).
    Linear {
        /// Real parts.
        re: &'a [f64],
        /// Imaginary parts.
        im: &'a [f64],
    },
    /// The cubic kick: per point, the phase `θ = −(V − g|ψ|²)·½·Δt`
    /// through the shared `sincos` polynomial, then `ψ·(cos θ + i sin θ)`.
    Cubic {
        /// The potential at each point.
        v: &'a [f64],
        /// Coupling strength.
        g: f64,
        /// Time step.
        dt: f64,
    },
}

/// One Strang step's operators: the transform, the kinetic factor
/// `e^{−ik²Δt/2}` per wavenumber in FFT bin order, and the half kick.
#[derive(Clone, Copy, Debug)]
pub struct SplitStep<'a> {
    /// The transform the kinetic step runs through.
    pub fft: Radix2<'a>,
    /// Real parts of the kinetic factor.
    pub kinetic_re: &'a [f64],
    /// Imaginary parts of the kinetic factor.
    pub kinetic_im: &'a [f64],
    /// The half kick before and after the kinetic step.
    pub kick: Kick<'a>,
}

/// The slice callback of [`split_step`]: `(step, re, im)` after a stored
/// step.
pub type Store<'a> = dyn FnMut(usize, &[f64], &[f64]) + 'a;

#[inline(always)]
unsafe fn cmul<L: Lanes>(xr: L, xi: L, yr: L, yi: L) -> (L, L) {
    (xr.mul(yr).sub(xi.mul(yi)), xr.mul(yi).add(xi.mul(yr)))
}

/// `bits`-bit reversal of `i`.
#[inline(always)]
fn rev(i: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        ((i as u32).reverse_bits() >> (32 - bits)) as usize
    }
}

/// One round of a `W × W` transpose: swap bit `log₂S` of the row and the
/// column index. (Loops run over all eight slots with constant bounds, so
/// they unroll and the rows stay in registers.)
#[inline(always)]
unsafe fn transpose_round<L: Lanes, const S: usize>(rows: &mut [L; 8]) {
    for i in 0..8 {
        if i < L::W && i % (2 * S) < S {
            (rows[i], rows[i + S]) = rows[i].exchange::<S>(rows[i + S]);
        }
    }
}

/// Transpose the `W × W` block whose row `l` is `rows[l]` (the first `W`
/// slots).
#[inline(always)]
pub(super) unsafe fn transpose<L: Lanes>(rows: &mut [L; 8]) {
    if L::W > 1 {
        transpose_round::<L, 1>(rows);
    }
    if L::W > 2 {
        transpose_round::<L, 2>(rows);
    }
    if L::W > 4 {
        transpose_round::<L, 4>(rows);
    }
}

/// `dst[rev(i)] = src[i]` over `n ≥ W²` elements, a `W × W` block at a
/// time (see the module docs).
#[inline(always)]
unsafe fn bit_reverse<L: Lanes>(n: usize, src: *const f64, dst: *mut f64) {
    let w = L::W;
    let (wb, row) = (w.trailing_zeros(), n / w);
    let yb = n.trailing_zeros() - 2 * wb;
    for y in 0..n / (w * w) {
        let mut rows = [L::splat(0.0); 8];
        for (l, r) in rows.iter_mut().enumerate().take(w) {
            *r = L::ld(src.add(rev(l, wb) * row + y * w));
        }
        transpose(&mut rows);
        let y_out = rev(y, yb) * w;
        for (z, r) in rows.iter().enumerate().take(w) {
            r.st(dst.add(rev(z, wb) * row + y_out));
        }
    }
}

/// One stage of span `H < W` over a block held as `[re lo, re hi, im lo,
/// im hi]`.
#[inline(always)]
unsafe fn short_stage<L: Lanes, const H: usize>(v: &mut [L; 4], wr: L, wi: L) {
    let [r0, r1, i0, i1] = *v;
    let (ar, br) = r0.exchange::<H>(r1);
    let (ai, bi) = i0.exchange::<H>(i1);
    let (tr, ti) = cmul(br, bi, wr, wi);
    let (r0, r1) = ar.add(tr).exchange::<H>(ar.sub(tr));
    let (i0, i1) = ai.add(ti).exchange::<H>(ai.sub(ti));
    *v = [r0, r1, i0, i1];
}

/// The twiddles of the span-`h` stage laid out for [`Lanes::exchange`]:
/// lane `l` holds twiddle `l mod h`. Zeros when the pack does not split
/// the span (`h ≥ W`); no stage reads them then.
#[inline(always)]
unsafe fn tiled<L: Lanes>(wr: &[f64], wi: &[f64], h: usize) -> (L, L) {
    let (mut r, mut i) = ([0.0f64; 8], [0.0f64; 8]);
    if h < L::W {
        for l in 0..L::W {
            (r[l], i[l]) = (wr[h - 1 + l % h], wi[h - 1 + l % h]);
        }
    }
    (L::ld(r.as_ptr()), L::ld(i.as_ptr()))
}

/// Every butterfly stage of a bit-reversed array of `n ≥ 2W` elements.
/// `wr`/`wi` are the stage-major twiddles (`n − 1` entries each).
#[inline(always)]
unsafe fn butterflies<L: Lanes>(n: usize, wr: &[f64], wi: &[f64], re: *mut f64, im: *mut f64) {
    let w = L::W;
    let (t1, t2, t4) = (
        tiled::<L>(wr, wi, 1),
        tiled::<L>(wr, wi, 2),
        tiled::<L>(wr, wi, 4),
    );
    let tw = (L::ld(wr.as_ptr().add(w - 1)), L::ld(wi.as_ptr().add(w - 1)));
    let mut b = 0;
    while b < n {
        let mut v = [
            L::ld(re.add(b)),
            L::ld(re.add(b + w)),
            L::ld(im.add(b)),
            L::ld(im.add(b + w)),
        ];
        if w > 1 {
            short_stage::<L, 1>(&mut v, t1.0, t1.1);
        }
        if w > 2 {
            short_stage::<L, 2>(&mut v, t2.0, t2.1);
        }
        if w > 4 {
            short_stage::<L, 4>(&mut v, t4.0, t4.1);
        }
        let [r0, r1, i0, i1] = v;
        let (tr, ti) = cmul(r1, i1, tw.0, tw.1);
        r0.add(tr).st(re.add(b));
        r0.sub(tr).st(re.add(b + w));
        i0.add(ti).st(im.add(b));
        i0.sub(ti).st(im.add(b + w));
        b += 2 * w;
    }
    let mut h = 2 * w;
    while h < n {
        let (cr, ci) = (wr.as_ptr().add(h - 1), wi.as_ptr().add(h - 1));
        let mut s = 0;
        while s < n {
            let mut k = 0;
            while k < h {
                let (pa, pb) = (s + k, s + k + h);
                let (ar, ai) = (L::ld(re.add(pa)), L::ld(im.add(pa)));
                let (tr, ti) = cmul(
                    L::ld(re.add(pb)),
                    L::ld(im.add(pb)),
                    L::ld(cr.add(k)),
                    L::ld(ci.add(k)),
                );
                ar.add(tr).st(re.add(pa));
                ai.add(ti).st(im.add(pa));
                ar.sub(tr).st(re.add(pb));
                ai.sub(ti).st(im.add(pb));
                k += w;
            }
            s += 2 * h;
        }
        h <<= 1;
    }
}

/// The whole transform of `(sr, si)` into `(dr, di)`, all of the plan's
/// length.
#[inline(always)]
unsafe fn fft_l<L: Lanes>(
    t: &Radix2,
    (sr, si): (&[f64], &[f64]),
    (dr, di): (&mut [f64], &mut [f64]),
    inverse: bool,
) {
    let n = t.n;
    if L::W > 1 && n < 2 * L::W {
        fft_l::<f64>(t, (sr, si), (dr, di), inverse);
        return;
    }
    let (dr, di) = (dr.as_mut_ptr(), di.as_mut_ptr());
    if n >= L::W * L::W {
        bit_reverse::<L>(n, sr.as_ptr(), dr);
        bit_reverse::<L>(n, si.as_ptr(), di);
    } else {
        bit_reverse::<f64>(n, sr.as_ptr(), dr);
        bit_reverse::<f64>(n, si.as_ptr(), di);
    }
    if n == 1 {
        return; // no stage; `1/n` is 1
    }
    let wi = if inverse { t.im_conj } else { t.im };
    butterflies::<L>(n, t.re, wi, dr, di);
    if inverse {
        let inv = L::splat(1.0 / n as f64);
        for p in (0..n).step_by(L::W) {
            L::ld(dr.add(p)).mul(inv).st(dr.add(p));
            L::ld(di.add(p)).mul(inv).st(di.add(p));
        }
    }
}

/// `(re, im) ← (re, im)·(fr, fi)` pointwise; `n` is a multiple of `W`.
#[inline(always)]
unsafe fn mul_by<L: Lanes>(fr: &[f64], fi: &[f64], re: &mut [f64], im: &mut [f64]) {
    let w = L::W;
    for (((r, i), a), b) in re
        .chunks_exact_mut(w)
        .zip(im.chunks_exact_mut(w))
        .zip(fr.chunks_exact(w))
        .zip(fi.chunks_exact(w))
    {
        let (nr, ni) = cmul(L::load(r), L::load(i), L::load(a), L::load(b));
        nr.store(r);
        ni.store(i);
    }
}

/// The cubic half kick: per point the phase `θ = −(V − g|ψ|²)·½·Δt`, its
/// factor `cos θ + i sin θ` written to `(fr, fi)`, and `ψ` times it.
#[inline(always)]
unsafe fn cubic_kick<L: Lanes>(
    (v, g, dt): (&[f64], f64, f64),
    fr: &mut [f64],
    fi: &mut [f64],
    re: &mut [f64],
    im: &mut [f64],
) {
    let (gv, half, dtv) = (L::splat(g), L::splat(0.5), L::splat(dt));
    let w = L::W;
    for ((((r, i), a), b), vc) in re
        .chunks_exact_mut(w)
        .zip(im.chunks_exact_mut(w))
        .zip(fr.chunks_exact_mut(w))
        .zip(fi.chunks_exact_mut(w))
        .zip(v.chunks_exact(w))
    {
        let (pr, pi) = (L::load(r), L::load(i));
        let veff = L::load(vc).sub(gv.mul(pr.mul(pr).add(pi.mul(pi))));
        let theta = veff.xor(L::splat(-0.0)).mul(half).mul(dtv);
        let (s, c) = sincos_l(theta);
        c.store(a);
        s.store(b);
        let (nr, ni) = cmul(pr, pi, c, s);
        nr.store(r);
        ni.store(i);
    }
}

#[inline(always)]
unsafe fn split_step_drive<L: Lanes>(
    p: &SplitStep,
    re: &mut [f64],
    im: &mut [f64],
    n_steps: usize,
    store_every: usize,
    store: &mut Store,
) {
    let n = p.fft.n;
    if L::W > 1 && n < 2 * L::W {
        split_step_drive::<f64>(p, re, im, n_steps, store_every, store);
        return;
    }
    // The spectrum between the transforms, and the cubic kick's factors.
    // A kick only turns the phase of ψ, so the factors a step's second
    // half kick computes from |ψ|² are the ones the next step's first half
    // kick would compute, up to the rounding of |ψ|²: each step computes
    // them once and applies them twice.
    let cubic = if let Kick::Cubic { .. } = p.kick { n } else { 0 };
    let mut scratch = vec![0.0; 2 * n + 2 * cubic];
    let (sr, rest) = scratch.split_at_mut(n);
    let (si, rest) = rest.split_at_mut(n);
    let (fr, fi) = rest.split_at_mut(cubic);
    for step in 1..=n_steps {
        match p.kick {
            Kick::Linear { re: kr, im: ki } => mul_by::<L>(kr, ki, re, im),
            Kick::Cubic { v, g, dt } if step == 1 => cubic_kick::<L>((v, g, dt), fr, fi, re, im),
            Kick::Cubic { .. } => mul_by::<L>(fr, fi, re, im),
        }
        fft_l::<L>(&p.fft, (re, im), (sr, si), false);
        mul_by::<L>(p.kinetic_re, p.kinetic_im, sr, si);
        fft_l::<L>(&p.fft, (sr, si), (re, im), true);
        match p.kick {
            Kick::Linear { re: kr, im: ki } => mul_by::<L>(kr, ki, re, im),
            Kick::Cubic { v, g, dt } => cubic_kick::<L>((v, g, dt), fr, fi, re, im),
        }
        if step % store_every == 0 || step == n_steps {
            store(step, re, im);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fft_w4(t: &Radix2, src: (&[f64], &[f64]), dst: (&mut [f64], &mut [f64]), inv: bool) {
    fft_l::<V4>(t, src, dst, inv)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fft_w8(t: &Radix2, src: (&[f64], &[f64]), dst: (&mut [f64], &mut [f64]), inv: bool) {
    fft_l::<V8>(t, src, dst, inv)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn split_step_w4(
    p: &SplitStep,
    re: &mut [f64],
    im: &mut [f64],
    n_steps: usize,
    store_every: usize,
    store: &mut Store,
) {
    split_step_drive::<V4>(p, re, im, n_steps, store_every, store)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn split_step_w8(
    p: &SplitStep,
    re: &mut [f64],
    im: &mut [f64],
    n_steps: usize,
    store_every: usize,
    store: &mut Store,
) {
    split_step_drive::<V8>(p, re, im, n_steps, store_every, store)
}

fn check_len(what: &str, got: usize, n: usize) {
    assert_eq!(got, n, "{what}: {got} entries for a length-{n} transform");
}

/// The transform of the split-complex array `(src_re, src_im)` into
/// `(dst_re, dst_im)`: forward `X[k] = Σ x[j]·e^{−2πijk/n}`, or with
/// `inverse` the conjugate transform divided by `n`. The same bits at
/// every width.
///
/// # Panics
/// Panics when an array does not have the plan's length.
pub fn fft(
    t: Radix2,
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    inverse: bool,
) {
    for (what, len) in [
        ("fft source re", src_re.len()),
        ("fft source im", src_im.len()),
        ("fft destination re", dst_re.len()),
        ("fft destination im", dst_im.len()),
    ] {
        check_len(what, len, t.n);
    }
    let (src, dst) = ((src_re, src_im), (dst_re, dst_im));
    // SAFETY: every array holds `n` elements and every twiddle table
    // `n − 1` (checked here and in `Radix2::new`); wide paths run only
    // on hosts that report their feature.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => fft_w4(&t, src, dst, inverse),
            #[cfg(target_arch = "x86_64")]
            8 => fft_w8(&t, src, dst, inverse),
            _ => fft_l::<f64>(&t, src, dst, inverse),
        }
    }
}

/// Advance `(re, im)` by `n_steps` Strang steps of `p`, calling
/// `store(step, re, im)` after every `store_every`-th step and after the
/// last. The width is read once, so the whole loop runs in one dispatch.
///
/// # Panics
/// Panics when an array or table does not have the plan's length, or
/// `store_every` is 0.
pub fn split_step(
    p: &SplitStep,
    re: &mut [f64],
    im: &mut [f64],
    n_steps: usize,
    store_every: usize,
    store: &mut Store,
) {
    let n = p.fft.n;
    assert!(store_every > 0, "split step: store_every is 0");
    check_len("split step re", re.len(), n);
    check_len("split step im", im.len(), n);
    check_len("kinetic re", p.kinetic_re.len(), n);
    check_len("kinetic im", p.kinetic_im.len(), n);
    match p.kick {
        Kick::Linear { re: kr, im: ki } => {
            check_len("kick re", kr.len(), n);
            check_len("kick im", ki.len(), n);
        }
        Kick::Cubic { v, .. } => check_len("potential", v.len(), n),
    }
    // SAFETY: as for `fft`, with every pointwise table checked above.
    unsafe {
        match width() {
            #[cfg(target_arch = "x86_64")]
            4 => split_step_w4(p, re, im, n_steps, store_every, store),
            #[cfg(target_arch = "x86_64")]
            8 => split_step_w8(p, re, im, n_steps, store_every, store),
            _ => split_step_drive::<f64>(p, re, im, n_steps, store_every, store),
        }
    }
}
