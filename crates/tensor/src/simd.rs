//! Runtime-dispatched SIMD kernels for the f64 hot paths.
//!
//! One dispatch width is selected per process — 8 lanes (AVX-512F), 4 lanes
//! (AVX2), or the portable scalar fallback — from CPUID at first use, and
//! can be overridden by the `QPINN_SIMD` environment variable
//! (`scalar`/`1`, `avx2`/`4`, `avx512`/`8`; requests above what the CPU
//! supports are clamped down). [`set_width`] lets benches and tests force a
//! width in-process.
//!
//! # Determinism contract
//!
//! Every kernel here is **bit-identical across dispatch widths and thread
//! counts**:
//!
//! * reductions (`vsum`/`vsum_sq`/`vdot`) accumulate in eight fixed lanes
//!   regardless of width — the scalar path keeps eight running partials,
//!   AVX2 keeps two 4-lane registers, AVX-512 one 8-lane register — and
//!   combine them in the fixed tree `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`
//!   followed by the `len % 8` tail in ascending order;
//! * elementwise kernels are per-element IEEE operations with no fused
//!   multiply-add anywhere (explicit mul-then-add intrinsics), so a lane
//!   computes exactly what the scalar expression computes;
//! * the transcendental kernels (`vtanh`/`vexp` and friends) use one
//!   branch-free polynomial algorithm shared verbatim by all three paths —
//!   the scalar fallback runs the same Cephes-style code one element at a
//!   time rather than calling libm, so even `tanh`/`exp` results do not
//!   depend on the dispatch width. They agree with libm to a few ulp
//!   (≪ 1e-12) on finite inputs; NaN payloads are not preserved.
//!
//! Width selection happens once and is cached in a relaxed atomic; the
//! per-kernel cost of dispatch is one load and a two-arm match.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

mod jet;
mod tile;

pub(crate) use jet::{
    sin_jet_bwd, sin_jet_fwd, sincos_jet_bwd, sincos_jet_fwd, tanh_jet_bwd, tanh_jet_fwd,
};
pub(crate) use tile::{axpy_panel, dot_rows, PanelSeed};

/// Cached dispatch width in f64 lanes (0 = not yet initialised).
static WIDTH: AtomicU8 = AtomicU8::new(0);

/// The dispatch width currently in effect: 1 (scalar), 4 (AVX2) or
/// 8 (AVX-512F). Initialised on first call from CPUID and the `QPINN_SIMD`
/// environment variable.
#[inline]
pub fn width() -> usize {
    match WIDTH.load(Relaxed) {
        0 => init_width(),
        w => w as usize,
    }
}

/// The widest path this CPU supports, ignoring any override.
pub fn detected_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return 8;
        }
        if is_x86_feature_detected!("avx2") {
            return 4;
        }
    }
    1
}

/// Force the dispatch width in-process (bench/test hook). Requests wider
/// than the CPU supports are clamped down; returns the width actually in
/// effect. Kernels already running on other threads finish at the old
/// width, so only call this between kernel invocations.
pub fn set_width(requested: usize) -> usize {
    let w = clamp_width(requested);
    WIDTH.store(w as u8, Relaxed);
    w
}

#[cold]
fn init_width() -> usize {
    let req = std::env::var("QPINN_SIMD")
        .ok()
        .and_then(|v| parse_width(&v));
    let w = clamp_width(req.unwrap_or(usize::MAX));
    WIDTH.store(w as u8, Relaxed);
    w
}

fn parse_width(v: &str) -> Option<usize> {
    match v.trim().to_ascii_lowercase().as_str() {
        "scalar" | "1" => Some(1),
        "avx2" | "4" => Some(4),
        "avx512" | "8" => Some(8),
        _ => None, // unknown values fall back to auto-detection
    }
}

fn clamp_width(req: usize) -> usize {
    let d = detected_width();
    if req >= 8 && d >= 8 {
        8
    } else if req >= 4 && d >= 4 {
        4
    } else {
        1
    }
}

// ---------------------------------------------------------------------------
// Lane abstraction: one trait, three implementations (f64 / __m256d /
// __m512d). Algorithms are written once against the trait as
// #[inline(always)] functions and instantiated inside #[target_feature]
// shims so the intrinsics inline into feature-enabled code.
// ---------------------------------------------------------------------------

/// A pack of `W` f64 lanes with IEEE elementwise semantics. `min`/`max`
/// follow the `minpd`/`maxpd` convention (second operand on NaN); there is
/// deliberately no fused multiply-add.
pub(crate) trait Lanes: Copy {
    /// Lane count.
    const W: usize;
    /// Comparison result consumed by [`Lanes::select`].
    type Mask: Copy;
    unsafe fn splat(v: f64) -> Self;
    unsafe fn load(s: &[f64]) -> Self;
    unsafe fn store(self, d: &mut [f64]);
    /// Unaligned load of `W` lanes from a raw pointer (the register-tile
    /// kernels check their extents once per call, not per load).
    unsafe fn ld(p: *const f64) -> Self;
    /// Unaligned store of `W` lanes to a raw pointer.
    unsafe fn st(self, p: *mut f64);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    unsafe fn sqrt(self) -> Self;
    unsafe fn floor(self) -> Self;
    /// `self < o ? self : o` (returns `o` when unordered, like `minpd`).
    unsafe fn min(self, o: Self) -> Self;
    /// `self > o ? self : o` (returns `o` when unordered, like `maxpd`).
    unsafe fn max(self, o: Self) -> Self;
    unsafe fn and(self, o: Self) -> Self;
    unsafe fn or(self, o: Self) -> Self;
    unsafe fn xor(self, o: Self) -> Self;
    /// `(!self) & o` — the `andnot_pd` operand order.
    unsafe fn andnot(self, o: Self) -> Self;
    unsafe fn lt(self, o: Self) -> Self::Mask;
    /// Per-lane `m ? t : f`.
    unsafe fn select(m: Self::Mask, t: Self, f: Self) -> Self;
    /// `self · 2ⁿ` for `n` holding exact integral values in `[-1022, 1024]`,
    /// via two half-exponent scalings so `2¹⁰²⁴` never has to exist as a
    /// single factor.
    unsafe fn ldexp(self, n: Self) -> Self;
}

impl Lanes for f64 {
    const W: usize = 1;
    type Mask = bool;
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    unsafe fn load(s: &[f64]) -> Self {
        s[0]
    }
    #[inline(always)]
    unsafe fn store(self, d: &mut [f64]) {
        d[0] = self;
    }
    #[inline(always)]
    unsafe fn ld(p: *const f64) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn st(self, p: *mut f64) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        self / o
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    unsafe fn floor(self) -> Self {
        f64::floor(self)
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        if self < o {
            self
        } else {
            o
        }
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        if self > o {
            self
        } else {
            o
        }
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        f64::from_bits(self.to_bits() & o.to_bits())
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        f64::from_bits(self.to_bits() | o.to_bits())
    }
    #[inline(always)]
    unsafe fn xor(self, o: Self) -> Self {
        f64::from_bits(self.to_bits() ^ o.to_bits())
    }
    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        f64::from_bits(!self.to_bits() & o.to_bits())
    }
    #[inline(always)]
    unsafe fn lt(self, o: Self) -> bool {
        self < o
    }
    #[inline(always)]
    unsafe fn select(m: bool, t: Self, f: Self) -> Self {
        if m {
            t
        } else {
            f
        }
    }
    #[inline(always)]
    unsafe fn ldexp(self, n: Self) -> Self {
        let n = n as i64;
        let n1 = n >> 1;
        let n2 = n - n1;
        let s1 = f64::from_bits(((n1 + 1023) << 52) as u64);
        let s2 = f64::from_bits(((n2 + 1023) << 52) as u64);
        self * s1 * s2
    }
}

/// 4 × f64 via AVX2.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct V4(__m256d);

#[cfg(target_arch = "x86_64")]
impl Lanes for V4 {
    const W: usize = 4;
    type Mask = __m256d;
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        V4(_mm256_set1_pd(v))
    }
    #[inline(always)]
    unsafe fn load(s: &[f64]) -> Self {
        debug_assert!(s.len() >= 4);
        V4(_mm256_loadu_pd(s.as_ptr()))
    }
    #[inline(always)]
    unsafe fn store(self, d: &mut [f64]) {
        debug_assert!(d.len() >= 4);
        _mm256_storeu_pd(d.as_mut_ptr(), self.0);
    }
    #[inline(always)]
    unsafe fn ld(p: *const f64) -> Self {
        V4(_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn st(self, p: *mut f64) {
        _mm256_storeu_pd(p, self.0);
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        V4(_mm256_add_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        V4(_mm256_sub_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        V4(_mm256_mul_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        V4(_mm256_div_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        V4(_mm256_sqrt_pd(self.0))
    }
    #[inline(always)]
    unsafe fn floor(self) -> Self {
        V4(_mm256_floor_pd(self.0))
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        V4(_mm256_min_pd(o.0, self.0))
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        V4(_mm256_max_pd(o.0, self.0))
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        V4(_mm256_and_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        V4(_mm256_or_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn xor(self, o: Self) -> Self {
        V4(_mm256_xor_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        V4(_mm256_andnot_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn lt(self, o: Self) -> __m256d {
        _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, o.0)
    }
    #[inline(always)]
    unsafe fn select(m: __m256d, t: Self, f: Self) -> Self {
        V4(_mm256_blendv_pd(f.0, t.0, m))
    }
    #[inline(always)]
    unsafe fn ldexp(self, n: Self) -> Self {
        let n32 = _mm256_cvtpd_epi32(n.0);
        let n1 = _mm_srai_epi32::<1>(n32);
        let n2 = _mm_sub_epi32(n32, n1);
        let bias = _mm256_set1_epi64x(1023);
        let s1 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
            _mm256_cvtepi32_epi64(n1),
            bias,
        )));
        let s2 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
            _mm256_cvtepi32_epi64(n2),
            bias,
        )));
        V4(_mm256_mul_pd(_mm256_mul_pd(self.0, s1), s2))
    }
}

/// 8 × f64 via AVX-512F.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct V8(__m512d);

#[cfg(target_arch = "x86_64")]
impl Lanes for V8 {
    const W: usize = 8;
    type Mask = __mmask8;
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        V8(_mm512_set1_pd(v))
    }
    #[inline(always)]
    unsafe fn load(s: &[f64]) -> Self {
        debug_assert!(s.len() >= 8);
        V8(_mm512_loadu_pd(s.as_ptr()))
    }
    #[inline(always)]
    unsafe fn store(self, d: &mut [f64]) {
        debug_assert!(d.len() >= 8);
        _mm512_storeu_pd(d.as_mut_ptr(), self.0);
    }
    #[inline(always)]
    unsafe fn ld(p: *const f64) -> Self {
        V8(_mm512_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn st(self, p: *mut f64) {
        _mm512_storeu_pd(p, self.0);
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        V8(_mm512_add_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        V8(_mm512_sub_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        V8(_mm512_mul_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        V8(_mm512_div_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        V8(_mm512_sqrt_pd(self.0))
    }
    #[inline(always)]
    unsafe fn floor(self) -> Self {
        V8(_mm512_roundscale_pd::<0x01>(self.0)) // round toward −∞
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        V8(_mm512_min_pd(o.0, self.0))
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        V8(_mm512_max_pd(o.0, self.0))
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        V8(_mm512_castsi512_pd(_mm512_and_si512(
            _mm512_castpd_si512(self.0),
            _mm512_castpd_si512(o.0),
        )))
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        V8(_mm512_castsi512_pd(_mm512_or_si512(
            _mm512_castpd_si512(self.0),
            _mm512_castpd_si512(o.0),
        )))
    }
    #[inline(always)]
    unsafe fn xor(self, o: Self) -> Self {
        V8(_mm512_castsi512_pd(_mm512_xor_si512(
            _mm512_castpd_si512(self.0),
            _mm512_castpd_si512(o.0),
        )))
    }
    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        V8(_mm512_castsi512_pd(_mm512_andnot_si512(
            _mm512_castpd_si512(self.0),
            _mm512_castpd_si512(o.0),
        )))
    }
    #[inline(always)]
    unsafe fn lt(self, o: Self) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, o.0)
    }
    #[inline(always)]
    unsafe fn select(m: __mmask8, t: Self, f: Self) -> Self {
        V8(_mm512_mask_blend_pd(m, f.0, t.0))
    }
    #[inline(always)]
    unsafe fn ldexp(self, n: Self) -> Self {
        let n32 = _mm512_cvtpd_epi32(n.0);
        let n1 = _mm256_srai_epi32::<1>(n32);
        let n2 = _mm256_sub_epi32(n32, n1);
        let bias = _mm512_set1_epi64(1023);
        let s1 = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_add_epi64(
            _mm512_cvtepi32_epi64(n1),
            bias,
        )));
        let s2 = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_add_epi64(
            _mm512_cvtepi32_epi64(n2),
            bias,
        )));
        V8(_mm512_mul_pd(_mm512_mul_pd(self.0, s1), s2))
    }
}

// ---------------------------------------------------------------------------
// Transcendental cores: Cephes-style exp and tanh written once against
// `Lanes`. Every path — including the scalar fallback — runs this exact
// operation sequence, which is what makes results width-invariant.
// ---------------------------------------------------------------------------

// The Cephes coefficients, each written with the digits an f64 holds (the
// shortest literal that parses to the same bits). Cephes prints
// EXP_P[2] as 9.99999999999999999910e-1 and EXP_Q[3] as
// 2.00000000000000000005e0; as f64 they are exactly 1 and 2.
const EXP_HI: f64 = 709.782712893384;
const EXP_LO: f64 = -708.3964185322641;
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// Cody–Waite split of ln 2 (high part exactly representable).
const LN2_HI: f64 = 6.93145751953125e-1;
const LN2_LO: f64 = 1.4286068203094173e-6;
const EXP_P: [f64; 3] = [
    1.2617719307481058e-4,
    3.0299440770744195e-2,
    1.0,
];
const EXP_Q: [f64; 4] = [
    3.0019850513866446e-6,
    2.524483403496841e-3,
    2.2726554820815503e-1,
    2.0,
];
const TANH_P: [f64; 3] = [
    -9.643991794250523e-1,
    -9.928772310019185e1,
    -1.6146876844170845e3,
];
const TANH_Q: [f64; 3] = [
    1.1281167849163293e2,
    2.2354883906010045e3,
    4.844063053251255e3,
];
/// Below this |x| the rational polynomial is used; above it, the exp form.
const TANH_CUT: f64 = 0.625;

/// `eˣ` with Cody–Waite range reduction, a 2/2 rational kernel and
/// two-step exponent scaling. Under/overflow saturate to 0 / +∞.
#[inline(always)]
unsafe fn exp_l<L: Lanes>(x: L) -> L {
    let hi = L::splat(EXP_HI);
    let lo = L::splat(EXP_LO);
    let under = x.lt(lo);
    let over = hi.lt(x);
    let xc = x.min(hi).max(lo);
    let n = xc.mul(L::splat(LOG2E)).add(L::splat(0.5)).floor();
    let r = xc.sub(n.mul(L::splat(LN2_HI))).sub(n.mul(L::splat(LN2_LO)));
    let rr = r.mul(r);
    let p = L::splat(EXP_P[0])
        .mul(rr)
        .add(L::splat(EXP_P[1]))
        .mul(rr)
        .add(L::splat(EXP_P[2]))
        .mul(r);
    let q = L::splat(EXP_Q[0])
        .mul(rr)
        .add(L::splat(EXP_Q[1]))
        .mul(rr)
        .add(L::splat(EXP_Q[2]))
        .mul(rr)
        .add(L::splat(EXP_Q[3]));
    let e = L::splat(1.0)
        .add(L::splat(2.0).mul(p.div(q.sub(p))))
        .ldexp(n);
    let e = L::select(under, L::splat(0.0), e);
    L::select(over, L::splat(f64::INFINITY), e)
}

/// `tanh x`: rational polynomial for |x| < 0.625, `sign · (1 − 2z/(1+z))`
/// with `z = e^{−2|x|}` beyond. Both branches are evaluated and blended so
/// scalar and vector paths stay instruction-for-instruction identical.
#[inline(always)]
unsafe fn tanh_l<L: Lanes>(x: L) -> L {
    let neg0 = L::splat(-0.0);
    let sign = x.and(neg0);
    let a = neg0.andnot(x);
    let s = x.mul(x);
    let p = L::splat(TANH_P[0])
        .mul(s)
        .add(L::splat(TANH_P[1]))
        .mul(s)
        .add(L::splat(TANH_P[2]));
    let q = s
        .add(L::splat(TANH_Q[0]))
        .mul(s)
        .add(L::splat(TANH_Q[1]))
        .mul(s)
        .add(L::splat(TANH_Q[2]));
    let small = x.add(x.mul(s).mul(p.div(q)));
    let z = exp_l(L::splat(-2.0).mul(a));
    let large = L::splat(1.0)
        .sub(L::splat(2.0).mul(z).div(L::splat(1.0).add(z)))
        .or(sign);
    L::select(a.lt(L::splat(TANH_CUT)), small, large)
}

// ---------------------------------------------------------------------------
// Elementwise drive loops. `c` is an optional scalar operand (ignored by
// ops that do not need one); tails shorter than a vector run the identical
// algorithm through the f64 lane.
// ---------------------------------------------------------------------------

/// A `dst[i] = f(c, src[i])` kernel body.
pub(crate) trait MapOp {
    unsafe fn ap<L: Lanes>(c: L, x: L) -> L;
}

/// A `dst[i] = f(a[i], b[i])` kernel body.
pub(crate) trait BinOp {
    unsafe fn ap<L: Lanes>(x: L, y: L) -> L;
}

macro_rules! map_op {
    ($name:ident, |$c:ident, $x:ident| $body:expr) => {
        pub(crate) struct $name;
        impl MapOp for $name {
            #[inline(always)]
            unsafe fn ap<L: Lanes>($c: L, $x: L) -> L {
                $body
            }
        }
    };
}

macro_rules! bin_op {
    ($name:ident, |$x:ident, $y:ident| $body:expr) => {
        pub(crate) struct $name;
        impl BinOp for $name {
            #[inline(always)]
            unsafe fn ap<L: Lanes>($x: L, $y: L) -> L {
                $body
            }
        }
    };
}

bin_op!(OpAdd, |x, y| x.add(y));
bin_op!(OpSub, |x, y| x.sub(y));
bin_op!(OpMul, |x, y| x.mul(y));
bin_op!(OpDiv, |x, y| x.div(y));
// g · (1 − y²): the tanh backward fused into one pass.
bin_op!(OpGradTanh, |g, y| g.mul(L::splat(1.0).sub(y.mul(y))));

map_op!(OpScale, |c, x| c.mul(x));
map_op!(OpAddScalar, |c, x| c.add(x));
map_op!(OpNeg, |_c, x| x.xor(L::splat(-0.0)));
map_op!(OpSquare, |_c, x| x.mul(x));
map_op!(OpSqrt, |_c, x| x.sqrt());
map_op!(OpAbs, |_c, x| L::splat(-0.0).andnot(x));
// c / x with c = 1 is the reciprocal.
map_op!(OpRecipOf, |c, x| c.div(x));
// c − x² with c = 1 is the tanh derivative from the stored activation.
map_op!(OpConstMinusSquare, |c, x| c.sub(x.mul(x)));
map_op!(OpTanh, |_c, x| tanh_l(x));
map_op!(OpExp, |_c, x| exp_l(x));

#[inline(always)]
unsafe fn map_drive<L: Lanes, O: MapOp>(c: f64, src: &[f64], dst: &mut [f64]) {
    let w = L::W;
    let main = src.len() - src.len() % w;
    let cv = L::splat(c);
    let (sm, st) = src.split_at(main);
    let (dm, dt) = dst.split_at_mut(main);
    for (dc, sc) in dm.chunks_exact_mut(w).zip(sm.chunks_exact(w)) {
        O::ap(cv, L::load(sc)).store(dc);
    }
    if L::W > 1 {
        map_drive::<f64, O>(c, st, dt);
    }
}

#[inline(always)]
unsafe fn map_inplace_drive<L: Lanes, O: MapOp>(c: f64, d: &mut [f64]) {
    let w = L::W;
    let main = d.len() - d.len() % w;
    let cv = L::splat(c);
    let (dm, dt) = d.split_at_mut(main);
    for dc in dm.chunks_exact_mut(w) {
        O::ap(cv, L::load(dc)).store(dc);
    }
    if L::W > 1 {
        map_inplace_drive::<f64, O>(c, dt);
    }
}

#[inline(always)]
unsafe fn bin_drive<L: Lanes, O: BinOp>(a: &[f64], b: &[f64], dst: &mut [f64]) {
    let w = L::W;
    let main = a.len() - a.len() % w;
    let (am, at) = a.split_at(main);
    let (bm, bt) = b.split_at(main);
    let (dm, dt) = dst.split_at_mut(main);
    for ((dc, ac), bc) in dm
        .chunks_exact_mut(w)
        .zip(am.chunks_exact(w))
        .zip(bm.chunks_exact(w))
    {
        O::ap(L::load(ac), L::load(bc)).store(dc);
    }
    if L::W > 1 {
        bin_drive::<f64, O>(at, bt, dt);
    }
}

#[inline(always)]
unsafe fn axpy_drive<L: Lanes>(alpha: f64, x: &[f64], y: &mut [f64]) {
    let w = L::W;
    let main = x.len() - x.len() % w;
    let av = L::splat(alpha);
    let (xm, xt) = x.split_at(main);
    let (ym, yt) = y.split_at_mut(main);
    for (yc, xc) in ym.chunks_exact_mut(w).zip(xm.chunks_exact(w)) {
        L::load(yc).add(av.mul(L::load(xc))).store(yc);
    }
    if L::W > 1 {
        axpy_drive::<f64>(alpha, xt, yt);
    }
}

// ---------------------------------------------------------------------------
// Target-feature shims: the only unsafe boundary. Dispatch guarantees a
// shim is entered only when its feature was detected.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_w4<O: MapOp>(c: f64, s: &[f64], d: &mut [f64]) {
    map_drive::<V4, O>(c, s, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn map_w8<O: MapOp>(c: f64, s: &[f64], d: &mut [f64]) {
    map_drive::<V8, O>(c, s, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_inplace_w4<O: MapOp>(c: f64, d: &mut [f64]) {
    map_inplace_drive::<V4, O>(c, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn map_inplace_w8<O: MapOp>(c: f64, d: &mut [f64]) {
    map_inplace_drive::<V8, O>(c, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bin_w4<O: BinOp>(a: &[f64], b: &[f64], d: &mut [f64]) {
    bin_drive::<V4, O>(a, b, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bin_w8<O: BinOp>(a: &[f64], b: &[f64], d: &mut [f64]) {
    bin_drive::<V8, O>(a, b, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_w4(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_drive::<V4>(alpha, x, y)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_w8(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_drive::<V8>(alpha, x, y)
}

// ---------------------------------------------------------------------------
// Dispatched kernels (crate-internal API).
// ---------------------------------------------------------------------------

#[inline]
pub(crate) fn map_k<O: MapOp>(c: f64, s: &[f64], d: &mut [f64]) {
    debug_assert_eq!(s.len(), d.len());
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { map_w4::<O>(c, s, d) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { map_w8::<O>(c, s, d) },
        _ => unsafe { map_drive::<f64, O>(c, s, d) },
    }
}

#[inline]
pub(crate) fn map_inplace_k<O: MapOp>(c: f64, d: &mut [f64]) {
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { map_inplace_w4::<O>(c, d) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { map_inplace_w8::<O>(c, d) },
        _ => unsafe { map_inplace_drive::<f64, O>(c, d) },
    }
}

#[inline]
pub(crate) fn bin_k<O: BinOp>(a: &[f64], b: &[f64], d: &mut [f64]) {
    debug_assert!(a.len() == b.len() && a.len() == d.len());
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { bin_w4::<O>(a, b, d) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { bin_w8::<O>(a, b, d) },
        _ => unsafe { bin_drive::<f64, O>(a, b, d) },
    }
}

/// `y += alpha · x` (no FMA, so bit-identical at every width).
#[inline]
pub(crate) fn vaxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { axpy_w4(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { axpy_w8(alpha, x, y) },
        _ => unsafe { axpy_drive::<f64>(alpha, x, y) },
    }
}

// ---------------------------------------------------------------------------
// Reductions: eight fixed accumulation lanes at every width.
// ---------------------------------------------------------------------------

#[inline(always)]
fn finish8(acc: &[f64; 8], tail: &[f64]) -> f64 {
    let mut t = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for &v in tail {
        t += v;
    }
    t
}

#[inline(always)]
fn finish8_sq(acc: &[f64; 8], tail: &[f64]) -> f64 {
    let mut t = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for &v in tail {
        t += v * v;
    }
    t
}

#[inline(always)]
fn finish8_dot(acc: &[f64; 8], xt: &[f64], yt: &[f64]) -> f64 {
    let mut t = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (xi, yi) in xt.iter().zip(yt) {
        t += xi * yi;
    }
    t
}

fn sum_w1(x: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut acc = [0.0f64; 8];
    for c in x[..main].chunks_exact(8) {
        for (a, v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    finish8(&acc, &x[main..])
}

fn sum_sq_w1(x: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut acc = [0.0f64; 8];
    for c in x[..main].chunks_exact(8) {
        for (a, v) in acc.iter_mut().zip(c) {
            *a += v * v;
        }
    }
    finish8_sq(&acc, &x[main..])
}

fn dot_w1(x: &[f64], y: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut acc = [0.0f64; 8];
    for (xc, yc) in x[..main].chunks_exact(8).zip(y[..main].chunks_exact(8)) {
        for ((a, xv), yv) in acc.iter_mut().zip(xc).zip(yc) {
            *a += xv * yv;
        }
    }
    finish8_dot(&acc, &x[main..], &y[main..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_w4(x: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    for c in x[..main].chunks_exact(8) {
        a0 = _mm256_add_pd(a0, _mm256_loadu_pd(c.as_ptr()));
        a1 = _mm256_add_pd(a1, _mm256_loadu_pd(c.as_ptr().add(4)));
    }
    let mut acc = [0.0f64; 8];
    _mm256_storeu_pd(acc.as_mut_ptr(), a0);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    finish8(&acc, &x[main..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_sq_w4(x: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    for c in x[..main].chunks_exact(8) {
        let v0 = _mm256_loadu_pd(c.as_ptr());
        let v1 = _mm256_loadu_pd(c.as_ptr().add(4));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(v0, v0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(v1, v1));
    }
    let mut acc = [0.0f64; 8];
    _mm256_storeu_pd(acc.as_mut_ptr(), a0);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    finish8_sq(&acc, &x[main..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_w4(x: &[f64], y: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    for (xc, yc) in x[..main].chunks_exact(8).zip(y[..main].chunks_exact(8)) {
        let x0 = _mm256_loadu_pd(xc.as_ptr());
        let x1 = _mm256_loadu_pd(xc.as_ptr().add(4));
        let y0 = _mm256_loadu_pd(yc.as_ptr());
        let y1 = _mm256_loadu_pd(yc.as_ptr().add(4));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(x0, y0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(x1, y1));
    }
    let mut acc = [0.0f64; 8];
    _mm256_storeu_pd(acc.as_mut_ptr(), a0);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    finish8_dot(&acc, &x[main..], &y[main..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sum_w8(x: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut a = _mm512_setzero_pd();
    for c in x[..main].chunks_exact(8) {
        a = _mm512_add_pd(a, _mm512_loadu_pd(c.as_ptr()));
    }
    let mut acc = [0.0f64; 8];
    _mm512_storeu_pd(acc.as_mut_ptr(), a);
    finish8(&acc, &x[main..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sum_sq_w8(x: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut a = _mm512_setzero_pd();
    for c in x[..main].chunks_exact(8) {
        let v = _mm512_loadu_pd(c.as_ptr());
        a = _mm512_add_pd(a, _mm512_mul_pd(v, v));
    }
    let mut acc = [0.0f64; 8];
    _mm512_storeu_pd(acc.as_mut_ptr(), a);
    finish8_sq(&acc, &x[main..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_w8(x: &[f64], y: &[f64]) -> f64 {
    let main = x.len() - x.len() % 8;
    let mut a = _mm512_setzero_pd();
    for (xc, yc) in x[..main].chunks_exact(8).zip(y[..main].chunks_exact(8)) {
        let xv = _mm512_loadu_pd(xc.as_ptr());
        let yv = _mm512_loadu_pd(yc.as_ptr());
        a = _mm512_add_pd(a, _mm512_mul_pd(xv, yv));
    }
    let mut acc = [0.0f64; 8];
    _mm512_storeu_pd(acc.as_mut_ptr(), a);
    finish8_dot(&acc, &x[main..], &y[main..])
}

/// Sum with the fixed eight-lane association.
#[inline]
pub(crate) fn vsum(x: &[f64]) -> f64 {
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { sum_w4(x) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { sum_w8(x) },
        _ => sum_w1(x),
    }
}

/// Sum of squares with the fixed eight-lane association.
#[inline]
pub(crate) fn vsum_sq(x: &[f64]) -> f64 {
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { sum_sq_w4(x) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { sum_sq_w8(x) },
        _ => sum_sq_w1(x),
    }
}

/// Dot product with the fixed eight-lane association.
#[inline]
pub(crate) fn vdot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    match width() {
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { dot_w4(x, y) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { dot_w8(x, y) },
        _ => dot_w1(x, y),
    }
}

/// Tests that flip the global dispatch width serialize on this.
#[cfg(test)]
pub(crate) static WIDTH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with the dispatch forced to `w` lanes, restoring the previous
/// width afterwards. Returns `None` when the host cannot run `w` lanes.
/// Callers must hold [`WIDTH_LOCK`].
#[cfg(test)]
pub(crate) fn with_width<R>(w: usize, f: impl FnOnce() -> R) -> Option<R> {
    if clamp_width(w) != w {
        return None; // width not available on this host
    }
    let prev = width();
    set_width(w);
    let r = f();
    set_width(prev);
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awkward(n: usize) -> Vec<f64> {
        // Mixed magnitudes and signs, including values that straddle the
        // tanh branch point and exp's reduction boundaries.
        (0..n)
            .map(|i| {
                let t = (i as f64 * 0.7251).sin() * 10f64.powi((i % 13) as i32 - 6);
                if i % 7 == 0 {
                    -t
                } else {
                    t
                }
            })
            .collect()
    }

    #[test]
    fn env_parsing_and_clamping() {
        assert_eq!(parse_width("scalar"), Some(1));
        assert_eq!(parse_width("AVX2"), Some(4));
        assert_eq!(parse_width(" 8 "), Some(8));
        assert_eq!(parse_width("weird"), None);
        assert_eq!(clamp_width(1), 1);
        assert!(clamp_width(usize::MAX) == detected_width());
    }

    #[test]
    fn exp_matches_libm_to_ulps() {
        let _g = WIDTH_LOCK.lock().unwrap();
        for w in [1usize, 4, 8] {
            with_width(w, || {
                for &x in &[
                    0.0, 1.0, -1.0, 0.5, -0.5, 10.0, -10.0, 100.0, -100.0, 700.0, -700.0,
                    1e-8, -1e-8, std::f64::consts::LN_2, 709.7, -708.3,
                ] {
                    let mut out = [0.0];
                    map_k::<OpExp>(0.0, &[x], &mut out);
                    let want = x.exp();
                    let rel = ((out[0] - want) / want.max(f64::MIN_POSITIVE)).abs();
                    assert!(rel < 1e-13, "w{w} exp({x}) = {} want {want}", out[0]);
                }
                // saturation
                let mut out = [0.0, 0.0];
                map_k::<OpExp>(0.0, &[800.0, -800.0], &mut out);
                assert_eq!(out[0], f64::INFINITY);
                assert_eq!(out[1], 0.0);
            });
        }
    }

    #[test]
    fn tanh_matches_libm_to_ulps() {
        let _g = WIDTH_LOCK.lock().unwrap();
        for w in [1usize, 4, 8] {
            with_width(w, || {
                for &x in &[
                    0.0, 1e-12, -1e-12, 0.1, -0.1, 0.624, 0.626, -0.625, 1.0, -3.0, 19.0,
                    -19.0, 40.0, -40.0, 1e3, -1e3, f64::INFINITY, f64::NEG_INFINITY,
                ] {
                    let mut out = [0.0];
                    map_k::<OpTanh>(0.0, &[x], &mut out);
                    let want = x.tanh();
                    assert!(
                        (out[0] - want).abs() < 1e-14,
                        "w{w} tanh({x}) = {} want {want}",
                        out[0]
                    );
                }
            });
        }
    }

    #[test]
    fn all_widths_bit_identical_on_every_kernel() {
        let _g = WIDTH_LOCK.lock().unwrap();
        // Ragged length exercises the tail lanes.
        let x = awkward(1003);
        let y: Vec<f64> = x.iter().map(|v| v * 0.37 + 0.11).collect();
        let run = |w: usize| {
            with_width(w, || {
                let mut r: Vec<u64> = Vec::new();
                r.push(vsum(&x).to_bits());
                r.push(vsum_sq(&x).to_bits());
                r.push(vdot(&x, &y).to_bits());
                let mut d = vec![0.0; x.len()];
                bin_k::<OpAdd>(&x, &y, &mut d);
                r.extend(d.iter().map(|v| v.to_bits()));
                bin_k::<OpMul>(&x, &y, &mut d);
                r.extend(d.iter().map(|v| v.to_bits()));
                map_k::<OpTanh>(0.0, &x, &mut d);
                r.extend(d.iter().map(|v| v.to_bits()));
                map_k::<OpExp>(0.0, &x, &mut d);
                r.extend(d.iter().map(|v| v.to_bits()));
                let mut a = y.clone();
                vaxpy(0.77, &x, &mut a);
                r.extend(a.iter().map(|v| v.to_bits()));
                // A one-coordinate tanh jet over (x, y, x) blocks.
                let (mut u, mut du) = (vec![0.0; x.len()], vec![0.0; x.len()]);
                tanh_jet_fwd(&[&x, &y, &x], &mut [&mut u, &mut du, &mut d], 1, 1);
                r.extend(u.iter().chain(&du).chain(&d).map(|v| v.to_bits()));
                r
            })
        };
        let want = run(1).expect("scalar always available");
        for w in [4usize, 8] {
            if let Some(got) = run(w) {
                assert_eq!(got, want, "width {w} diverged from scalar bits");
            }
        }
    }

    #[test]
    fn ldexp_edges() {
        let _g = WIDTH_LOCK.lock().unwrap();
        // exp just below overflow must stay finite, just above must be inf.
        for w in [1usize, 4, 8] {
            with_width(w, || {
                let mut out = [0.0];
                map_k::<OpExp>(0.0, &[709.7], &mut out);
                assert!(out[0].is_finite() && out[0] > 1e308);
                map_k::<OpExp>(0.0, &[-708.0], &mut out);
                assert!(out[0] > 0.0 && out[0] < 1e-307);
            });
        }
    }
}
