//! Property-based tests for the FFT, and the bit-for-bit check of the
//! split-complex kernels against the scalar radix-2 loop they replaced.

use crate::plan::Radix2Oracle;
use crate::{dft_naive, fft, fft_freq, ifft, Fft2Plan, FftPlan};
use proptest::prelude::*;
use qpinn_dual::Complex64;
use qpinn_tensor::simd;
use std::sync::Mutex;

/// Tests here force the process-wide SIMD width in turn.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` at every dispatch width the host supports.
fn at_every_width(f: impl Fn(usize)) {
    let _g = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = simd::width();
    for w in [1usize, 4, 8] {
        if w <= simd::detected_width() {
            simd::set_width(w);
            f(w);
        }
    }
    simd::set_width(prev);
}

fn bits(x: &[Complex64]) -> Vec<(u64, u64)> {
    x.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// `FftPlan`'s forward and inverse transforms of `x` equal the oracle's
/// bit for bit at every width.
fn assert_plan_matches_oracle(x: &[Complex64]) {
    let (plan, oracle) = (FftPlan::new(x.len()), Radix2Oracle::new(x.len()));
    let mut want_f = x.to_vec();
    oracle.forward(&mut want_f);
    let mut want_i = x.to_vec();
    oracle.inverse(&mut want_i);
    at_every_width(|w| {
        let mut got = x.to_vec();
        plan.forward(&mut got);
        assert_eq!(bits(&got), bits(&want_f), "forward, n = {}, width {w}", x.len());
        let mut got = x.to_vec();
        plan.inverse(&mut got);
        assert_eq!(bits(&got), bits(&want_i), "inverse, n = {}, width {w}", x.len());
    });
}

/// Mixed signs and magnitudes, with signed zeros mixed in.
fn awkward(n: usize, seed: u64) -> Vec<Complex64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        match s % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-300,
            3 => ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e150,
            _ => (s >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 5.0,
        }
    };
    (0..n).map(|_| Complex64::new(next(), next())).collect()
}

#[test]
fn every_length_to_4096_matches_the_radix2_oracle_bit_for_bit() {
    for log_n in 0..=12 {
        let n = 1usize << log_n;
        assert_plan_matches_oracle(&awkward(n, log_n as u64 + 1));
        // All-zero signals of mixed sign: the zeros' signs must survive.
        let zeros: Vec<Complex64> = awkward(n, 99)
            .iter()
            .map(|c| Complex64::new(0.0f64.copysign(c.re), (-0.0f64).copysign(c.im)))
            .collect();
        assert_plan_matches_oracle(&zeros);
    }
}

#[test]
fn fft2_matches_the_radix2_oracle_bit_for_bit() {
    for (nx, ny) in [(1, 1), (1, 8), (8, 1), (2, 16), (16, 4), (32, 32), (64, 8)] {
        let x = awkward(nx * ny, (nx * 131 + ny) as u64);
        let oracle = |buf: &mut [Complex64], inverse: bool| {
            let (rows, cols) = (Radix2Oracle::new(ny), Radix2Oracle::new(nx));
            let run = |o: &Radix2Oracle, v: &mut [Complex64]| {
                if inverse {
                    o.inverse(v)
                } else {
                    o.forward(v)
                }
            };
            for row in buf.chunks_mut(ny) {
                run(&rows, row);
            }
            for j in 0..ny {
                let mut col: Vec<Complex64> = (0..nx).map(|i| buf[i * ny + j]).collect();
                run(&cols, &mut col);
                for (i, c) in col.into_iter().enumerate() {
                    buf[i * ny + j] = c;
                }
            }
        };
        let mut want_f = x.clone();
        oracle(&mut want_f, false);
        let mut want_i = x.clone();
        oracle(&mut want_i, true);
        let plan = Fft2Plan::new(nx, ny);
        at_every_width(|w| {
            let mut got = x.clone();
            plan.forward(&mut got);
            assert_eq!(bits(&got), bits(&want_f), "2D forward {nx}x{ny}, width {w}");
            let mut got = x.clone();
            plan.inverse(&mut got);
            assert_eq!(bits(&got), bits(&want_i), "2D inverse {nx}x{ny}, width {w}");
        });
    }
}

fn signal(log_n: u32) -> impl Strategy<Value = Vec<Complex64>> {
    let n = 1usize << log_n;
    proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), n)
        .prop_map(|v| v.into_iter().map(|(r, i)| Complex64::new(r, i)).collect())
}

/// Mostly moderate values; one in nine each a `+0`, a `−0`, or a value
/// between 2⁻⁹⁶⁰ and 2⁹⁴⁴ in magnitude.
fn component() -> impl Strategy<Value = f64> {
    (0u8..9, -5.0..5.0f64, -60i32..60, -1.0..1.0f64).prop_map(|(kind, a, e, m)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => m * 2f64.powi(e * 16),
        _ => a,
    })
}

fn awkward_signal(log_n: u32) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((component(), component()), 1usize << log_n)
        .prop_map(|v| v.into_iter().map(|(r, i)| Complex64::new(r, i)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plan_matches_the_radix2_oracle_bit_for_bit(x in (0u32..=12).prop_flat_map(awkward_signal)) {
        assert_plan_matches_oracle(&x);
    }

    #[test]
    fn roundtrip(x in (0u32..8).prop_flat_map(signal)) {
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn linearity(x in signal(5), y in signal(5), a in -3.0..3.0f64) {
        let lhs: Vec<Complex64> = {
            let sum: Vec<Complex64> = x.iter().zip(&y).map(|(u, v)| u.scale(a) + *v).collect();
            fft(&sum)
        };
        let fx = fft(&x);
        let fy = fft(&y);
        for ((l, u), v) in lhs.iter().zip(&fx).zip(&fy) {
            let want = u.scale(a) + *v;
            prop_assert!((l.re - want.re).abs() < 1e-8);
            prop_assert!((l.im - want.im).abs() < 1e-8);
        }
    }

    #[test]
    fn parseval(x in signal(6)) {
        // Σ|x|² = (1/N) Σ|X|².
        let n = x.len() as f64;
        let time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let freq: f64 = fft(&x).iter().map(|v| v.norm_sqr()).sum::<f64>() / n;
        prop_assert!((time - freq).abs() < 1e-7 * time.max(1.0));
    }

    #[test]
    fn agrees_with_naive(x in signal(4)) {
        let fast = fft(&x);
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!((a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn freqs_are_antisymmetric(log_n in 2u32..9) {
        let n = 1usize << log_n;
        let f = fft_freq(n, 1.0);
        // bin j and bin n−j carry opposite frequencies (j ≠ 0, n/2).
        for j in 1..n / 2 {
            prop_assert!((f[j] + f[n - j]).abs() < 1e-12);
        }
        prop_assert_eq!(f[0], 0.0);
    }
}
