//! Strang-split spectral (split-step Fourier) propagation for periodic
//! Schrödinger problems, linear and cubic-nonlinear.
//!
//! One step of `i ψ_t = −½ψ_xx + V(x)ψ − g|ψ|²ψ`:
//!
//! 1. half potential/nonlinear kick `ψ ← e^{−i(V − g|ψ|²)Δt/2} ψ`,
//! 2. full kinetic step in Fourier space `ψ̂ ← e^{−ik²Δt/2} ψ̂`,
//! 3. second half kick.
//!
//! The scheme is second-order in Δt, exactly norm-preserving, and
//! spectrally accurate in space.

use crate::field::Field1d;
use crate::grid::{Grid1d, GridKind};
use qpinn_dual::Complex64;
use qpinn_fft::{fft_freq, FftPlan};
use qpinn_tensor::simd::{self, Kick, SplitStep};

/// The nonlinear term of the equation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Nonlinearity {
    /// Linear Schrödinger (`g = 0`).
    None,
    /// Focusing/defocusing cubic term `−g|ψ|²ψ` on the Hamiltonian side
    /// (`g = 1` gives the standard focusing NLS `i h_t + ½h_xx + |h|²h = 0`).
    Cubic {
        /// Coupling strength.
        g: f64,
    },
}

/// Evolve `psi0` to `t_end` with `n_steps` Strang steps on a periodic grid
/// whose size is a power of two, storing every `store_every`-th slice.
///
/// ψ stays split into real and imaginary arrays for the whole time loop,
/// which runs in one dispatch of [`simd::split_step`]: the FFTs through
/// the plan's split-complex kernels, the linear kick `e^{−iVΔt/2}` from a
/// table computed once, the cubic kick's phase through the shared
/// `sincos` polynomial once per step (a kick leaves `|ψ|` as it was, so
/// a step's second half kick and the next step's first share their
/// factors). Linear propagation gives the bits of the scalar loop over
/// `Complex64` with libm's `cis`; nonlinear slices differ from that loop
/// in the last digits (8.7e-14 at most on the full-resolution
/// `nls-soliton` reference).
///
/// # Panics
/// Panics for non-periodic grids, non-power-of-two sizes, or degenerate
/// arguments.
pub fn split_step_evolve(
    grid: &Grid1d,
    potential: &dyn Fn(f64) -> f64,
    nonlinearity: Nonlinearity,
    psi0: &[Complex64],
    t_end: f64,
    n_steps: usize,
    store_every: usize,
) -> Field1d {
    assert_eq!(grid.kind, GridKind::Periodic, "split-step needs periodicity");
    assert!(grid.n.is_power_of_two(), "grid size must be 2^k for the FFT");
    assert_eq!(psi0.len(), grid.n);
    assert!(n_steps > 0 && t_end > 0.0 && store_every > 0);

    let dt = t_end / n_steps as f64;
    let plan = FftPlan::new(grid.n);
    let vs: Vec<f64> = grid.points().iter().map(|&x| potential(x)).collect();
    let (kinetic_re, kinetic_im) = split(
        fft_freq(grid.n, grid.length())
            .iter()
            .map(|&k| Complex64::cis(-0.5 * k * k * dt)),
    );
    let linear;
    let kick = match nonlinearity {
        Nonlinearity::None => {
            linear = split(vs.iter().map(|&v| Complex64::cis(-v * 0.5 * dt)));
            Kick::Linear {
                re: &linear.0,
                im: &linear.1,
            }
        }
        Nonlinearity::Cubic { g } => Kick::Cubic { v: &vs, g, dt },
    };
    let step = SplitStep {
        fft: plan.tables(),
        kinetic_re: &kinetic_re,
        kinetic_im: &kinetic_im,
        kick,
    };

    let (mut re, mut im) = split(psi0.iter().copied());
    let mut times = vec![0.0];
    let mut data = vec![psi0.to_vec()];
    simd::split_step(&step, &mut re, &mut im, n_steps, store_every, &mut |k, re, im| {
        times.push(k as f64 * dt);
        data.push(re.iter().zip(im).map(|(&r, &i)| Complex64::new(r, i)).collect());
    });
    Field1d::new(*grid, times, data)
}

/// Real and imaginary parts in two arrays.
fn split(z: impl Iterator<Item = Complex64>) -> (Vec<f64>, Vec<f64>) {
    z.map(|c| (c.re, c.im)).unzip()
}

/// The scalar Strang loop over `Complex64` with libm's `cis` in the kick,
/// as the split-complex propagation replaced it: the oracle it is held to.
#[cfg(test)]
pub(crate) fn split_step_oracle(
    grid: &Grid1d,
    potential: &dyn Fn(f64) -> f64,
    nonlinearity: Nonlinearity,
    psi0: &[Complex64],
    t_end: f64,
    n_steps: usize,
    store_every: usize,
) -> Field1d {
    let dt = t_end / n_steps as f64;
    let plan = FftPlan::new(grid.n);
    let vs: Vec<f64> = grid.points().iter().map(|&x| potential(x)).collect();
    let kinetic: Vec<Complex64> = fft_freq(grid.n, grid.length())
        .iter()
        .map(|&k| Complex64::cis(-0.5 * k * k * dt))
        .collect();

    let g = match nonlinearity {
        Nonlinearity::None => 0.0,
        Nonlinearity::Cubic { g } => g,
    };
    let half_kick = |psi: &mut [Complex64]| {
        for (p, &v) in psi.iter_mut().zip(&vs) {
            let veff = v - g * p.norm_sqr();
            *p *= Complex64::cis(-veff * 0.5 * dt);
        }
    };

    let mut psi = psi0.to_vec();
    let mut times = vec![0.0];
    let mut data = vec![psi.clone()];
    for step in 1..=n_steps {
        half_kick(&mut psi);
        plan.forward(&mut psi);
        for (p, k) in psi.iter_mut().zip(&kinetic) {
            *p *= *k;
        }
        plan.inverse(&mut psi);
        half_kick(&mut psi);
        if step % store_every == 0 || step == n_steps {
            times.push(step as f64 * dt);
            data.push(psi.clone());
        }
    }
    Field1d::new(*grid, times, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests here force the process-wide SIMD width in turn.
    static WIDTH_LOCK: Mutex<()> = Mutex::new(());

    /// `f` at every dispatch width the host supports.
    fn at_every_width<R>(f: impl Fn() -> R) -> Vec<R> {
        let _g = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = simd::width();
        let out = [1usize, 4, 8]
            .into_iter()
            .filter(|&w| w <= simd::detected_width())
            .map(|w| {
                simd::set_width(w);
                f()
            })
            .collect();
        simd::set_width(prev);
        out
    }

    fn bits(f: &Field1d) -> Vec<u64> {
        (0..f.n_slices())
            .flat_map(|k| f.slice(k).iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]))
            .chain(f.times().iter().map(|t| t.to_bits()))
            .collect()
    }

    fn max_abs_diff(a: &Field1d, b: &Field1d) -> f64 {
        assert_eq!(a.times(), b.times());
        (0..a.n_slices())
            .flat_map(|k| a.slice(k).iter().zip(b.slice(k)).map(|(x, y)| (*x - *y).abs()))
            .fold(0.0, f64::max)
    }

    /// The NLS references at their full resolution (256 points, 2000
    /// steps, 64 slices): `nls-soliton` (`sech x` on [−10, 10], t ≤ 1) and
    /// the Raissi 2-soliton (`2 sech x` on [−5, 5], t ≤ π/2).
    #[test]
    fn nonlinear_references_stay_within_1e_12_of_the_libm_kick() {
        for (x0, x1, amp, t_end) in [
            (-10.0, 10.0, 1.0, 1.0),
            (-5.0, 5.0, 2.0, std::f64::consts::FRAC_PI_2),
        ] {
            let grid = Grid1d::periodic(x0, x1, 256);
            let psi0: Vec<Complex64> = grid
                .points()
                .iter()
                .map(|&x| Complex64::new(amp / x.cosh(), 0.0))
                .collect();
            let cubic = Nonlinearity::Cubic { g: 1.0 };
            let want = split_step_oracle(&grid, &|_| 0.0, cubic, &psi0, t_end, 2000, 31);
            let got = at_every_width(|| {
                split_step_evolve(&grid, &|_| 0.0, cubic, &psi0, t_end, 2000, 31)
            });
            for f in &got {
                assert_eq!(bits(f), bits(&got[0]), "widths disagree (amplitude {amp})");
            }
            let drift = max_abs_diff(&got[0], &want);
            assert!(drift <= 1e-12, "amplitude {amp}: {drift:e} from the libm kick");
        }
    }

    #[test]
    fn linear_propagation_keeps_the_bits_of_the_libm_loop() {
        let grid = Grid1d::periodic(-10.0, 10.0, 256);
        let psi0: Vec<Complex64> = grid
            .points()
            .iter()
            .map(|&x| Complex64::new((-(x - 1.5) * (x - 1.5)).exp(), 0.3 * (2.0 * x).sin()))
            .collect();
        let harmonic = |x: f64| 0.5 * 4.0 * x * x;
        for v in [&(|_| 0.0) as &dyn Fn(f64) -> f64, &harmonic] {
            let want = bits(&split_step_oracle(&grid, v, Nonlinearity::None, &psi0, 1.3, 500, 7));
            for got in at_every_width(|| {
                split_step_evolve(&grid, v, Nonlinearity::None, &psi0, 1.3, 500, 7)
            }) {
                assert_eq!(bits(&got), want);
            }
        }
        // Grids shorter than two vectors run on the scalar lane.
        for n in [2usize, 4, 8] {
            let g = Grid1d::periodic(0.0, 1.0, n);
            let p: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64 - 1.0, 0.5)).collect();
            let want = bits(&split_step_oracle(&g, &harmonic, Nonlinearity::None, &p, 0.2, 9, 4));
            for got in at_every_width(|| {
                split_step_evolve(&g, &harmonic, Nonlinearity::None, &p, 0.2, 9, 4)
            }) {
                assert_eq!(bits(&got), want, "n = {n}");
            }
        }
    }

    #[test]
    fn free_plane_wave_is_exact() {
        // e^{ikx} evolves exactly as e^{i(kx − k²t/2)} under split-step
        // (the kinetic factor is exact for Fourier modes).
        let n = 64;
        let l = 2.0 * std::f64::consts::PI;
        let grid = Grid1d::periodic(0.0, l, n);
        let k = 4.0;
        let psi0: Vec<Complex64> = grid.points().iter().map(|&x| Complex64::cis(k * x)).collect();
        let t = 0.37;
        let f = split_step_evolve(&grid, &|_| 0.0, Nonlinearity::None, &psi0, t, 10, 10);
        let last = f.slice(f.n_slices() - 1);
        for (x, v) in grid.points().iter().zip(last) {
            let want = Complex64::cis(k * x - 0.5 * k * k * t);
            assert!((v.re - want.re).abs() < 1e-12 && (v.im - want.im).abs() < 1e-12);
        }
    }

    #[test]
    fn gaussian_spreading_matches_analytic_width() {
        // Free Gaussian: σ(t)² = σ₀² (1 + (t/(2σ₀²))²).
        let grid = Grid1d::periodic(-12.0, 12.0, 256);
        let sigma0 = 0.8f64;
        let norm = 1.0 / (2.0 * std::f64::consts::PI * sigma0 * sigma0).powf(0.25);
        let psi0: Vec<Complex64> = grid
            .points()
            .iter()
            .map(|&x| Complex64::new(norm * (-x * x / (4.0 * sigma0 * sigma0)).exp(), 0.0))
            .collect();
        let t = 1.2;
        let f = split_step_evolve(&grid, &|_| 0.0, Nonlinearity::None, &psi0, t, 600, 600);
        let last = f.slice(f.n_slices() - 1);
        // measured variance of |ψ|²
        let xs = grid.points();
        let dens: Vec<f64> = last.iter().map(|c| c.norm_sqr()).collect();
        let total = grid.integrate(&dens);
        let mean: f64 = grid.integrate(
            &xs.iter().zip(&dens).map(|(x, d)| x * d).collect::<Vec<_>>(),
        ) / total;
        let var: f64 = grid.integrate(
            &xs.iter()
                .zip(&dens)
                .map(|(x, d)| (x - mean).powi(2) * d)
                .collect::<Vec<_>>(),
        ) / total;
        let want = sigma0 * sigma0 * (1.0 + (t / (2.0 * sigma0 * sigma0)).powi(2));
        assert!((var - want).abs() < 1e-3 * want, "var {var} vs {want}");
    }

    #[test]
    fn harmonic_coherent_state_oscillates_with_period() {
        // A displaced ground state in V = ½ω²x² returns to its initial
        // density after T = 2π/ω.
        let omega = 2.0;
        let grid = Grid1d::periodic(-10.0, 10.0, 256);
        let x0 = 1.5;
        let psi0: Vec<Complex64> = grid
            .points()
            .iter()
            .map(|&x| {
                Complex64::new(
                    (omega / std::f64::consts::PI).powf(0.25)
                        * (-0.5 * omega * (x - x0) * (x - x0)).exp(),
                    0.0,
                )
            })
            .collect();
        let t_end = 2.0 * std::f64::consts::PI / omega;
        let f = split_step_evolve(
            &grid,
            &|x| 0.5 * omega * omega * x * x,
            Nonlinearity::None,
            &psi0,
            t_end,
            2000,
            500,
        );
        // halfway through, the packet sits at −x₀; at the end, back at +x₀.
        let center = |k: usize| -> f64 {
            let dens: Vec<f64> = f.slice(k).iter().map(|c| c.norm_sqr()).collect();
            let total = grid.integrate(&dens);
            grid.integrate(
                &grid
                    .points()
                    .iter()
                    .zip(&dens)
                    .map(|(x, d)| x * d)
                    .collect::<Vec<_>>(),
            ) / total
        };
        let mid = center(2); // t = T/2
        let end = center(f.n_slices() - 1);
        assert!((mid + x0).abs() < 1e-3, "midpoint center {mid}");
        assert!((end - x0).abs() < 1e-3, "final center {end}");
    }

    #[test]
    fn nls_soliton_keeps_its_shape() {
        // q(x, t) = a·sech(a x)·e^{i a² t/2} solves i q_t + ½q_xx + |q|²q = 0.
        let a = 1.0;
        let grid = Grid1d::periodic(-20.0, 20.0, 256);
        let psi0: Vec<Complex64> = grid
            .points()
            .iter()
            .map(|&x| Complex64::new(a / (a * x).cosh(), 0.0))
            .collect();
        let t_end = 1.0;
        let f = split_step_evolve(
            &grid,
            &|_| 0.0,
            Nonlinearity::Cubic { g: 1.0 },
            &psi0,
            t_end,
            2000,
            2000,
        );
        let last = f.slice(f.n_slices() - 1);
        for (x, v) in grid.points().iter().zip(last) {
            let want = Complex64::from_polar(a / (a * x).cosh(), 0.5 * a * a * t_end);
            assert!(
                (v.re - want.re).abs() < 2e-4 && (v.im - want.im).abs() < 2e-4,
                "at {x}: {v:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn norm_conservation_nonlinear() {
        let grid = Grid1d::periodic(-10.0, 10.0, 128);
        let psi0: Vec<Complex64> = grid
            .points()
            .iter()
            .map(|&x| Complex64::new(2.0 / x.cosh(), 0.0))
            .collect();
        let f = split_step_evolve(
            &grid,
            &|_| 0.0,
            Nonlinearity::Cubic { g: 1.0 },
            &psi0,
            0.5,
            500,
            100,
        );
        let n0 = f.norm_at(0);
        for k in 0..f.n_slices() {
            assert!((f.norm_at(k) - n0).abs() < 1e-9 * n0);
        }
    }
}
