//! Generic method-of-lines (MOL) integration for real-valued, possibly
//! coupled, 1D evolution equations, plus an independent Strang-split
//! spectral integrator for reaction-diffusion systems.
//!
//! The MOL stepper discretizes space on a [`Grid1d`] and advances the
//! resulting ODE system with classic fixed-step RK4. It is deliberately
//! generic: the caller supplies the semi-discrete right-hand side as a
//! closure over the flat state vector, so one stepper serves
//! convection-diffusion, wave/Klein-Gordon (as first-order systems), and
//! coupled Turing systems alike. Results are stored in a [`FieldR1d`] —
//! the real, multi-component sibling of [`crate::Field1d`].

use crate::grid::{Grid1d, GridKind};
use qpinn_fft::{fft_freq, FftPlan};
use qpinn_dual::Complex64;

/// A real-valued space-time field with `n_comp` components, sampled on a
/// uniform spatial grid at a set of stored time slices.
///
/// Slice layout is component-major: entry `c * nx + i` of a slice holds
/// component `c` at grid node `i`.
#[derive(Clone, Debug)]
pub struct FieldR1d {
    grid: Grid1d,
    times: Vec<f64>,
    n_comp: usize,
    data: Vec<Vec<f64>>,
}

impl FieldR1d {
    /// Wrap raw slices. Each slice must hold `n_comp * grid.n` values.
    ///
    /// # Panics
    /// Panics on shape mismatch or an empty/unsorted time list.
    pub fn new(grid: Grid1d, times: Vec<f64>, n_comp: usize, data: Vec<Vec<f64>>) -> Self {
        assert_eq!(times.len(), data.len());
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[1] > w[0]), "times must increase");
        for s in &data {
            assert_eq!(s.len(), n_comp * grid.n);
        }
        FieldR1d {
            grid,
            times,
            n_comp,
            data,
        }
    }

    /// Number of components.
    pub fn n_comp(&self) -> usize {
        self.n_comp
    }

    /// Stored time stamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The spatial grid.
    pub fn grid(&self) -> &Grid1d {
        &self.grid
    }

    /// Number of stored slices.
    pub fn n_slices(&self) -> usize {
        self.data.len()
    }

    /// Raw slice `k` (component-major).
    pub fn slice(&self, k: usize) -> &[f64] {
        &self.data[k]
    }

    /// Value of component `c` at node `i` of slice `k`.
    pub fn value(&self, k: usize, c: usize, i: usize) -> f64 {
        self.data[k][c * self.grid.n + i]
    }

    /// Bilinear sample of all components at `(x, t)`; `t` is clamped to
    /// the stored range, `x` wraps on periodic grids and clamps on
    /// Dirichlet grids.
    pub fn sample(&self, x: f64, t: f64) -> Vec<f64> {
        let (k0, k1, wt) = locate_time(&self.times, t);
        let (i0, i1, wx) = self.locate_x(x);
        (0..self.n_comp)
            .map(|c| {
                let f = |k: usize, i: usize| self.value(k, c, i);
                let lo = f(k0, i0) * (1.0 - wx) + f(k0, i1) * wx;
                let hi = f(k1, i0) * (1.0 - wx) + f(k1, i1) * wx;
                lo * (1.0 - wt) + hi * wt
            })
            .collect()
    }

    fn locate_x(&self, x: f64) -> (usize, usize, f64) {
        let n = self.grid.n;
        let dx = self.grid.dx();
        match self.grid.kind {
            GridKind::Periodic => {
                let len = self.grid.length();
                let mut u = (x - self.grid.x0) / len;
                u -= u.floor();
                let s = u * n as f64;
                let i0 = (s.floor() as usize).min(n - 1);
                (i0, (i0 + 1) % n, s - i0 as f64)
            }
            GridKind::Dirichlet => {
                let s = ((x - self.grid.x0) / dx).clamp(0.0, (n - 1) as f64);
                let i0 = (s.floor() as usize).min(n - 2);
                (i0, i0 + 1, s - i0 as f64)
            }
        }
    }
}

fn locate_time(times: &[f64], t: f64) -> (usize, usize, f64) {
    if t <= times[0] {
        return (0, 0, 0.0);
    }
    let last = times.len() - 1;
    if t >= times[last] {
        return (last, last, 0.0);
    }
    let k = times.partition_point(|&s| s <= t) - 1;
    let w = (t - times[k]) / (times[k + 1] - times[k]);
    (k, k + 1, w)
}

/// Second-order periodic FD Laplacian of one component into `out`.
pub fn laplacian_periodic(u: &[f64], dx: f64, out: &mut [f64]) {
    let n = u.len();
    let inv = 1.0 / (dx * dx);
    for i in 0..n {
        let l = u[(i + n - 1) % n];
        let r = u[(i + 1) % n];
        out[i] = (l + r - 2.0 * u[i]) * inv;
    }
}

/// Second-order periodic central first derivative of one component.
pub fn gradient_periodic(u: &[f64], dx: f64, out: &mut [f64]) {
    let n = u.len();
    let inv = 0.5 / dx;
    for i in 0..n {
        let l = u[(i + n - 1) % n];
        let r = u[(i + 1) % n];
        out[i] = (r - l) * inv;
    }
}

/// Integrate `y' = rhs(t, y)` with classic RK4, storing slice 0, every
/// `store_every`-th step, and the final step.
///
/// `y0` is the flat component-major initial state (`n_comp * grid.n`
/// values); `rhs` writes the time derivative of the full state.
///
/// # Panics
/// Panics on degenerate arguments or a state length mismatch.
pub fn mol_rk4<F>(
    grid: &Grid1d,
    n_comp: usize,
    rhs: &F,
    y0: &[f64],
    t_end: f64,
    n_steps: usize,
    store_every: usize,
) -> FieldR1d
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    assert_eq!(y0.len(), n_comp * grid.n);
    assert!(n_steps > 0 && t_end > 0.0 && store_every > 0);
    let dt = t_end / n_steps as f64;
    let m = y0.len();
    let mut y = y0.to_vec();
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; m], vec![0.0; m], vec![0.0; m], vec![0.0; m]);
    let mut tmp = vec![0.0; m];

    let mut times = vec![0.0];
    let mut data = vec![y.clone()];
    for step in 1..=n_steps {
        let t = (step - 1) as f64 * dt;
        rhs(t, &y, &mut k1);
        for i in 0..m {
            tmp[i] = y[i] + 0.5 * dt * k1[i];
        }
        rhs(t + 0.5 * dt, &tmp, &mut k2);
        for i in 0..m {
            tmp[i] = y[i] + 0.5 * dt * k2[i];
        }
        rhs(t + 0.5 * dt, &tmp, &mut k3);
        for i in 0..m {
            tmp[i] = y[i] + dt * k3[i];
        }
        rhs(t + dt, &tmp, &mut k4);
        for i in 0..m {
            y[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        if step % store_every == 0 || step == n_steps {
            times.push(step as f64 * dt);
            data.push(y.clone());
        }
    }
    FieldR1d::new(*grid, times, n_comp, data)
}

/// Strang-split spectral integrator for periodic reaction-diffusion
/// systems `∂_t u_c = D_c ∂_xx u_c + R_c(u)`.
///
/// Diffusion is applied exactly in Fourier space (`û_c ← e^{−D_c k² Δt} û_c`)
/// and the pointwise reaction in two midpoint-rule half-steps — a spatial
/// and temporal discretization entirely different from [`mol_rk4`]'s FD
/// Laplacian + RK4, which makes the pair a genuine cross-check.
///
/// # Panics
/// Panics for non-periodic or non-power-of-two grids, or a shape mismatch.
pub fn reaction_diffusion_spectral<R>(
    grid: &Grid1d,
    diffusion: &[f64],
    react: &R,
    y0: &[f64],
    t_end: f64,
    n_steps: usize,
    store_every: usize,
) -> FieldR1d
where
    R: Fn(&[f64], &mut [f64]),
{
    assert_eq!(grid.kind, GridKind::Periodic, "spectral step needs periodicity");
    assert!(grid.n.is_power_of_two(), "grid size must be 2^k for the FFT");
    let n_comp = diffusion.len();
    assert_eq!(y0.len(), n_comp * grid.n);
    assert!(n_steps > 0 && t_end > 0.0 && store_every > 0);

    let n = grid.n;
    let dt = t_end / n_steps as f64;
    let plan = FftPlan::new(n);
    let decay: Vec<Vec<f64>> = diffusion
        .iter()
        .map(|&d| {
            fft_freq(n, grid.length())
                .iter()
                .map(|&k| (-d * k * k * dt).exp())
                .collect()
        })
        .collect();

    let mut y = y0.to_vec();
    let mut point = vec![0.0; n_comp];
    let mut mid = vec![0.0; n_comp];
    let mut dy = vec![0.0; n_comp];
    let mut half_react = |y: &mut [f64]| {
        // midpoint rule over Δt/2, applied pointwise
        for i in 0..n {
            for c in 0..n_comp {
                point[c] = y[c * n + i];
            }
            react(&point, &mut dy);
            for c in 0..n_comp {
                mid[c] = point[c] + 0.25 * dt * dy[c];
            }
            react(&mid, &mut dy);
            for c in 0..n_comp {
                y[c * n + i] = point[c] + 0.5 * dt * dy[c];
            }
        }
    };

    let mut times = vec![0.0];
    let mut data = vec![y.clone()];
    let mut buf: Vec<Complex64> = vec![Complex64::new(0.0, 0.0); n];
    for step in 1..=n_steps {
        half_react(&mut y);
        for c in 0..n_comp {
            for i in 0..n {
                buf[i] = Complex64::new(y[c * n + i], 0.0);
            }
            plan.forward(&mut buf);
            for (b, &d) in buf.iter_mut().zip(&decay[c]) {
                *b *= Complex64::new(d, 0.0);
            }
            plan.inverse(&mut buf);
            for i in 0..n {
                y[c * n + i] = buf[i].re;
            }
        }
        half_react(&mut y);
        if step % store_every == 0 || step == n_steps {
            times.push(step as f64 * dt);
            data.push(y.clone());
        }
    }
    FieldR1d::new(*grid, times, n_comp, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_heat_decay_matches_exact_rate() {
        // u_t = ν u_xx with u0 = sin(x) on [0, 2π] decays as e^{−νt}.
        let grid = Grid1d::periodic(0.0, 2.0 * std::f64::consts::PI, 128);
        let nu = 0.3;
        let y0: Vec<f64> = grid.points().iter().map(|&x| x.sin()).collect();
        let rhs = move |_t: f64, y: &[f64], dy: &mut [f64]| {
            laplacian_periodic(y, grid.dx(), dy);
            for d in dy.iter_mut() {
                *d *= nu;
            }
        };
        let f = mol_rk4(&grid, 1, &rhs, &y0, 1.0, 400, 100);
        let got = f.sample(1.3, 1.0)[0];
        let want = (-nu * 1.0f64).exp() * 1.3f64.sin();
        assert!((got - want).abs() < 5e-4, "{got} vs {want}");
    }

    #[test]
    fn rk4_wave_system_preserves_standing_wave() {
        // u_tt = u_xx as the system (u, w = u_t); u = sin(x) cos(t).
        let grid = Grid1d::periodic(0.0, 2.0 * std::f64::consts::PI, 128);
        let n = grid.n;
        let mut y0 = vec![0.0; 2 * n];
        for (i, &x) in grid.points().iter().enumerate() {
            y0[i] = x.sin();
        }
        let rhs = move |_t: f64, y: &[f64], dy: &mut [f64]| {
            let (u, w) = y.split_at(n);
            let (du, dw) = dy.split_at_mut(n);
            du.copy_from_slice(w);
            laplacian_periodic(u, grid.dx(), dw);
        };
        let f = mol_rk4(&grid, 2, &rhs, &y0, 2.0, 800, 200);
        for &x in &[0.5, 2.0, 4.4] {
            let got = f.sample(x, 2.0)[0];
            let want = x.sin() * 2.0f64.cos();
            assert!((got - want).abs() < 2e-3, "at {x}: {got} vs {want}");
        }
    }

    #[test]
    fn spectral_and_rk4_agree_on_coupled_reaction_diffusion() {
        // A toy coupled system with cross reaction, integrated both ways.
        let grid = Grid1d::periodic(0.0, 2.0 * std::f64::consts::PI, 64);
        let n = grid.n;
        let (du, dv) = (0.08, 0.04);
        let mut y0 = vec![0.0; 2 * n];
        for (i, &x) in grid.points().iter().enumerate() {
            y0[i] = 1.0 + 0.2 * x.sin();
            y0[n + i] = 0.3 + 0.1 * (2.0 * x).cos();
        }
        let react = |p: &[f64], out: &mut [f64]| {
            out[0] = -p[0] * p[1] * p[1] + 0.04 * (1.0 - p[0]);
            out[1] = p[0] * p[1] * p[1] - 0.1 * p[1];
        };
        let rhs = move |_t: f64, y: &[f64], dy: &mut [f64]| {
            let (u, v) = y.split_at(n);
            let (ou, ov) = dy.split_at_mut(n);
            laplacian_periodic(u, grid.dx(), ou);
            laplacian_periodic(v, grid.dx(), ov);
            let mut p = [0.0; 2];
            let mut r = [0.0; 2];
            for i in 0..n {
                p[0] = u[i];
                p[1] = v[i];
                react(&p, &mut r);
                ou[i] = du * ou[i] + r[0];
                ov[i] = dv * ov[i] + r[1];
            }
        };
        let a = mol_rk4(&grid, 2, &rhs, &y0, 3.0, 600, 600);
        let b = reaction_diffusion_spectral(&grid, &[du, dv], &react, &y0, 3.0, 600, 600);
        for &x in &[0.7, 3.1, 5.5] {
            let pa = a.sample(x, 3.0);
            let pb = b.sample(x, 3.0);
            for c in 0..2 {
                assert!(
                    (pa[c] - pb[c]).abs() < 2e-3,
                    "comp {c} at {x}: {} vs {}",
                    pa[c],
                    pb[c]
                );
            }
        }
    }

    #[test]
    fn field_sampling_wraps_periodically_and_clamps_time() {
        let grid = Grid1d::periodic(0.0, 1.0, 8);
        let data = vec![(0..8).map(|i| i as f64).collect::<Vec<_>>()];
        let f = FieldR1d::new(grid, vec![0.0], 1, data);
        assert!((f.sample(0.0, 0.0)[0] - f.sample(1.0, 5.0)[0]).abs() < 1e-12);
        assert!((f.sample(-0.125, -3.0)[0] - 7.0).abs() < 1e-12);
    }
}
