//! Finite-difference solution of the 2D Helmholtz boundary-value problem
//! `u_xx + u_yy + k²u = f` with homogeneous Dirichlet boundaries, via the
//! 5-point Laplacian and a dense LU solve.
//!
//! The grid is deliberately coarse (the system is solved densely), which
//! is exactly what a cross-check wants: an *independent* discretization of
//! the same operator, not a second copy of the reference.

use qpinn_linalg::dense::{solve_dense, Dense};

/// Solution of a Helmholtz Dirichlet problem on a tensor grid.
#[derive(Clone, Debug)]
pub struct HelmholtzFd {
    /// x nodes (including boundaries).
    pub xs: Vec<f64>,
    /// y nodes (including boundaries).
    pub ys: Vec<f64>,
    /// `u[i][j]` at `(xs[i], ys[j])`; boundary rows/columns are zero.
    pub u: Vec<Vec<f64>>,
}

impl HelmholtzFd {
    /// Bilinear sample (clamped to the domain).
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let f = |nodes: &[f64], v: f64| -> (usize, f64) {
            let h = nodes[1] - nodes[0];
            let s = ((v - nodes[0]) / h).clamp(0.0, (nodes.len() - 1) as f64);
            let i = (s.floor() as usize).min(nodes.len() - 2);
            (i, s - i as f64)
        };
        let (i, wx) = f(&self.xs, x);
        let (j, wy) = f(&self.ys, y);
        let lo = self.u[i][j] * (1.0 - wx) + self.u[i + 1][j] * wx;
        let hi = self.u[i][j + 1] * (1.0 - wx) + self.u[i + 1][j + 1] * wx;
        lo * (1.0 - wy) + hi * wy
    }
}

/// Solve `u_xx + u_yy + k²u = f` on `[x0,x1]×[y0,y1]`, `u = 0` on the
/// boundary, with `nx × ny` *intervals* (so `(nx−1)(ny−1)` interior
/// unknowns, solved densely).
///
/// # Panics
/// Panics for degenerate domains or fewer than 2 intervals per axis; the
/// dense solve panics if `k²` hits a discrete Dirichlet eigenvalue.
pub fn helmholtz_fd_solve(
    x: (f64, f64),
    y: (f64, f64),
    nx: usize,
    ny: usize,
    k: f64,
    f: &dyn Fn(f64, f64) -> f64,
) -> HelmholtzFd {
    assert!(x.1 > x.0 && y.1 > y.0 && nx >= 2 && ny >= 2);
    let dx = (x.1 - x.0) / nx as f64;
    let dy = (y.1 - y.0) / ny as f64;
    let xs: Vec<f64> = (0..=nx).map(|i| x.0 + dx * i as f64).collect();
    let ys: Vec<f64> = (0..=ny).map(|j| y.0 + dy * j as f64).collect();

    // Interior unknown index: (i, j) with i ∈ 1..nx, j ∈ 1..ny.
    let (mx, my) = (nx - 1, ny - 1);
    let n = mx * my;
    let idx = |i: usize, j: usize| (i - 1) * my + (j - 1);
    let mut a = Dense::zeros(n);
    let mut b = vec![0.0; n];
    let (cx, cy) = (1.0 / (dx * dx), 1.0 / (dy * dy));
    for (i, &xi) in xs[..nx].iter().enumerate().skip(1) {
        for (j, &yj) in ys[..ny].iter().enumerate().skip(1) {
            let r = idx(i, j);
            a.set(r, r, -2.0 * cx - 2.0 * cy + k * k);
            if i > 1 {
                a.set(r, idx(i - 1, j), cx);
            }
            if i < nx - 1 {
                a.set(r, idx(i + 1, j), cx);
            }
            if j > 1 {
                a.set(r, idx(i, j - 1), cy);
            }
            if j < ny - 1 {
                a.set(r, idx(i, j + 1), cy);
            }
            b[r] = f(xi, yj);
        }
    }
    let sol = solve_dense(&a, &b);
    let mut u = vec![vec![0.0; ny + 1]; nx + 1];
    for i in 1..nx {
        for j in 1..ny {
            u[i][j] = sol[idx(i, j)];
        }
    }
    HelmholtzFd { xs, ys, u }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn recovers_manufactured_sine_solution() {
        // u* = sin(πx) sin(2πy) ⇒ f = (k² − π²(1 + 4)) u*.
        let k = 1.0;
        let c = k * k - PI * PI * 5.0;
        let f = move |x: f64, y: f64| c * (PI * x).sin() * (2.0 * PI * y).sin();
        let sol = helmholtz_fd_solve((0.0, 1.0), (0.0, 1.0), 28, 28, k, &f);
        for &(x, y) in &[(0.25, 0.15), (0.5, 0.4), (0.8, 0.7)] {
            let want = (PI * x).sin() * (2.0 * PI * y).sin();
            let got = sol.sample(x, y);
            assert!((got - want).abs() < 2e-2, "at ({x},{y}): {got} vs {want}");
        }
    }

    #[test]
    fn boundary_is_exactly_zero() {
        let sol = helmholtz_fd_solve((0.0, 1.0), (0.0, 1.0), 8, 8, 0.5, &|_, _| 1.0);
        for i in 0..sol.xs.len() {
            assert_eq!(sol.u[i][0], 0.0);
            assert_eq!(sol.u[i][sol.ys.len() - 1], 0.0);
        }
        for j in 0..sol.ys.len() {
            assert_eq!(sol.u[0][j], 0.0);
            assert_eq!(sol.u[sol.xs.len() - 1][j], 0.0);
        }
    }
}
