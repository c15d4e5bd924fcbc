//! The five pre-registry families, ported onto the [`PdeProblem`] trait:
//! free/harmonic 1D TDSE, the bright NLS soliton, the 2D free packet, and
//! the harmonic stationary eigenproblem. The underlying structs
//! ([`TdseProblem`], [`NlsProblem`], …) stay as-is; these adapters add
//! the tape residual, condition sets, and reference factories.
//!
//! The Schrödinger adapters are public through [`tdse`], [`nls`] and
//! [`tdse2d`], so presets without a registry key (the barrier, the mild
//! trap, the Raissi 2-soliton, the 2D harmonic packet) train through the
//! same generic task as the registered families. Two more unregistered
//! adapters declare [`PdeProblem::unknowns`]: [`eigenstate`] learns a
//! bound state with its energy, and [`trap_frequency`] identifies a trap
//! frequency from observations.

use super::{
    point_column, uniform, ComplexFieldRef, Condition, CoordDef,
    CoordKind, Fidelity, PdeProblem, RefSolution,
};
use crate::{EigenProblem, GaussianPacket, NlsProblem, Potential, Tdse2dProblem, TdseProblem};
use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};
use qpinn_dual::Complex64;
use qpinn_solvers::{bound_states, crank_nicolson_tdse, Field2d, Grid1d};
use qpinn_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Schrödinger-type residuals for `ψ = u + iv` on coordinates
/// `(x[, y], t)`: `i ψ_t = −½∇²ψ + Vψ − g|ψ|²ψ`, split into real and
/// imaginary columns:
///
/// `Re = −v_t + ½∇²u − Vu + g|ψ|²u`,
/// `Im =  u_t + ½∇²v − Vv + g|ψ|²v`.
///
/// `fields` holds the `u` and `v` jets, `v_col` is the `[n, 1]` potential
/// column (a constant, or a trainable expression for inverse problems),
/// and `t_idx` names the time coordinate; all other coordinates
/// contribute to the Laplacian, so the jets need no `dd` slot for time
/// when it comes last.
pub fn schrodinger_residuals(
    g: &mut Graph,
    fields: &[Jet],
    v_col: Var,
    g_nl: f64,
    t_idx: usize,
) -> Vec<Var> {
    let (u, v) = (&fields[0], &fields[1]);
    let lap = |g: &mut Graph, f: &Jet| {
        let mut acc: Option<Var> = None;
        for c in 0..f.n_coords() {
            if c == t_idx {
                continue;
            }
            acc = Some(match acc {
                None => f.dd[c],
                Some(a) => g.add(a, f.dd[c]),
            });
        }
        acc.expect("at least one spatial coordinate")
    };
    let (u_lap, v_lap) = (lap(g, u), lap(g, v));
    let vu = g.mul(v_col, u.v);
    let vv = g.mul(v_col, v.v);
    // |ψ|² ψ terms (zero coupling short-circuits to keep the tape lean).
    let (nl_u, nl_v) = if g_nl != 0.0 {
        let u2 = g.square(u.v);
        let v2 = g.square(v.v);
        let dens = g.add(u2, v2);
        let du = g.mul(dens, u.v);
        let dv = g.mul(dens, v.v);
        (Some(g.scale(du, g_nl)), Some(g.scale(dv, g_nl)))
    } else {
        (None, None)
    };
    // Re: −v_t + ½∇²u − Vu + g|ψ|²u
    let mut re = g.scale(v.d[t_idx], -1.0);
    let half_lap_u = g.scale(u_lap, 0.5);
    re = g.add(re, half_lap_u);
    re = g.sub(re, vu);
    if let Some(n) = nl_u {
        re = g.add(re, n);
    }
    // Im: u_t + ½∇²v − Vv + g|ψ|²v
    let half_lap_v = g.scale(v_lap, 0.5);
    let mut im = g.add(u.d[t_idx], half_lap_v);
    im = g.sub(im, vv);
    if let Some(n) = nl_v {
        im = g.add(im, n);
    }
    vec![re, im]
}

fn complex_targets(points: &[(f64,)], f: impl Fn(f64) -> Complex64) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|&(x,)| {
            let c = f(x);
            vec![c.re, c.im]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 1D TDSE adapters.

struct TdseZoo {
    key: &'static str,
    describe: &'static str,
    inner: TdseProblem,
    /// Trap-frequency identification: ω's initial value and the
    /// observations of the solution at the true ω.
    observed: Option<(f64, Condition)>,
}

/// Wrap any 1D TDSE preset as a [`PdeProblem`] under `key`. The key
/// names the surrogate's parameters; it need not be registered.
pub fn tdse(
    key: &'static str,
    describe: &'static str,
    problem: TdseProblem,
) -> Box<dyn PdeProblem> {
    Box::new(TdseZoo {
        key,
        describe,
        inner: problem,
        observed: None,
    })
}

/// Identify the frequency ω of a harmonic-trap TDSE: ω is an unknown
/// starting at `omega0`, and a `"data"` condition fits `n_observations`
/// samples of the reference solution at the true ω, drawn uniformly over
/// space-time with uniform noise of amplitude `noise` on each part. The
/// draw is seeded, so the same inputs give the same observations.
///
/// # Panics
/// If the potential is not harmonic.
pub fn trap_frequency(
    problem: TdseProblem,
    omega0: f64,
    n_observations: usize,
    noise: f64,
) -> Box<dyn PdeProblem> {
    assert!(
        matches!(problem.potential, Potential::Harmonic { .. }),
        "trap-frequency identification needs a harmonic potential, not {}",
        problem.potential.name()
    );
    let reference = problem.reference(256, 1500, 64);
    let mut rng = StdRng::seed_from_u64(0);
    let mut points = Vec::with_capacity(n_observations);
    let mut targets = Vec::with_capacity(n_observations);
    for _ in 0..n_observations {
        let x = rng.gen_range(problem.x0..problem.x1);
        let t = rng.gen_range(0.0..problem.t_end);
        let psi = reference.sample(x, t);
        let mut jitter = || noise * rng.gen_range(-1.0..1.0f64);
        targets.push(vec![psi.re + jitter(), psi.im + jitter()]);
        points.push(vec![x, t]);
    }
    let data = Condition {
        name: "data",
        deriv: None,
        points,
        targets,
    };
    Box::new(TdseZoo {
        key: "trap-frequency",
        describe: "1D harmonic-trap TDSE with the trap frequency identified from observations",
        inner: problem,
        observed: Some((omega0, data)),
    })
}

/// `tdse-free`: spreading free Gaussian packet (closed form available).
pub(super) fn tdse_free() -> Box<dyn PdeProblem> {
    tdse(
        "tdse-free",
        "1D free-particle TDSE, spreading Gaussian packet",
        TdseProblem::free_packet(),
    )
}

/// `tdse-harmonic`: coherent state sloshing in a harmonic trap.
pub(super) fn tdse_harmonic() -> Box<dyn PdeProblem> {
    tdse(
        "tdse-harmonic",
        "1D TDSE, coherent state in a harmonic trap",
        TdseProblem::harmonic_packet(),
    )
}

impl TdseZoo {
    /// The trap frequency when the packet is a coherent state of it (the
    /// only harmonic case with a closed form).
    fn coherent_omega(&self) -> Option<f64> {
        match self.inner.potential {
            Potential::Harmonic { omega }
                if self.inner.packet == GaussianPacket::coherent(omega, self.inner.packet.x0) =>
            {
                Some(omega)
            }
            _ => None,
        }
    }
}

/// `∫|ψ₀|²dx` by a uniform `n`-point periodic quadrature.
fn quadrature_norm(x0: f64, length: f64, n: usize, psi0: impl Fn(f64) -> Complex64) -> f64 {
    let dens_mean: f64 = (0..n)
        .map(|i| psi0(x0 + length * i as f64 / n as f64).norm_sqr())
        .sum::<f64>()
        / n as f64;
    dens_mean * length
}

impl PdeProblem for TdseZoo {
    fn key(&self) -> &'static str {
        self.key
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: self.inner.x0,
                hi: self.inner.x1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: self.inner.t_end,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn second_derivatives(&self) -> usize {
        1 // the Laplacian reads x; time comes last
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let init = initial_values(g, self);
        self.residuals_with(g, fields, points, &init)
    }
    fn unknowns(&self) -> Vec<(&'static str, f64)> {
        self.observed.iter().map(|(omega0, _)| ("omega", *omega0)).collect()
    }
    fn residuals_with(
        &self,
        g: &mut Graph,
        fields: &[Jet],
        points: &[Vec<f64>],
        unknowns: &[Var],
    ) -> Vec<Var> {
        let v_col = match unknowns.first() {
            // V = ½ω²x² with ω on the tape.
            Some(&omega) => {
                let x2 = point_column(g, points, |p| p[0] * p[0]);
                let omega2 = g.square(omega);
                let v = g.matmul(x2, omega2);
                g.scale(v, 0.5)
            }
            None => {
                let pot = self.inner.potential;
                point_column(g, points, |p| pot.eval(p[0]))
            }
        };
        schrodinger_residuals(g, fields, v_col, 0.0, 1)
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let xs = uniform(self.inner.x0, self.inner.x1, n, true);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 0.0]).collect();
        let targets = complex_targets(
            &xs.iter().map(|&x| (x,)).collect::<Vec<_>>(),
            |x| self.inner.initial(x),
        );
        let ic = Condition {
            name: "ic",
            deriv: None,
            points,
            targets,
        };
        std::iter::once(ic)
            .chain(self.observed.iter().map(|(_, data)| data.clone()))
            .collect()
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        let (x, t) = (point[0], point[1]);
        let c = match (self.inner.potential, self.coherent_omega()) {
            (Potential::Free, _) => self.inner.packet.free_evolution(x, t),
            (_, Some(omega)) => self.inner.packet.coherent_evolution(omega, x, t),
            _ => return None,
        };
        Some(vec![c.re, c.im])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (128, 300, 30),
            Fidelity::Full => (256, 1500, 64),
        };
        Box::new(ComplexFieldRef {
            field: self.inner.reference(nx, nt, sl),
        })
    }
    fn independent_check(&self) -> Option<Box<dyn RefSolution>> {
        // Crank–Nicolson on a Dirichlet grid: a different propagator *and*
        // different boundary handling (valid because the packet stays
        // exponentially small at the edges).
        let grid = Grid1d::dirichlet(self.inner.x0, self.inner.x1, 257);
        let psi0: Vec<Complex64> = grid.points().iter().map(|&x| self.inner.initial(x)).collect();
        let pot = self.inner.potential;
        let field = crank_nicolson_tdse(
            &grid,
            &move |x| pot.eval(x),
            &psi0,
            self.inner.t_end,
            600,
            30,
        );
        Some(Box::new(ComplexFieldRef { field }))
    }
    fn check_method(&self) -> &'static str {
        match (self.inner.potential, self.coherent_omega()) {
            (Potential::Free, _) => "analytic packet vs split-step spectral",
            (_, Some(_)) => "coherent-state closed form vs split-step + Crank-Nicolson",
            _ => "split-step spectral vs Crank-Nicolson",
        }
    }
    fn conserved_norm(&self) -> Option<f64> {
        Some(quadrature_norm(
            self.inner.x0,
            self.inner.length(),
            1024,
            |x| self.inner.initial(x),
        ))
    }
}

// ---------------------------------------------------------------------------
// NLS bright soliton.

struct NlsZoo {
    key: &'static str,
    describe: &'static str,
    inner: NlsProblem,
}

/// Wrap any cubic NLS preset as a [`PdeProblem`] under `key`.
pub fn nls(key: &'static str, describe: &'static str, problem: NlsProblem) -> Box<dyn PdeProblem> {
    Box::new(NlsZoo {
        key,
        describe,
        inner: problem,
    })
}

/// `nls-soliton`: focusing cubic NLS single bright soliton.
pub(super) fn nls_soliton() -> Box<dyn PdeProblem> {
    nls(
        "nls-soliton",
        "focusing cubic NLS, single bright soliton",
        NlsProblem::bright_soliton(1.0),
    )
}

impl PdeProblem for NlsZoo {
    fn key(&self) -> &'static str {
        self.key
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: self.inner.x0,
                hi: self.inner.x1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: self.inner.t_end,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn second_derivatives(&self) -> usize {
        1 // the Laplacian reads x; time comes last
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let v_col = point_column(g, points, |_| 0.0);
        schrodinger_residuals(g, fields, v_col, self.inner.g, 1)
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let xs = uniform(self.inner.x0, self.inner.x1, n, true);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 0.0]).collect();
        let targets = complex_targets(
            &xs.iter().map(|&x| (x,)).collect::<Vec<_>>(),
            |x| self.inner.initial(x),
        );
        vec![Condition {
            name: "ic",
            deriv: None,
            points,
            targets,
        }]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        self.inner
            .analytic(point[0], point[1])
            .map(|c| vec![c.re, c.im])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (128, 400, 30),
            Fidelity::Full => (256, 2000, 64),
        };
        Box::new(ComplexFieldRef {
            field: self.inner.reference(nx, nt, sl),
        })
    }
    fn check_method(&self) -> &'static str {
        if self.inner.analytic(0.0, 0.0).is_some() {
            "soliton closed form vs split-step spectral"
        } else {
            "split-step spectral only"
        }
    }
    fn conserved_norm(&self) -> Option<f64> {
        Some(quadrature_norm(
            self.inner.x0,
            self.inner.length(),
            2048,
            |x| self.inner.initial(x),
        ))
    }
}

// ---------------------------------------------------------------------------
// 2D free packet.

struct Tdse2dZoo {
    key: &'static str,
    describe: &'static str,
    inner: Tdse2dProblem,
}

/// Wrap any 2D TDSE preset as a [`PdeProblem`] under `key`.
pub fn tdse2d(
    key: &'static str,
    describe: &'static str,
    problem: Tdse2dProblem,
) -> Box<dyn PdeProblem> {
    Box::new(Tdse2dZoo {
        key,
        describe,
        inner: problem,
    })
}

/// `tdse2d-free`: separable free 2D Gaussian packet.
pub(super) fn tdse2d_free() -> Box<dyn PdeProblem> {
    tdse2d(
        "tdse2d-free",
        "2D free-particle TDSE, separable spreading packet",
        Tdse2dProblem::free_packet_2d(),
    )
}

impl Tdse2dZoo {
    fn packet_1d(&self, center: f64) -> GaussianPacket {
        GaussianPacket {
            x0: center,
            sigma: self.inner.sigma,
            k0: 0.0,
        }
    }
}

/// [`Field2d`] reference wrapper carrying the node lattice (the field
/// itself keeps its grids private).
struct Field2dRef {
    field: Field2d,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl RefSolution for Field2dRef {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        let c = self.field.sample(point[0], point[1], point[2]);
        vec![c.re, c.im]
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        vec![self.xs.clone(), self.ys.clone(), self.field.times().to_vec()]
    }
}

impl PdeProblem for Tdse2dZoo {
    fn key(&self) -> &'static str {
        self.key
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: self.inner.x.0,
                hi: self.inner.x.1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "y",
                lo: self.inner.y.0,
                hi: self.inner.y.1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: self.inner.t_end,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn second_derivatives(&self) -> usize {
        2 // the Laplacian reads x and y; time comes last
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let pot = self.inner.potential;
        let v_col = point_column(g, points, |p| pot.eval(p[0], p[1]));
        schrodinger_residuals(g, fields, v_col, 0.0, 2)
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let m = (n as f64).sqrt().ceil() as usize;
        let xs = uniform(self.inner.x.0, self.inner.x.1, m, true);
        let ys = uniform(self.inner.y.0, self.inner.y.1, m, true);
        let mut points = Vec::with_capacity(m * m);
        let mut targets = Vec::with_capacity(m * m);
        for &x in &xs {
            for &y in &ys {
                points.push(vec![x, y, 0.0]);
                let c = self.inner.initial(x, y);
                targets.push(vec![c.re, c.im]);
            }
        }
        vec![Condition {
            name: "ic",
            deriv: None,
            points,
            targets,
        }]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        if self.inner.potential != crate::Potential2d::Free {
            return None;
        }
        let px = self.packet_1d(self.inner.center.0);
        let py = self.packet_1d(self.inner.center.1);
        let c = px.free_evolution(point[0], point[2]) * py.free_evolution(point[1], point[2]);
        Some(vec![c.re, c.im])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (32, 120, 12),
            Fidelity::Full => (64, 600, 24),
        };
        let field = self.inner.reference(nx, nx, nt, sl);
        Box::new(Field2dRef {
            field,
            xs: Grid1d::periodic(self.inner.x.0, self.inner.x.1, nx).points(),
            ys: Grid1d::periodic(self.inner.y.0, self.inner.y.1, nx).points(),
        })
    }
    fn check_method(&self) -> &'static str {
        match self.inner.potential {
            crate::Potential2d::Free => "separable packet closed form vs 2D split-step",
            _ => "2D split-step spectral only",
        }
    }
    fn conserved_norm(&self) -> Option<f64> {
        // The initial packet is normalized.
        Some(1.0)
    }
}

// ---------------------------------------------------------------------------
// Stationary eigenproblems.

/// The eigenvalue a stationary residual reads.
#[derive(Clone, Copy)]
enum Energy {
    /// Pinned in the residual (`eigen-harmonic`'s E₀ = ω/2).
    Known(f64),
    /// An unknown's `[1, 1]` tape node.
    Node(Var),
}

/// The stationary residual `−½ψ″ + Vψ − Eψ` for a real field jet over
/// one coordinate, with the `[n, 1]` potential column `v_col`.
fn stationary_residual(g: &mut Graph, psi: &Jet, v_col: Var, e: Energy) -> Var {
    let mut r = g.scale(psi.dd[0], -0.5);
    let vp = g.mul(v_col, psi.v);
    r = g.add(r, vp);
    let ep = match e {
        Energy::Known(e) => g.scale(psi.v, e),
        Energy::Node(e) => g.matmul(psi.v, e),
    };
    g.sub(r, ep)
}

/// The unknowns of `p` at their initial values, as constant `[1, 1]`
/// nodes: what [`PdeProblem::residuals`] reads for a family with
/// unknowns.
fn initial_values(g: &mut Graph, p: &dyn PdeProblem) -> Vec<Var> {
    p.unknowns()
        .iter()
        .map(|&(_, v)| g.constant(Tensor::from_vec([1, 1], vec![v])))
        .collect()
}

struct EigenZoo {
    inner: EigenProblem,
    omega: f64,
}

/// `eigen-harmonic`: harmonic-oscillator ground state as a BVP with the
/// exact eigenvalue pinned in the residual.
pub(super) fn eigen_harmonic() -> Box<dyn PdeProblem> {
    Box::new(EigenZoo {
        inner: EigenProblem::harmonic(1.0),
        omega: 1.0,
    })
}

impl EigenZoo {
    fn ground_state(&self, x: f64) -> f64 {
        // ψ₀ = (ω/π)^{1/4} e^{−ωx²/2}, normalized to ∫ψ² = 1.
        (self.omega / std::f64::consts::PI).powf(0.25) * (-0.5 * self.omega * x * x).exp()
    }
}

/// A real profile sampled on a uniform 1D grid, linearly interpolated
/// between the samples: the reference of a stationary state, or a learned
/// state that a higher one is held orthogonal to.
#[derive(Clone, Debug)]
pub struct EigenRef {
    /// Uniformly spaced abscissae, ascending.
    pub xs: Vec<f64>,
    /// The profile at `xs`.
    pub psi: Vec<f64>,
}

impl RefSolution for EigenRef {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        let x = point[0];
        let h = self.xs[1] - self.xs[0];
        let s = ((x - self.xs[0]) / h).clamp(0.0, (self.xs.len() - 1) as f64);
        let i = (s.floor() as usize).min(self.xs.len() - 2);
        let w = s - i as f64;
        vec![self.psi[i] * (1.0 - w) + self.psi[i + 1] * w]
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        vec![self.xs.clone()]
    }
}

/// The single bounded coordinate of a stationary problem.
fn box_coord(p: &EigenProblem) -> Vec<CoordDef> {
    vec![CoordDef {
        name: "x",
        lo: p.x0,
        hi: p.x1,
        kind: CoordKind::Bounded,
    }]
}

/// Dirichlet edges `ψ(x0) = ψ(x1) = 0`.
fn dirichlet_edges(p: &EigenProblem) -> Condition {
    Condition {
        name: "bc",
        deriv: None,
        points: vec![vec![p.x0], vec![p.x1]],
        targets: vec![vec![0.0], vec![0.0]],
    }
}

impl PdeProblem for EigenZoo {
    fn key(&self) -> &'static str {
        "eigen-harmonic"
    }
    fn describe(&self) -> &'static str {
        "stationary Schrödinger ground state in a harmonic trap (E₀ = ω/2)"
    }
    fn coords(&self) -> Vec<CoordDef> {
        box_coord(&self.inner)
    }
    fn n_outputs(&self) -> usize {
        1
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let pot = self.inner.potential;
        let v_col = point_column(g, points, |p| pot.eval(p[0]));
        vec![stationary_residual(g, &fields[0], v_col, Energy::Known(0.5 * self.omega))]
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        // Dirichlet edges plus amplitude anchors: without an amplitude
        // pin, ψ ≡ 0 solves residual + BC exactly.
        let anchors = uniform(-1.0, 1.0, n.max(3).min(9), false);
        vec![
            dirichlet_edges(&self.inner),
            Condition {
                name: "anchor",
                deriv: None,
                points: anchors.iter().map(|&x| vec![x]).collect(),
                targets: anchors.iter().map(|&x| vec![self.ground_state(x)]).collect(),
            },
        ]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        Some(vec![self.ground_state(point[0])])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let n = match fidelity {
            Fidelity::Quick => 301,
            Fidelity::Full => 801,
        };
        let grid = Grid1d::dirichlet(self.inner.x0, self.inner.x1, n);
        let pot = self.inner.potential;
        let state = bound_states(&grid, &move |x| pot.eval(x), 1).remove(0);
        Box::new(EigenRef {
            xs: grid.points(),
            psi: state.psi,
        })
    }
    fn check_method(&self) -> &'static str {
        "Hermite closed form vs FD eigensolver"
    }
    fn residual_tol(&self) -> f64 {
        0.02
    }
}

struct EigenstateZoo {
    inner: EigenProblem,
    state: usize,
    e0: f64,
    lower: Vec<EigenRef>,
}

/// Bound state `state` of `problem` (`−½ψ″ + Vψ = Eψ`, Dirichlet edges),
/// with its energy `E` an unknown starting at `e0`. It declares
/// `∫ψ² = 1` and orthogonality to each of the `lower` states, so a task
/// fits them through its lattice constraints (deflation climbs the
/// spectrum one state at a time). The reference is the finite-difference
/// state of the same index, on 601 (`Quick`) or 1201 (`Full`) nodes.
pub fn eigenstate(
    problem: EigenProblem,
    state: usize,
    e0: f64,
    lower: Vec<EigenRef>,
) -> Box<dyn PdeProblem> {
    Box::new(EigenstateZoo {
        inner: problem,
        state,
        e0,
        lower,
    })
}

impl PdeProblem for EigenstateZoo {
    fn key(&self) -> &'static str {
        "eigenstate"
    }
    fn describe(&self) -> &'static str {
        "stationary Schrödinger bound state with its energy as an unknown"
    }
    fn coords(&self) -> Vec<CoordDef> {
        box_coord(&self.inner)
    }
    fn n_outputs(&self) -> usize {
        1
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let init = initial_values(g, self);
        self.residuals_with(g, fields, points, &init)
    }
    fn unknowns(&self) -> Vec<(&'static str, f64)> {
        vec![("E", self.e0)]
    }
    fn residuals_with(
        &self,
        g: &mut Graph,
        fields: &[Jet],
        points: &[Vec<f64>],
        unknowns: &[Var],
    ) -> Vec<Var> {
        let pot = self.inner.potential;
        let v_col = point_column(g, points, |p| pot.eval(p[0]));
        let r = stationary_residual(g, &fields[0], v_col, Energy::Node(unknowns[0]));
        // The residual grows with the energy: scale it by 1/√(1 + E₀²) so
        // a high state's residual does not drown the unit-scale
        // constraints.
        vec![g.scale(r, 1.0 / (1.0 + self.e0 * self.e0).sqrt())]
    }
    fn conditions(&self, _n: usize) -> Vec<Condition> {
        vec![dirichlet_edges(&self.inner)]
    }
    fn analytic(&self, _point: &[f64]) -> Option<Vec<f64>> {
        None
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let nx = match fidelity {
            Fidelity::Quick => 601,
            Fidelity::Full => 1201,
        };
        Box::new(EigenRef {
            xs: self.inner.grid(nx).points(),
            psi: self.inner.reference(nx).swap_remove(self.state).psi,
        })
    }
    fn check_method(&self) -> &'static str {
        "FD eigensolver"
    }
    fn conserved_norm(&self) -> Option<f64> {
        Some(1.0)
    }
    fn orthogonal_to(&self) -> Vec<&dyn RefSolution> {
        self.lower.iter().map(|s| s as &dyn RefSolution).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(g: &mut Graph, v: &[f64]) -> Var {
        g.constant(Tensor::column(v))
    }

    /// A jet over `(x, t)` from hand-computed value, first and second
    /// x-derivative and t-derivative columns (`∂²/∂t²` is not used by the
    /// residual and is left zero).
    fn jet(g: &mut Graph, v: &[f64], dx: &[f64], dt: &[f64], dxx: &[f64]) -> Jet {
        let zero = vec![0.0; v.len()];
        Jet {
            v: col(g, v),
            d: vec![col(g, dx), col(g, dt)],
            dd: vec![col(g, dxx), col(g, &zero)],
        }
    }

    fn map(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn plane_wave_solves_free_tdse_when_dispersion_matches() {
        // ψ = e^{i(kx − ωt)} with ω = k²/2 solves the free TDSE:
        // u = cos(kx − ωt), v = sin(kx − ωt).
        let k = 2.0f64;
        let w = 0.5 * k * k;
        let xs = [0.3, 1.0, -0.7];
        let ts = [0.2, 0.6, 0.9];
        let n = xs.len();
        let ph: Vec<f64> = (0..n).map(|i| k * xs[i] - w * ts[i]).collect();
        let mut g = Graph::new();
        let u = jet(
            &mut g,
            &map(n, |i| ph[i].cos()),
            &map(n, |i| -k * ph[i].sin()),
            &map(n, |i| w * ph[i].sin()),
            &map(n, |i| -k * k * ph[i].cos()),
        );
        let v = jet(
            &mut g,
            &map(n, |i| ph[i].sin()),
            &map(n, |i| k * ph[i].cos()),
            &map(n, |i| -w * ph[i].cos()),
            &map(n, |i| -k * k * ph[i].sin()),
        );
        let v_col = col(&mut g, &vec![0.0; n]);
        let r = schrodinger_residuals(&mut g, &[u, v], v_col, 0.0, 1);
        assert_eq!(r.len(), 2);
        for c in r {
            assert!(g.value(c).max_abs() < 1e-12, "{:?}", g.value(c));
        }
    }

    #[test]
    fn standing_wave_residual_matches_hand_computation() {
        // u = sin(kx)cos(ωt), v = cos(kx)sin(ωt), V = 0:
        // Re = −v_t + ½u_xx = −ω cos kx cos ωt − ½k² sin kx cos ωt,
        // Im =  u_t + ½v_xx = −ω sin kx sin ωt − ½k² cos kx sin ωt.
        let (k, w) = (1.3f64, 0.9f64);
        let xs = [0.4f64, -1.1];
        let ts = [0.25f64, 0.8];
        let n = xs.len();
        let (s, c) = (|i: usize| (k * xs[i]).sin(), |i: usize| (k * xs[i]).cos());
        let (st, ct) = (|i: usize| (w * ts[i]).sin(), |i: usize| (w * ts[i]).cos());
        let mut g = Graph::new();
        let u = jet(
            &mut g,
            &map(n, |i| s(i) * ct(i)),
            &map(n, |i| k * c(i) * ct(i)),
            &map(n, |i| -w * s(i) * st(i)),
            &map(n, |i| -k * k * s(i) * ct(i)),
        );
        let v = jet(
            &mut g,
            &map(n, |i| c(i) * st(i)),
            &map(n, |i| -k * s(i) * st(i)),
            &map(n, |i| w * c(i) * ct(i)),
            &map(n, |i| -k * k * c(i) * st(i)),
        );
        let v_col = col(&mut g, &[0.0; 2]);
        let r = schrodinger_residuals(&mut g, &[u, v], v_col, 0.0, 1);
        for i in 0..n {
            let re = -w * c(i) * ct(i) - 0.5 * k * k * s(i) * ct(i);
            let im = -w * s(i) * st(i) - 0.5 * k * k * c(i) * st(i);
            assert!((g.value(r[0]).data()[i] - re).abs() < 1e-12, "Re[{i}]");
            assert!((g.value(r[1]).data()[i] - im).abs() < 1e-12, "Im[{i}]");
        }
    }

    #[test]
    fn nls_soliton_residual_vanishes() {
        // q = a sech(ax) e^{i a² t/2} solves i q_t + ½q_xx + |q|²q = 0:
        // u = s cos φ, v = s sin φ with s = a sech(ax), φ = a²t/2, and
        // s'' = a³(sech − 2 sech³)(ax).
        let a = 1.4f64;
        let xs = [0.0, 0.6, -1.2];
        let ts = [0.1, 0.5, 0.9];
        let n = xs.len();
        let sech = |x: f64| 1.0 / (a * x).cosh();
        let sv = map(n, |i| a * sech(xs[i]));
        let sx = map(n, |i| -a * a * sech(xs[i]) * (a * xs[i]).tanh());
        let sxx = map(n, |i| a * a * a * (sech(xs[i]) - 2.0 * sech(xs[i]).powi(3)));
        let phi = map(n, |i| 0.5 * a * a * ts[i]);
        let mut g = Graph::new();
        let u = jet(
            &mut g,
            &map(n, |i| sv[i] * phi[i].cos()),
            &map(n, |i| sx[i] * phi[i].cos()),
            &map(n, |i| -0.5 * a * a * sv[i] * phi[i].sin()),
            &map(n, |i| sxx[i] * phi[i].cos()),
        );
        let v = jet(
            &mut g,
            &map(n, |i| sv[i] * phi[i].sin()),
            &map(n, |i| sx[i] * phi[i].sin()),
            &map(n, |i| 0.5 * a * a * sv[i] * phi[i].cos()),
            &map(n, |i| sxx[i] * phi[i].sin()),
        );
        let v_col = col(&mut g, &vec![0.0; n]);
        let r = schrodinger_residuals(&mut g, &[u, v], v_col, 1.0, 1);
        for c in r {
            assert!(g.value(c).max_abs() < 1e-12, "{:?}", g.value(c));
        }
    }

    #[test]
    fn wrapped_presets_keep_their_keys_and_conserved_norms() {
        let barrier = tdse("tdse-barrier", "barrier", TdseProblem::barrier_scattering());
        assert_eq!(barrier.key(), "tdse-barrier");
        // The normalized packet sits well inside the box: ∫|ψ₀|² ≈ 1.
        let n0 = barrier.conserved_norm().unwrap();
        assert!((n0 - 1.0).abs() < 1e-9, "{n0}");
        // No closed form for the barrier, nor for a harmonic packet that
        // is not a coherent state of its trap.
        assert!(barrier.analytic(&[0.0, 0.5]).is_none());
        let mild = tdse("tdse-mild", "mild", TdseProblem::mild_harmonic());
        assert!(mild.analytic(&[0.0, 0.5]).is_none());
        assert!(super::super::lookup("tdse-harmonic")
            .unwrap()
            .analytic(&[0.0, 0.5])
            .is_some());
        // The Raissi bound state carries ∫|2 sech x|² = 8 (to the box edge).
        let raissi = nls("nls-raissi", "raissi", NlsProblem::raissi_benchmark());
        assert_eq!(raissi.key(), "nls-raissi");
        assert!(raissi.analytic(&[0.0, 0.5]).is_none());
        assert!((raissi.conserved_norm().unwrap() - 8.0).abs() < 1e-3);
        let trap2d = tdse2d(
            "tdse2d-harmonic",
            "trap",
            Tdse2dProblem::harmonic_packet_2d(),
        );
        assert_eq!(trap2d.conserved_norm(), Some(1.0));
        assert!(trap2d.analytic(&[0.0, 0.0, 0.5]).is_none());
    }

    #[test]
    fn stationary_residual_vanishes_for_exact_eigenpair() {
        // Infinite well on [0, π]: ψ = sin(x), E = ½, known or on the tape.
        let xs = [0.3, 1.2, 2.5];
        let mut g = Graph::new();
        let psi = Jet {
            v: col(&mut g, &xs.map(f64::sin)),
            d: vec![col(&mut g, &xs.map(f64::cos))],
            dd: vec![col(&mut g, &xs.map(|x| -x.sin()))],
        };
        let v_col = col(&mut g, &[0.0; 3]);
        let e = g.constant(Tensor::from_vec([1, 1], vec![0.5]));
        for energy in [Energy::Known(0.5), Energy::Node(e)] {
            let r = stationary_residual(&mut g, &psi, v_col, energy);
            assert!(g.value(r).max_abs() < 1e-12);
        }
    }

    #[test]
    fn trainable_trap_matches_the_fixed_trap_at_the_true_omega() {
        // Same jets, same points: ω = 1 on the tape must reproduce the
        // mild trap's own residual, and any other ω must not.
        let (xs, ts) = ([0.4, -1.3, 2.2], [0.1, 0.5, 0.9]);
        let points: Vec<Vec<f64>> = (0..3).map(|i| vec![xs[i], ts[i]]).collect();
        let mut g = Graph::new();
        let u = jet(&mut g, &[0.3, -0.2, 0.5], &[0.1, 0.4, -0.3], &[0.2, 0.0, 0.1], &[-0.5, 0.3, 0.2]);
        let v = jet(&mut g, &[0.1, 0.6, -0.4], &[-0.2, 0.1, 0.3], &[0.0, 0.3, -0.1], &[0.4, -0.1, 0.6]);
        let fields = [u, v];
        let fixed = tdse("mild", "mild", TdseProblem::mild_harmonic());
        let want = fixed.residuals(&mut g, &fields, &points);
        let inverse = trap_frequency(TdseProblem::mild_harmonic(), 0.6, 4, 0.0);
        for (omega, same) in [(1.0, true), (0.6, false)] {
            let w = g.constant(Tensor::from_vec([1, 1], vec![omega]));
            let got = inverse.residuals_with(&mut g, &fields, &points, &[w]);
            for (a, b) in want.iter().zip(&got) {
                let diff = g.value(*a).sub(g.value(*b)).max_abs();
                assert_eq!(diff < 1e-12, same, "ω = {omega}: {diff}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a harmonic potential")]
    fn trap_frequency_refuses_a_non_harmonic_potential() {
        let _ = trap_frequency(TdseProblem::free_packet(), 1.0, 8, 0.0);
    }
}
