//! Gray-Scott reaction-diffusion — the coupled 2-component Turing system
//! from the registry's reaction-diffusion arm:
//!
//! ```text
//! u_t = Dᵤ u_xx − u v² + F (1 − u)
//! v_t = Dᵥ v_xx + u v² − (F + κ) v
//! ```
//!
//! This is the first registered problem with a genuinely vector-valued
//! surrogate (`n_outputs = 2`), exercising multi-component `FieldNet`
//! outputs end-to-end through trainer, persist, and serve. There is no
//! closed form; the MOL RK4 reference is cross-checked against a
//! Strang-split *spectral* integrator — a fully independent space and
//! time discretization.

use super::{uniform, Condition, CoordDef, CoordKind, Fidelity, MolRef, PdeProblem, RefSolution};
use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};
use qpinn_solvers::{laplacian_periodic, mol_rk4, reaction_diffusion_spectral, Grid1d};
use std::f64::consts::PI;

const DU: f64 = 0.1; // u diffusivity
const DV: f64 = 0.05; // v diffusivity
const F: f64 = 0.04; // feed rate
const KAPPA: f64 = 0.06; // kill rate
const T_END: f64 = 4.0;

struct GrayScott;

/// `gray-scott` registry entry.
pub(super) fn problem() -> Box<dyn PdeProblem> {
    Box::new(GrayScott)
}

/// A localized activator seed on the homogeneous `(u, v) = (1, 0)` state.
fn initial(x: f64) -> (f64, f64) {
    let bump = (-((x - PI) / 0.5).powi(2)).exp();
    (1.0 - 0.5 * bump, 0.25 * bump)
}

fn react(p: &[f64], out: &mut [f64]) {
    let (u, v) = (p[0], p[1]);
    let uvv = u * v * v;
    out[0] = -uvv + F * (1.0 - u);
    out[1] = uvv - (F + KAPPA) * v;
}

fn solve(nx: usize, nt: usize, sl: usize) -> qpinn_solvers::FieldR1d {
    let grid = Grid1d::periodic(0.0, 2.0 * PI, nx);
    let n = grid.n;
    let mut y0 = vec![0.0; 2 * n];
    for (i, &x) in grid.points().iter().enumerate() {
        let (u, v) = initial(x);
        y0[i] = u;
        y0[n + i] = v;
    }
    let dx = grid.dx();
    let rhs = move |_t: f64, y: &[f64], dy: &mut [f64]| {
        let (u, v) = y.split_at(n);
        let (ou, ov) = dy.split_at_mut(n);
        laplacian_periodic(u, dx, ou);
        laplacian_periodic(v, dx, ov);
        let mut p = [0.0; 2];
        let mut r = [0.0; 2];
        for i in 0..n {
            p[0] = u[i];
            p[1] = v[i];
            react(&p, &mut r);
            ou[i] = DU * ou[i] + r[0];
            ov[i] = DV * ov[i] + r[1];
        }
    };
    mol_rk4(&grid, 2, &rhs, &y0, T_END, nt, nt / sl)
}

impl PdeProblem for GrayScott {
    fn key(&self) -> &'static str {
        "gray-scott"
    }
    fn describe(&self) -> &'static str {
        "coupled Gray-Scott reaction-diffusion (2-component Turing system)"
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: 0.0,
                hi: 2.0 * PI,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: T_END,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn second_derivatives(&self) -> usize {
        1 // u_xx and v_xx; first order in time
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], _points: &[Vec<f64>]) -> Vec<Var> {
        let (u, v) = (&fields[0], &fields[1]);
        let v2 = g.square(v.v);
        let uvv = g.mul(u.v, v2);
        // u_t − Dᵤ u_xx + uv² − F(1 − u)  =  u_t − Dᵤ u_xx + uv² + F·u − F
        let du_xx = g.scale(u.dd[0], DU);
        let mut ru = g.sub(u.d[1], du_xx);
        ru = g.add(ru, uvv);
        let fu = g.scale(u.v, F);
        ru = g.add(ru, fu);
        ru = g.add_scalar(ru, -F);
        // v_t − Dᵥ v_xx − uv² + (F + κ)v
        let dv_xx = g.scale(v.dd[0], DV);
        let mut rv = g.sub(v.d[1], dv_xx);
        rv = g.sub(rv, uvv);
        let kv = g.scale(v.v, F + KAPPA);
        rv = g.add(rv, kv);
        vec![ru, rv]
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let xs = uniform(0.0, 2.0 * PI, n, true);
        vec![Condition {
            name: "ic",
            deriv: None,
            points: xs.iter().map(|&x| vec![x, 0.0]).collect(),
            targets: xs
                .iter()
                .map(|&x| {
                    let (u, v) = initial(x);
                    vec![u, v]
                })
                .collect(),
        }]
    }
    fn analytic(&self, _point: &[f64]) -> Option<Vec<f64>> {
        None
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (128, 800, 40),
            Fidelity::Full => (256, 4000, 80),
        };
        Box::new(MolRef {
            field: solve(nx, nt, sl),
            n_out: 2,
        })
    }
    fn independent_check(&self) -> Option<Box<dyn RefSolution>> {
        let grid = Grid1d::periodic(0.0, 2.0 * PI, 128);
        let n = grid.n;
        let mut y0 = vec![0.0; 2 * n];
        for (i, &x) in grid.points().iter().enumerate() {
            let (u, v) = initial(x);
            y0[i] = u;
            y0[n + i] = v;
        }
        let field =
            reaction_diffusion_spectral(&grid, &[DU, DV], &react, &y0, T_END, 800, 20);
        Some(Box::new(MolRef { field, n_out: 2 }))
    }
    fn check_method(&self) -> &'static str {
        "MOL RK4 vs Strang-split spectral integrator"
    }
}
