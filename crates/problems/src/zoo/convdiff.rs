//! Convection-diffusion: `u_t + c u_x = ν u_xx` on a periodic interval
//! with a sinusoidal initial profile. The exact solution is a decaying
//! travelling wave `u = e^{−νk²t} sin(k(x − ct))`; the numeric reference
//! is the MOL RK4 stepper, so analytic-vs-numeric agreement is a real
//! two-sided check.

use super::{
    uniform, Condition, CoordDef, CoordKind, Fidelity, MolRef, PdeProblem, RefSolution,
};
use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};
use qpinn_solvers::{gradient_periodic, laplacian_periodic, mol_rk4, Grid1d};
use std::f64::consts::PI;

const C: f64 = 1.0; // convection speed
const NU: f64 = 0.1; // diffusivity
const K: f64 = 1.0; // wavenumber of the initial profile
const T_END: f64 = 2.0;

struct ConvDiff;

/// `convection-diffusion` registry entry.
pub(super) fn problem() -> Box<dyn PdeProblem> {
    Box::new(ConvDiff)
}

fn exact(x: f64, t: f64) -> f64 {
    (-NU * K * K * t).exp() * (K * (x - C * t)).sin()
}

impl PdeProblem for ConvDiff {
    fn key(&self) -> &'static str {
        "convection-diffusion"
    }
    fn describe(&self) -> &'static str {
        "periodic convection-diffusion, decaying travelling wave"
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
        1
    }
    fn second_derivatives(&self) -> usize {
        1 // u_xx; first order in time
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let _ = points; // coefficients are constant for this family
        let u = &fields[0];
        // u_t + c u_x − ν u_xx
        let cu_x = g.scale(u.d[0], C);
        let mut r = g.add(u.d[1], cu_x);
        let nu_xx = g.scale(u.dd[0], NU);
        r = g.sub(r, nu_xx);
        vec![r]
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let xs = uniform(0.0, 2.0 * PI, n, true);
        vec![Condition {
            name: "ic",
            deriv: None,
            points: xs.iter().map(|&x| vec![x, 0.0]).collect(),
            targets: xs.iter().map(|&x| vec![exact(x, 0.0)]).collect(),
        }]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        Some(vec![exact(point[0], point[1])])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (128, 400, 40),
            Fidelity::Full => (256, 2000, 80),
        };
        let grid = Grid1d::periodic(0.0, 2.0 * PI, nx);
        let y0: Vec<f64> = grid.points().iter().map(|&x| exact(x, 0.0)).collect();
        let dx = grid.dx();
        let rhs = move |_t: f64, y: &[f64], dy: &mut [f64]| {
            let mut lap = vec![0.0; y.len()];
            laplacian_periodic(y, dx, &mut lap);
            gradient_periodic(y, dx, dy);
            for i in 0..y.len() {
                dy[i] = NU * lap[i] - C * dy[i];
            }
        };
        let field = mol_rk4(&grid, 1, &rhs, &y0, T_END, nt, nt / sl);
        Box::new(MolRef { field, n_out: 1 })
    }
    fn check_method(&self) -> &'static str {
        "travelling-wave closed form vs MOL RK4"
    }
}
