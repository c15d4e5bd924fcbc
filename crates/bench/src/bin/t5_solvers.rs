//! **T5 — reference-solver self-validation.** Convergence orders of the
//! Crank–Nicolson and split-step propagators against the closed-form free
//! Gaussian packet, and the FD eigensolver against exact spectra. This
//! grounds every PINN error number in the other tables.
//!
//! Each row is one run with no epochs in the run store,
//! `t5/<solver>/<resolution>`: its final error is the solver's rel-L2
//! against the analytic answer, and from a series' second row on its
//! metric `order` is the observed order `log2(e_prev / e)`. Stdout is
//! exactly what `qpinn-obs runs table` renders for those runs.

use qpinn_bench::{banner, print_session_tables, record_measurement, RunOpts};
use qpinn_core::report::Json;
use qpinn_core::runs::Metric;
use qpinn_dual::Complex64;
use qpinn_problems::{EigenProblem, GaussianPacket};
use qpinn_solvers::{bound_states, crank_nicolson_tdse, split_step_evolve, Grid1d, Nonlinearity};

fn packet_error_split_step(nx: usize, nt: usize) -> f64 {
    let p = GaussianPacket {
        x0: 0.0,
        sigma: 0.7,
        k0: 2.0,
    };
    let grid = Grid1d::periodic(-16.0, 16.0, nx);
    let psi0: Vec<Complex64> = grid.points().iter().map(|&x| p.eval(x)).collect();
    let t = 1.0;
    let f = split_step_evolve(&grid, &|_| 0.0, Nonlinearity::None, &psi0, t, nt, nt);
    field_error(&grid, f.slice(f.n_slices() - 1), &p, t)
}

fn coherent_error_split_step(nt: usize) -> f64 {
    // With V ≠ 0 the Strang splitting error is visible: O(dt²) against the
    // closed-form coherent state.
    let omega = 2.0;
    let p = GaussianPacket::coherent(omega, 1.5);
    let grid = Grid1d::periodic(-10.0, 10.0, 256);
    let psi0: Vec<Complex64> = grid.points().iter().map(|&x| p.eval(x)).collect();
    let t = 0.9;
    let f = split_step_evolve(
        &grid,
        &|x| 0.5 * omega * omega * x * x,
        Nonlinearity::None,
        &psi0,
        t,
        nt,
        nt,
    );
    let last = f.slice(f.n_slices() - 1);
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, v) in grid.points().iter().zip(last) {
        if x.abs() > 6.0 {
            continue;
        }
        let want = p.coherent_evolution(omega, *x, t);
        num += (*v - want).norm_sqr();
        den += want.norm_sqr();
    }
    (num / den).sqrt()
}

fn packet_error_cn(nx: usize, nt: usize) -> f64 {
    let p = GaussianPacket {
        x0: 0.0,
        sigma: 0.7,
        k0: 2.0,
    };
    let grid = Grid1d::dirichlet(-16.0, 16.0, nx + 1);
    let psi0: Vec<Complex64> = grid.points().iter().map(|&x| p.eval(x)).collect();
    let t = 1.0;
    let f = crank_nicolson_tdse(&grid, &|_| 0.0, &psi0, t, nt, nt);
    field_error(&grid, f.slice(f.n_slices() - 1), &p, t)
}

fn field_error(grid: &Grid1d, slice: &[Complex64], p: &GaussianPacket, t: f64) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, v) in grid.points().iter().zip(slice) {
        if x.abs() > 12.0 {
            continue; // periodic-image / boundary zone
        }
        let want = p.free_evolution(*x, t);
        num += (*v - want).norm_sqr();
        den += want.norm_sqr();
    }
    (num / den).sqrt()
}

/// Record one solver's refinement series: a run per resolution (its
/// `(name, value)` pairs), the error as final error, and from the second
/// row on the observed order against the row before.
fn record_series(opts: &RunOpts, solver: &str, rows: Vec<(Vec<(&str, usize)>, f64)>) {
    let mut prev: Option<f64> = None;
    for (resolution, e) in rows {
        let label: Vec<String> = resolution.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let mut config = vec![("solver", Json::Str(solver.to_string()))];
        config.extend(resolution.iter().map(|&(k, v)| (k, Json::Num(v as f64))));
        let order = prev.map(|p| ("order", Metric::Scalar((p / e).log2())));
        record_measurement(
            opts,
            &format!("t5/{solver}/{}", label.join(",")),
            Json::obj(config),
            e,
            order.into_iter().collect(),
        );
        prev = Some(e);
    }
}

fn main() {
    let opts = RunOpts::from_args();
    banner("T5", "reference-solver convergence validation", &opts);
    eprintln!(
        "(expected: free split-step at machine precision — splitting exact for V=0;\n \
         harmonic split-step order ≈ 2 in dt; CN ≈ 2; eigensolver ≈ 2 in dx)"
    );

    // Split-step: spectral in space; halve dt to expose O(dt²).
    let rows = [125, 250, 500, 1000].map(|nt| {
        (
            vec![("nx", 512), ("nt", nt)],
            packet_error_split_step(512, nt),
        )
    });
    record_series(&opts, "split-step", rows.into());

    // Split-step with a potential: the Strang O(dt²) error is visible.
    let rows =
        [25, 50, 100, 200].map(|nt| (vec![("nx", 256), ("nt", nt)], coherent_error_split_step(nt)));
    record_series(&opts, "split-step-harmonic", rows.into());

    // Crank–Nicolson: refine space and time together (both 2nd order).
    let rows = [(256, 250), (512, 500), (1024, 1000)]
        .map(|(nx, nt)| (vec![("nx", nx), ("nt", nt)], packet_error_cn(nx, nt)));
    record_series(&opts, "crank-nicolson", rows.into());

    // FD eigensolver: worst eigenvalue error over the first 4 states.
    for problem in [EigenProblem::infinite_well(), EigenProblem::harmonic(1.0)] {
        let exact = problem.exact_energies().unwrap();
        let rows = [201, 401, 801].map(|nx| {
            let grid = problem.grid(nx);
            let v = problem.potential;
            let states = bound_states(&grid, &move |x| v.eval(x), 4);
            let e: f64 = states
                .iter()
                .zip(&exact)
                .map(|(s, want)| ((s.energy - want) / want).abs())
                .fold(0.0, f64::max);
            (vec![("nx", nx)], e)
        });
        record_series(&opts, &format!("eigensolver-{}", problem.name), rows.into());
    }

    print_session_tables(&opts, "t5_solvers");
}
