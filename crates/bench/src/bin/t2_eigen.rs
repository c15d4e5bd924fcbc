//! **T2 — eigenvalue accuracy table.** The first `k` bound states of the
//! infinite well and the harmonic oscillator, each learned by a
//! [`ZooTask`] with its energy as an unknown, normalised and held
//! orthogonal to the states below it (deflation). Each state's run
//! records its variational energy `e_pinn`, the reference `e_ref`,
//! `e_error` = |E − E_ref| and the wavefunction profile error
//! `psi_error`; stdout is the `t2` table `qpinn-obs runs table` renders
//! from those runs.

use qpinn_bench::{banner, print_session_tables, record_metrics, RunOpts};
use qpinn_core::metrics;
use qpinn_core::report::Json;
use qpinn_core::runs::Metric;
use qpinn_core::task::net_config_for;
use qpinn_core::trainer::Trainer;
use qpinn_core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_optim::LrSchedule;
use qpinn_problems::zoo::{eigenstate, EigenRef};
use qpinn_problems::{EigenProblem, Fidelity};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let opts = RunOpts::from_args();
    banner("T2", "eigenvalue accuracy with deflation", &opts);

    let n_states = opts.pick(3, 4);
    let epochs = opts.pick_epochs(1200, 5000);
    let train = TrainConfig {
        epochs,
        schedule: LrSchedule::Step {
            lr0: 5e-3,
            factor: 0.7,
            every: (epochs / 4).max(1),
        },
        log_every: epochs,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: Some(opts.pick(60, 150)),
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    };
    // Boundary, normalisation and orthogonality all weigh 100.
    let cfg = ZooTaskConfig {
        width: opts.pick(24, 48),
        depth: 2,
        rff: false,
        n_collocation: opts.pick(128, 256),
        cond_weight: 100.0,
        fidelity: opts.pick(Fidelity::Quick, Fidelity::Full),
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    // The grid the eigenstate reference uses at this fidelity.
    let reference_nx = opts.pick(601, 1201);

    for problem in [EigenProblem::infinite_well(), EigenProblem::harmonic(1.0)] {
        // crude initial guesses that bracket the spectrum from below
        let e0s = match problem.exact_energies() {
            Some(es) => es.iter().map(|e| 0.8 * e).collect::<Vec<_>>(),
            None => (0..n_states).map(|k| 0.5 + k as f64).collect(),
        };
        let states = problem.reference(reference_nx);
        let xs = problem.grid(reference_nx).points();
        let mut lower = Vec::new();
        for k in 0..n_states {
            let pde = eigenstate(problem.clone(), k, e0s[k], lower.clone());
            let net = net_config_for(pde.as_ref(), &cfg);
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(7 + k as u64);
            let mut task = ZooTask::new(pde, &net, &cfg, &mut params, &mut rng);
            let run = opts.run_cfg(
                &format!("t2/{}/state-{k}", problem.name),
                7 + k as u64,
                Json::obj(vec![
                    ("problem", Json::Str(problem.name.clone())),
                    ("state", Json::Num(k as f64)),
                    ("width", Json::Num(cfg.width as f64)),
                    ("depth", Json::Num(cfg.depth as f64)),
                    ("n_collocation", Json::Num(cfg.n_collocation as f64)),
                ]),
            );
            let train = TrainConfig {
                run: Some(run),
                ..train.clone()
            };
            let log = Trainer::new(train).train(&mut task, &mut params);
            // variational re-estimate from the learned ψ
            let e_pinn = metrics::rayleigh_energy(task.net(), &params, &problem);
            let e_ref = states[k].energy;
            let perr = metrics::state_error(task.net(), &params, &xs, &states[k].psi);
            record_metrics(
                &opts,
                &log,
                vec![
                    ("e_pinn", Metric::Scalar(e_pinn)),
                    ("e_ref", Metric::Scalar(e_ref)),
                    ("e_error", Metric::Scalar((e_pinn - e_ref).abs())),
                    ("psi_error", Metric::Scalar(perr)),
                ],
            );
            lower.push(EigenRef {
                psi: metrics::profile(task.net(), &params, &xs),
                xs: xs.clone(),
            });
        }
    }
    print_session_tables(&opts, "t2_eigen");
}
