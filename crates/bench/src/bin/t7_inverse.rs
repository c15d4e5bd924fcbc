//! **T7 — inverse problem.** Identify the harmonic-trap frequency ω from
//! sparse wavefunction observations (clean and noisy): a [`ZooTask`]
//! trains the network and ω together, with ω an unknown of the
//! trap-frequency adapter. Reports the recovered ω against ground truth
//! for several initial guesses.

use qpinn_bench::{banner, save, wave_net, RunOpts};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::trainer::Trainer;
use qpinn_core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_optim::LrSchedule;
use qpinn_problems::zoo::trap_frequency;
use qpinn_problems::{Fidelity, Potential, TdseProblem};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let opts = RunOpts::from_args();
    banner(
        "T7",
        "trap-frequency identification from observations",
        &opts,
    );

    let problem = TdseProblem::mild_harmonic();
    let Potential::Harmonic { omega: true_omega } = problem.potential else {
        unreachable!("the mild trap is harmonic")
    };
    let epochs = opts.pick_epochs(2000, 8000);
    let mut table = TextTable::new(&["ω₀ (init)", "noise", "ω recovered", "|Δω|", "s/run"]);
    let mut records = Vec::new();

    let cases: Vec<(f64, f64)> = if opts.full {
        vec![
            (0.5, 0.0),
            (0.6, 0.0),
            (1.5, 0.0),
            (2.0, 0.0),
            (0.6, 0.01),
            (0.6, 0.05),
        ]
    } else {
        vec![(0.6, 0.0), (1.5, 0.0), (0.6, 0.02)]
    };
    // The initial condition and the observations both weigh 50.
    let cfg = ZooTaskConfig {
        n_collocation: opts.pick(512, 2048),
        n_condition: 128,
        cond_weight: 50.0,
        fidelity: opts.pick(Fidelity::Quick, Fidelity::Full),
        ..ZooTaskConfig::standard()
    };

    for (omega0, noise) in cases {
        let pde = trap_frequency(problem.clone(), omega0, opts.pick(256, 1024), noise);
        let net = wave_net(pde.as_ref(), opts.pick(24, 48), 3);
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mut task = ZooTask::new(pde, &net, &cfg, &mut params, &mut rng);
        let run = opts.run_cfg(
            &format!("t7/omega0-{omega0:.2}/noise-{noise:.2}"),
            42,
            Json::obj(vec![
                ("omega0", Json::Num(omega0)),
                ("noise", Json::Num(noise)),
                ("n_observations", Json::Num(opts.pick(256, 1024) as f64)),
                ("width", Json::Num(net.hidden[0] as f64)),
                ("n_collocation", Json::Num(cfg.n_collocation as f64)),
            ]),
        );
        let log = Trainer::new(TrainConfig {
            epochs,
            schedule: LrSchedule::Step {
                lr0: 3e-3,
                factor: 0.9,
                every: (epochs / 8).max(1),
            },
            log_every: epochs,
            eval_every: 0,
            clip: Some(100.0),
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: Some(run),
        })
        .train(&mut task, &mut params);
        // V = ½ω²x² fixes ω only up to its sign.
        let omega = task.unknowns(&params)[0].abs();
        table.row(&[
            format!("{omega0:.2}"),
            format!("{noise:.2}"),
            format!("{omega:.4}"),
            format!("{:.2e}", (omega - true_omega).abs()),
            format!("{:.1}", log.wall_s),
        ]);
        records.push(Json::obj(vec![
            ("omega0", Json::Num(omega0)),
            ("noise", Json::Num(noise)),
            ("omega_recovered", Json::Num(omega)),
            ("omega_true", Json::Num(true_omega)),
        ]));
    }

    println!("\n{}", table.render());
    println!("(ground truth: ω = 1.0)");
    save(
        "t7_inverse",
        &Json::obj(vec![
            ("id", Json::Str("T7".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
