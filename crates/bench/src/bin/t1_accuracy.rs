//! **T1 — headline accuracy table.** Relative L2 error of the PINN against
//! the high-fidelity reference for each benchmark problem, mean ± std over
//! seeds, with parameter counts and wall time.

use qpinn_bench::{
    banner, nls_raissi, save, seeded_task, standard_train, wave_config, wave_net, ProblemFactory,
    RunOpts,
};
use qpinn_core::experiment::{aggregate, run_seeds_with};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::trainer::CheckpointConfig;
use qpinn_problems::{lookup, zoo, TdseProblem};

/// The table rows: report label and problem. The barrier and the Raissi
/// benchmark have no registry key.
const ROWS: [(&str, ProblemFactory); 5] = [
    ("free-packet", || {
        lookup("tdse-free").expect("registered problem")
    }),
    ("harmonic-packet", || {
        lookup("tdse-harmonic").expect("registered problem")
    }),
    ("barrier-scattering", || {
        zoo::tdse(
            "tdse-barrier",
            "1D TDSE, moving packet scattering off a smooth barrier",
            TdseProblem::barrier_scattering(),
        )
    }),
    // The integrable single soliton (stable) and the Raissi 2-soliton
    // bound state (modulationally unstable — the known hard case).
    ("nls-soliton(a=1)", || {
        lookup("nls-soliton").expect("registered problem")
    }),
    ("nls-raissi", nls_raissi),
];

fn main() {
    let opts = RunOpts::from_args();
    banner(
        "T1",
        "PINN accuracy per problem (rel. L2 vs reference)",
        &opts,
    );

    let epochs = opts.pick_epochs(1000, 6000);
    let n_coll = opts.pick(512, 4096);
    let (w, d) = (opts.pick(24, 64), opts.pick(3, 4));
    let cfg_train = standard_train(epochs);
    // Seeds train in parallel, so each (problem, seed) run needs its own
    // snapshot directory — interleaving two runs in one store would make
    // "latest" meaningless.
    let cfg_for = |problem: &str, seed: u64| {
        let mut cfg = cfg_train.clone();
        cfg.checkpoint = opts.ckpt.as_ref().map(|root| {
            CheckpointConfig::new(root.join(format!("t1/{problem}/seed-{seed}")))
                .every((epochs / 4).max(1))
                .run_id(format!("t1-{problem}-s{seed}"))
        });
        cfg.run = opts.run_cfg(
            &format!("t1/{problem}"),
            seed,
            Json::obj(vec![
                ("problem", Json::Str(problem.to_string())),
                ("width", Json::Num(w as f64)),
                ("depth", Json::Num(d as f64)),
                ("n_collocation", Json::Num(n_coll as f64)),
            ]),
        );
        cfg
    };

    let mut table = TextTable::new(&[
        "problem",
        "rel-L2 (mean±std)",
        "best",
        "params",
        "epochs",
        "s/run",
    ]);
    let mut records = Vec::new();

    for (name, problem) in ROWS {
        let net = wave_net(problem().as_ref(), w, d);
        let runs = run_seeds_with(
            &opts.seeds(),
            |seed| cfg_for(name, seed),
            |seed| seeded_task(problem(), &net, &wave_config(n_coll), seed),
        );
        let agg = aggregate(&runs);
        table.row(&[
            name.to_string(),
            qpinn_core::report::mean_std(agg.mean_error, agg.std_error),
            format!("{:.3e}", agg.best_error),
            format!("{}", runs[0].n_params),
            format!("{epochs}"),
            format!("{:.1}", agg.mean_wall_s),
        ]);
        records.push(Json::obj(vec![
            ("problem", Json::Str(name.to_string())),
            ("mean_error", Json::Num(agg.mean_error)),
            ("std_error", Json::Num(agg.std_error)),
            ("best_error", Json::Num(agg.best_error)),
            ("n_params", Json::Num(runs[0].n_params as f64)),
            ("wall_s", Json::Num(agg.mean_wall_s)),
        ]));
    }

    println!("\n{}", table.render());
    save(
        "t1_accuracy",
        &Json::obj(vec![
            ("id", Json::Str("T1".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
