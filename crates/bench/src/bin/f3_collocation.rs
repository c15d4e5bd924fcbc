//! **F3 — collocation sweep.** Accuracy and wall time versus the number of
//! collocation points on the free-packet TDSE (with a fixed epoch budget).

use qpinn_bench::{banner, save, seeded_task, standard_train, wave_config, wave_net, RunOpts};
use qpinn_core::experiment::{aggregate, run_seeds};
use qpinn_core::report::{Json, TextTable};
use qpinn_problems::lookup;

fn main() {
    let opts = RunOpts::from_args();
    banner("F3", "error & wall time vs collocation count", &opts);

    let problem = || lookup("tdse-free").expect("registered problem");
    let net = wave_net(problem().as_ref(), opts.pick(24, 64), 3);
    let counts: Vec<usize> = if opts.full {
        vec![512, 1024, 2048, 4096, 8192, 16384]
    } else {
        vec![128, 256, 512, 1024]
    };
    let epochs = opts.pick_epochs(300, 3000);
    let cfg_train = standard_train(epochs);

    let mut table = TextTable::new(&["N collocation", "rel-L2 (mean±std)", "s/run"]);
    let mut ns = Vec::new();
    let mut errs = Vec::new();
    let mut times = Vec::new();
    for &n in &counts {
        let cfg = wave_config(n);
        let runs = run_seeds(&opts.seeds(), &cfg_train, |seed| {
            seeded_task(problem(), &net, &cfg, seed)
        });
        let agg = aggregate(&runs);
        table.row(&[
            format!("{n}"),
            qpinn_core::report::mean_std(agg.mean_error, agg.std_error),
            format!("{:.1}", agg.mean_wall_s),
        ]);
        ns.push(n as f64);
        errs.push(agg.mean_error);
        times.push(agg.mean_wall_s);
    }

    println!("\n{}", table.render());
    save(
        "f3_collocation",
        &Json::obj(vec![
            ("id", Json::Str("F3".into())),
            ("n", Json::nums(&ns)),
            ("error", Json::nums(&errs)),
            ("wall_s", Json::nums(&times)),
        ]),
    );
}
