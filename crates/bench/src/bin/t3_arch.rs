//! **T3 — architecture/parameter ablation.** Width × depth sweep on the
//! free-packet TDSE: error versus trainable-parameter count.

use qpinn_bench::{banner, save, seeded_task, standard_train, wave_config, wave_net, RunOpts};
use qpinn_core::experiment::{aggregate, run_seeds};
use qpinn_core::report::{Json, TextTable};
use qpinn_problems::lookup;

fn main() {
    let opts = RunOpts::from_args();
    banner("T3", "width × depth ablation (free-packet TDSE)", &opts);

    let widths = if opts.full {
        vec![32usize, 64, 128]
    } else {
        vec![16, 24, 32]
    };
    let depths = if opts.full { vec![2usize, 4, 6] } else { vec![2, 3] };
    let epochs = opts.pick_epochs(400, 4000);
    let cfg_train = standard_train(epochs);
    let problem = || lookup("tdse-free").expect("registered problem");
    let cfg = wave_config(opts.pick(384, 4096));

    let mut table = TextTable::new(&["width", "depth", "params", "rel-L2 (mean±std)", "s/run"]);
    let mut records = Vec::new();
    for &w in &widths {
        for &d in &depths {
            let net = wave_net(problem().as_ref(), w, d);
            let runs = run_seeds(&opts.seeds(), &cfg_train, |seed| {
                seeded_task(problem(), &net, &cfg, seed)
            });
            let agg = aggregate(&runs);
            table.row(&[
                format!("{w}"),
                format!("{d}"),
                format!("{}", runs[0].n_params),
                qpinn_core::report::mean_std(agg.mean_error, agg.std_error),
                format!("{:.1}", agg.mean_wall_s),
            ]);
            records.push(Json::obj(vec![
                ("width", Json::Num(w as f64)),
                ("depth", Json::Num(d as f64)),
                ("n_params", Json::Num(runs[0].n_params as f64)),
                ("mean_error", Json::Num(agg.mean_error)),
                ("std_error", Json::Num(agg.std_error)),
            ]));
        }
    }

    println!("\n{}", table.render());
    save(
        "t3_arch",
        &Json::obj(vec![
            ("id", Json::Str("T3".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
