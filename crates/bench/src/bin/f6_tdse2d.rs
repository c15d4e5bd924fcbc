//! **F6 — 2D extension demonstration.** Train the PINN on the 2D
//! time-dependent Schrödinger equation (free packet on a doubly periodic
//! square) and print a density slice against the 2D spectral reference —
//! the multi-dimensional unsteady extension.

use qpinn_bench::{banner, net_doc, save, seeded_task, standard_train, RunOpts};
use qpinn_core::model::RffSpec;
use qpinn_core::report::{Json, TextTable};
use qpinn_core::task::net_config_for;
use qpinn_core::trainer::Trainer;
use qpinn_core::ZooTaskConfig;
use qpinn_problems::lookup;

fn main() {
    let opts = RunOpts::from_args();
    banner("F6", "2D TDSE extension (free packet)", &opts);

    let problem = lookup("tdse2d-free").expect("registered problem");
    // Conservation on, no causal curriculum; the IC lattice is 12² (24²)
    // points.
    let cfg = ZooTaskConfig {
        width: opts.pick(24, 64),
        depth: 3,
        n_collocation: opts.pick(768, 6144),
        n_condition: opts.pick(144, 576),
        conservation: true,
        ..ZooTaskConfig::standard()
    };
    let mut net = net_config_for(problem.as_ref(), &cfg);
    net.rff = Some(RffSpec {
        n_features: opts.pick(24, 64),
        sigma: 1.0,
    });
    let doc = net_doc(problem.key(), &net, &cfg);
    let (mut task, mut params) = seeded_task(problem, &net, &cfg, 100);
    println!("trainable parameters: {}", params.n_scalars());

    let epochs = opts.pick_epochs(600, 5000);
    let mut train = standard_train(epochs);
    train.run = Some(opts.run_cfg("f6/tdse2d-free", 100, doc));
    let log = Trainer::new(train).train(&mut task, &mut params);
    println!(
        "final rel-L2 vs 2D spectral reference: {:.3e} ({:.1}s)\n",
        log.final_error, log.wall_s
    );

    // density slice along y = 0 at final time
    let coords = task.problem().coords();
    let (xc, t) = (&coords[0], coords[2].hi);
    let mut table = TextTable::new(&["x (y=0, t=end)", "|ψ|² PINN", "|ψ|² reference"]);
    let mut xs = Vec::new();
    let mut pinn = Vec::new();
    let mut refs = Vec::new();
    for i in 0..17 {
        let x = xc.lo + xc.span() * i as f64 / 16.0;
        let pred = task.net().predict(&params, &[vec![x, 0.0, t]]);
        let pd = pred.get(&[0, 0]).powi(2) + pred.get(&[0, 1]).powi(2);
        let r = task.reference().sample(&[x, 0.0, t]);
        let rd = r[0] * r[0] + r[1] * r[1];
        table.row(&[format!("{x:+.2}"), format!("{pd:.4}"), format!("{rd:.4}")]);
        xs.push(x);
        pinn.push(pd);
        refs.push(rd);
    }
    println!("{}", table.render());

    save(
        "f6_tdse2d",
        &Json::obj(vec![
            ("id", Json::Str("F6".into())),
            ("final_error", Json::Num(log.final_error)),
            ("x", Json::nums(&xs)),
            ("pinn_density", Json::nums(&pinn)),
            ("reference_density", Json::nums(&refs)),
        ]),
    );
}
