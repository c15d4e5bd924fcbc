//! **F4 — norm drift with and without the conservation loss.** The
//! stability claim: the network's `∫|ψ|²dx` over time stays pinned to 1
//! when the norm-conservation term is on, and drifts (typically decays)
//! when it is off. The quantum analogue of the energy-conservation
//! regularizer for conservative-PDE PINNs. Each run records the figure —
//! the norm `norm` at the times `times` — and its `max_drift` =
//! max |∫|ψ|² − 1|; stdout is the figure, then the `f4` table
//! `qpinn-obs runs table` renders from the two runs.

use qpinn_bench::{
    banner, net_doc, print_session_tables, record_metrics, seeded_task, standard_train,
    wave_config, wave_net, RunOpts,
};
use qpinn_core::metrics::norm_series;
use qpinn_core::report::TextTable;
use qpinn_core::runs::Metric;
use qpinn_core::trainer::Trainer;
use qpinn_problems::lookup;

/// Train with or without the conservation loss; the norm at each time.
fn run(conservation: bool, opts: &RunOpts) -> (Vec<f64>, Vec<f64>) {
    let problem = lookup("tdse-harmonic").expect("registered problem");
    let net = wave_net(problem.as_ref(), opts.pick(24, 64), 3);
    let mut cfg = wave_config(opts.pick(384, 4096));
    cfg.conservation = conservation;
    let doc = net_doc(problem.key(), &net, &cfg);
    let (mut task, mut params) = seeded_task(problem, &net, &cfg, 100);
    let epochs = opts.pick_epochs(800, 5000);
    let mut train = standard_train(epochs);
    let label = if conservation { "with" } else { "without" };
    train.run = Some(opts.run_cfg(&format!("f4/{label}-conservation"), 100, doc));
    let log = Trainer::new(train).train(&mut task, &mut params);
    let coords = task.problem().coords();
    let (x, t_end) = (&coords[0], coords[1].hi);
    let times: Vec<f64> = (0..=10).map(|k| t_end * k as f64 / 10.0).collect();
    let norms = norm_series(task.net(), &params, x.lo, x.hi, 256, &times);
    let drift = norms.iter().map(|n| (n - 1.0).abs()).fold(0.0f64, f64::max);
    record_metrics(
        opts,
        &log,
        vec![
            ("times", Metric::Series(times.clone())),
            ("norm", Metric::Series(norms.clone())),
            ("max_drift", Metric::Scalar(drift)),
        ],
    );
    (times, norms)
}

fn main() {
    let opts = RunOpts::from_args();
    banner("F4", "norm drift with/without conservation loss", &opts);

    let (times, with_norms) = run(true, &opts);
    let (_, without_norms) = run(false, &opts);

    let mut table = TextTable::new(&["t", "∫|ψ|² (with cons.)", "∫|ψ|² (without)"]);
    for i in 0..times.len() {
        table.row(&[
            format!("{:.2}", times[i]),
            format!("{:.4}", with_norms[i]),
            format!("{:.4}", without_norms[i]),
        ]);
    }
    println!("{}", table.render());
    print_session_tables(&opts, "f4_norm_drift");
}
