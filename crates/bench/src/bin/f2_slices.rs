//! **F2 — solution slices.** `|h(x, t)|` of the trained NLS PINN against
//! the spectral reference at three time slices (the classic PINN figure:
//! t = 0.59, 0.79, 0.98 on the Raissi benchmark). The run records the
//! figure: the abscissae `x` and, per slice, `pinn_t<t>` and
//! `reference_t<t>`.

use qpinn_bench::{
    banner, finish_telemetry, net_doc, nls_raissi, record_metrics, seeded_task, standard_train,
    wave_config, wave_net, RunOpts,
};
use qpinn_core::report::TextTable;
use qpinn_core::runs::Metric;
use qpinn_core::trainer::Trainer;

fn main() {
    let opts = RunOpts::from_args();
    banner("F2", "field slices |h(x,t)| vs reference (NLS)", &opts);

    let net = wave_net(nls_raissi().as_ref(), opts.pick(24, 64), opts.pick(3, 4));
    let cfg = wave_config(opts.pick(448, 4096));
    let (mut task, mut params) = seeded_task(nls_raissi(), &net, &cfg, 100);
    let epochs = opts.pick_epochs(1200, 8000);
    let mut train = standard_train(epochs);
    train.run = Some(opts.run_cfg("f2/nls-raissi", 100, net_doc("nls-raissi", &net, &cfg)));
    let log = Trainer::new(train).train(&mut task, &mut params);
    println!("trained: rel-L2 {:.3e} in {:.1}s\n", log.final_error, log.wall_s);

    let slice_times = [0.59, 0.79, 0.98];
    let xc = &task.problem().coords()[0];
    let xs: Vec<f64> = (0..25).map(|i| xc.lo + xc.span() * i as f64 / 24.0).collect();
    let mut metrics = vec![("x".to_string(), Metric::Series(xs.clone()))];
    for &t in &slice_times {
        let mut table = TextTable::new(&[&format!("x (t={t})"), "|h| PINN", "|h| reference"]);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, t]).collect();
        let pred = task.net().predict(&params, &points);
        let mut pinn_vals = Vec::new();
        let mut ref_vals = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            let pm = (pred.get(&[i, 0]).powi(2) + pred.get(&[i, 1]).powi(2)).sqrt();
            let r = task.reference().sample(&[x, t]);
            let rm = r[0].hypot(r[1]);
            pinn_vals.push(pm);
            ref_vals.push(rm);
            table.row(&[format!("{x:+.2}"), format!("{pm:.4}"), format!("{rm:.4}")]);
        }
        println!("{}", table.render());
        metrics.push((format!("pinn_t{t}"), Metric::Series(pinn_vals)));
        metrics.push((format!("reference_t{t}"), Metric::Series(ref_vals)));
    }
    record_metrics(&opts, &log, metrics);
    finish_telemetry("f2_slices");
}
