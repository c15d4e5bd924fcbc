//! **F1 — convergence curves.** Loss, gradient norm, and relative L2 error
//! versus epoch on the NLS benchmark — the series behind the convergence
//! figure. The run's series holds the loss and gradient norm at every log
//! interval, and its metrics block the evaluations (`eval_epochs`,
//! `eval_error`); stdout is `qpinn-obs runs show` for the run.

use qpinn_bench::{
    banner, net_doc, nls_raissi, seeded_task, show_convergence, wave_config, wave_net, RunOpts,
};
use qpinn_core::trainer::Trainer;
use qpinn_core::TrainConfig;
use qpinn_optim::LrSchedule;

fn main() {
    let opts = RunOpts::from_args();
    banner("F1", "convergence trajectories (NLS benchmark)", &opts);

    let epochs = opts.pick_epochs(800, 8000);
    let net = wave_net(nls_raissi().as_ref(), opts.pick(24, 64), opts.pick(3, 4));
    let cfg = wave_config(opts.pick(384, 4096));
    let (mut task, mut params) = seeded_task(nls_raissi(), &net, &cfg, 100);
    let run = opts.run_cfg("f1/nls-raissi", 100, net_doc("nls-raissi", &net, &cfg));

    let log = Trainer::new(TrainConfig {
        epochs,
        schedule: LrSchedule::Step {
            lr0: 2e-3,
            factor: 0.85,
            every: (epochs / 6).max(1),
        },
        log_every: (epochs / 25).max(1),
        eval_every: (epochs / 10).max(1),
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: Some(run),
    })
    .train(&mut task, &mut params);

    show_convergence(&opts, &log, "f1_convergence");
}
