//! **F1 — convergence curves.** Loss, gradient norm, and relative L2 error
//! versus epoch on the NLS benchmark — the series behind the convergence
//! figure.

use qpinn_bench::{banner, net_doc, nls_raissi, save, seeded_task, wave_config, wave_net, RunOpts};
use qpinn_core::report::{Json, TextTable};
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

    let mut table = TextTable::new(&["epoch", "loss", "grad-norm"]);
    for i in 0..log.epochs.len() {
        table.row(&[
            format!("{}", log.epochs[i]),
            format!("{:.4e}", log.loss[i]),
            format!("{:.3e}", log.grad_norm[i]),
        ]);
    }
    println!("\n{}", table.render());

    let mut etable = TextTable::new(&["epoch", "rel-L2 error"]);
    for i in 0..log.eval_epochs.len() {
        etable.row(&[
            format!("{}", log.eval_epochs[i]),
            format!("{:.4e}", log.error[i]),
        ]);
    }
    println!("{}", etable.render());
    println!(
        "loss (log scale):  {}",
        qpinn_core::report::sparkline_log(&log.loss)
    );
    println!(
        "rel-L2 error:      {}",
        qpinn_core::report::sparkline_log(&log.error)
    );
    println!(
        "final: loss {:.4e}, rel-L2 {:.4e}, {:.1}s",
        log.final_loss, log.final_error, log.wall_s
    );

    save(
        "f1_convergence",
        &Json::obj(vec![
            ("id", Json::Str("F1".into())),
            (
                "epochs",
                Json::nums(&log.epochs.iter().map(|&e| e as f64).collect::<Vec<_>>()),
            ),
            ("loss", Json::nums(&log.loss)),
            ("grad_norm", Json::nums(&log.grad_norm)),
            (
                "eval_epochs",
                Json::nums(
                    &log.eval_epochs
                        .iter()
                        .map(|&e| e as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("error", Json::nums(&log.error)),
            ("final_error", Json::Num(log.final_error)),
        ]),
    );
}
