//! Flagship NLS run: a longer single-seed training of the Raissi benchmark
//! for the headline number in EXPERIMENTS.md (not part of the standard
//! harness sweep). The run records its evaluations (`eval_epochs`,
//! `eval_error`) beside its loss series; stdout is `qpinn-obs runs show`
//! for the run.

use qpinn_bench::{
    banner, net_doc, nls_raissi, seeded_task, show_convergence, wave_config, wave_net, RunOpts,
};
use qpinn_core::trainer::{CheckpointConfig, Trainer};
use qpinn_core::TrainConfig;
use qpinn_optim::LrSchedule;
use qpinn_persist::SnapshotStore;

fn main() {
    let opts = RunOpts::from_args();
    banner("FLAGSHIP", "long NLS training run", &opts);
    let net = wave_net(nls_raissi().as_ref(), 32, 3);
    let cfg = wave_config(1024);
    let (mut task, mut params) = seeded_task(nls_raissi(), &net, &cfg, 100);
    let epochs = opts.pick_epochs(5000, 20000);
    let ckpt_dir = opts.ckpt.as_ref().map(|root| root.join("flagship_nls"));
    let trainer = Trainer::new(TrainConfig {
        epochs,
        schedule: LrSchedule::Step {
            lr0: 3e-3,
            factor: 0.85,
            every: (epochs / 10).max(1),
        },
        log_every: (epochs / 20).max(1),
        eval_every: (epochs / 5).max(1),
        clip: Some(100.0),
        lbfgs_polish: Some(200),
        checkpoint: ckpt_dir.clone().map(|dir| {
            CheckpointConfig::new(dir)
                .every((epochs / 10).max(1))
                .run_id("flagship_nls")
        }),
        // Unattended flagship runs are long; bail out early if the loss
        // explodes instead of polishing a diverged run with L-BFGS.
        divergence: Some(qpinn_core::DivergenceGuard::default()),
        progress: None,
        run: Some(opts.run_cfg(
            "flagship/nls-raissi",
            100,
            net_doc("nls-raissi", &net, &cfg),
        )),
    });
    // With --ckpt, pick up an interrupted run from its newest intact
    // snapshot instead of starting over.
    let resumable = ckpt_dir
        .as_ref()
        .and_then(|dir| SnapshotStore::open(dir).ok())
        .is_some_and(|store| store.has_snapshots());
    let log = if resumable {
        let dir = ckpt_dir.expect("resumable implies a checkpoint dir");
        println!("[resuming from {}]", dir.display());
        match trainer.resume(&dir, &mut task, &mut params) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("[resume failed ({e}); restarting from scratch]");
                trainer.train(&mut task, &mut params)
            }
        }
    } else {
        trainer.train(&mut task, &mut params)
    };
    show_convergence(&opts, &log, "flagship_nls");
}
