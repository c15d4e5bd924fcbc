//! Checkpointing and crash recovery: train half a run with periodic
//! snapshots, "crash", corrupt the newest snapshot for good measure, and
//! resume — ending at the same place an uninterrupted run would.
//!
//! ```sh
//! cargo run --release --example resume_training
//! ```

use qpinn::core::trainer::{CheckpointConfig, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::persist::SnapshotStore;
use qpinn::problems::{lookup, TdseProblem};
use rand::{rngs::StdRng, SeedableRng};

const EPOCHS: usize = 300;
const SAVE_EVERY: usize = 50;

fn config(ckpt_dir: &std::path::Path) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        schedule: LrSchedule::Step {
            lr0: 2e-3,
            factor: 0.85,
            every: 60,
        },
        log_every: 50,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: Some(
            CheckpointConfig::new(ckpt_dir)
                .every(SAVE_EVERY)
                .run_id("resume-demo"),
        ),
        divergence: None,
        progress: None,
        run: None,
    }
}

fn fresh_task() -> (ZooTask, ParamSet) {
    let problem = TdseProblem::free_packet();
    let net = FieldNetConfig::standard_wave(problem.length(), problem.t_end, 16, 2);
    let cfg = ZooTaskConfig {
        n_collocation: 256,
        n_condition: 256,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(42);
    let task = ZooTask::new(
        lookup("tdse-free").expect("registered problem"),
        &net,
        &cfg,
        &mut params,
        &mut rng,
    );
    (task, params)
}

fn main() {
    let dir = std::env::temp_dir().join("qpinn-resume-demo");
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: train, but "crash" halfway by configuring only half the
    // epoch budget. Periodic snapshots land in `dir` as we go.
    println!(
        "phase 1: training epochs 0..{} with snapshots in {}",
        EPOCHS / 2,
        dir.display()
    );
    let (mut task, mut params) = fresh_task();
    let mut half = config(&dir);
    half.epochs = EPOCHS / 2;
    let log1 = Trainer::new(half).train(&mut task, &mut params);
    println!(
        "  stopped at loss {:.4e} after {:.1}s",
        log1.final_loss, log1.wall_s
    );

    let store = SnapshotStore::open(&dir).expect("open store");
    let files = store.list();
    println!("  {} snapshot(s) on disk:", files.len());
    for (epoch, path) in &files {
        println!(
            "    epoch {epoch:>4}  {}",
            path.file_name().unwrap().to_string_lossy()
        );
    }

    // Phase 2: simulate disk trouble — flip a byte in the newest snapshot.
    // The CRC check will reject it and resume falls back to the previous
    // intact one.
    let (_, newest) = files.last().expect("at least one snapshot");
    let mut bytes = std::fs::read(newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(newest, &bytes).expect("write corrupted snapshot");
    println!(
        "\nphase 2: flipped one byte in {}",
        newest.file_name().unwrap().to_string_lossy()
    );

    // Phase 3: resume with the full epoch budget. The trainer restores
    // parameters, Adam moments, and the log from the newest *intact*
    // snapshot, then finishes the run as one continuous trajectory.
    println!("\nphase 3: resuming to epoch {EPOCHS}");
    let (mut task2, mut params2) = fresh_task();
    let log = Trainer::new(config(&dir))
        .resume(&dir, &mut task2, &mut params2)
        .expect("resume from intact snapshot");
    for (e, l) in log.epochs.iter().zip(&log.loss) {
        println!("  epoch {e:>4}: loss {l:.4e}");
    }
    println!(
        "\nresumed run: final rel-L2 {:.3e}, accumulated wall time {:.1}s",
        log.final_error, log.wall_s
    );
    println!(
        "log covers epochs {}..={} with no gap across the crash",
        log.epochs.first().unwrap(),
        log.epochs.last().unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
