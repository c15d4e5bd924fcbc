//! End-to-end checkpoint/resume: training N epochs, snapshotting, and
//! resuming for N more must be *bit-exact* against one uninterrupted 2N-epoch
//! run — same f64 parameters, same loss trajectory, one continuous log.
//! Also exercises corruption fallback and retention through the facade.

use qpinn::autodiff::Var;
use qpinn::core::trainer::{CheckpointConfig, PinnTask, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::{GraphCtx, ParamSet};
use qpinn::optim::LrSchedule;
use qpinn::persist::{RetentionPolicy, SnapshotStore};
use qpinn::problems::{lookup, TdseProblem};
use qpinn::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tdse_fixture() -> (ZooTask, ParamSet) {
    let problem = TdseProblem::free_packet();
    let net = FieldNetConfig::standard_wave(problem.length(), problem.t_end, 12, 2);
    let cfg = ZooTaskConfig {
        n_collocation: 96,
        n_condition: 24,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(99);
    let task = ZooTask::new(
        lookup("tdse-free").unwrap(),
        &net,
        &cfg,
        &mut params,
        &mut rng,
    );
    (task, params)
}

fn cfg_epochs(epochs: usize, checkpoint: Option<CheckpointConfig>) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: LrSchedule::Step {
            lr0: 2e-3,
            factor: 0.85,
            every: 15,
        },
        log_every: 10,
        eval_every: 10,
        clip: Some(100.0),
        // L-BFGS runs after the final snapshot, so bit-exact resume
        // guarantees only hold for the Adam phase.
        lbfgs_polish: None,
        checkpoint,
        divergence: None,
        progress: None,
        run: None,
    }
}

#[test]
fn resume_is_bit_exact_against_uninterrupted_run() {
    let dir = test_dir("bitexact");
    let (half, full) = (20usize, 40usize);

    // Reference: one uninterrupted 2N-epoch run.
    let (mut task_a, mut params_a) = tdse_fixture();
    let log_a = Trainer::new(cfg_epochs(full, None)).train(&mut task_a, &mut params_a);

    // Interrupted: N epochs with a snapshot at the end…
    let (mut task_b, mut params_b) = tdse_fixture();
    let ckpt = CheckpointConfig::new(&dir)
        .every(half)
        .run_id("bitexact")
        .retention(RetentionPolicy::keep_all());
    let _ = Trainer::new(cfg_epochs(half, Some(ckpt))).train(&mut task_b, &mut params_b);

    // …then a resume from disk in a fresh process-equivalent: new task,
    // empty params, nothing carried over but the snapshot.
    let (mut task_c, _) = tdse_fixture();
    let mut params_c = ParamSet::new();
    let log_c = Trainer::new(cfg_epochs(full, None))
        .resume(&dir, &mut task_c, &mut params_c)
        .expect("resume must succeed");

    // Exact f64 equality, bit for bit.
    let flat_a = params_a.flatten();
    let flat_c = params_c.flatten();
    assert_eq!(flat_a.len(), flat_c.len());
    for (i, (a, c)) in flat_a.iter().zip(&flat_c).enumerate() {
        assert_eq!(
            a.to_bits(),
            c.to_bits(),
            "parameter {i} diverged: {a:e} vs {c:e}"
        );
    }
    assert_eq!(log_a.final_loss.to_bits(), log_c.final_loss.to_bits());
    assert_eq!(log_a.final_error.to_bits(), log_c.final_error.to_bits());

    // The merged log is one continuous trajectory, identical to the
    // uninterrupted run's.
    assert_eq!(
        log_a.epochs, log_c.epochs,
        "epoch numbering must be continuous"
    );
    assert_eq!(log_a.eval_epochs, log_c.eval_epochs);
    assert!(log_c.epochs.windows(2).all(|w| w[0] < w[1]));
    for (a, c) in log_a.loss.iter().zip(&log_c.loss) {
        assert_eq!(a.to_bits(), c.to_bits(), "logged losses must match bitwise");
    }
    // Wall time accumulates across segments instead of resetting.
    assert!(log_c.wall_s > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_survives_truncation_and_bit_flips() {
    let dir = test_dir("corrupt");
    let (mut task, mut params) = tdse_fixture();
    let ckpt = CheckpointConfig::new(&dir)
        .every(20)
        .retention(RetentionPolicy::keep_all());
    let _ = Trainer::new(cfg_epochs(60, Some(ckpt))).train(&mut task, &mut params);

    let store = SnapshotStore::open(&dir).unwrap();
    let files = store.list();
    assert_eq!(
        files.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        vec![20, 40, 60]
    );
    // Truncate the newest and flip a bit in the middle one: resume must
    // fall back to epoch 20 without panicking.
    let bytes = std::fs::read(&files[2].1).unwrap();
    std::fs::write(&files[2].1, &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&files[1].1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&files[1].1, &bytes).unwrap();

    let (mut task2, mut params2) = tdse_fixture();
    let log = Trainer::new(cfg_epochs(80, None))
        .resume(&dir, &mut task2, &mut params2)
        .expect("fallback to the intact epoch-20 snapshot");
    // Restored log ends before epoch 20; the continuation runs 20..80.
    let expected: Vec<usize> = (0..8).map(|i| i * 10).collect();
    assert_eq!(log.epochs, expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_bounds_snapshot_count_during_training() {
    let dir = test_dir("retention");
    let (mut task, mut params) = tdse_fixture();
    let ckpt = CheckpointConfig::new(&dir)
        .every(10)
        .retention(RetentionPolicy {
            keep_last: 2,
            keep_best: true,
        });
    let _ = Trainer::new(cfg_epochs(50, Some(ckpt))).train(&mut task, &mut params);
    let store = SnapshotStore::open(&dir).unwrap();
    let files = store.list();
    assert!(
        (1..=3).contains(&files.len()),
        "keep_last=2 + best must leave at most 3 files, got {}",
        files.len()
    );
    // The newest snapshot is always among the survivors.
    assert_eq!(files.last().unwrap().0, 50);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stateful toy task proving the opaque task-state blob rides through
/// checkpoint and resume.
struct CountingTask {
    target: f64,
    id: qpinn::nn::ParamId,
    calls: u64,
}

impl PinnTask for CountingTask {
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
        self.calls += 1;
        let w = ctx.param(self.id);
        let d = ctx.g.add_scalar(w, -self.target);
        ctx.g.mse(d)
    }
    fn eval_error(&self, params: &ParamSet) -> f64 {
        (params.tensors()[0].item() - self.target).abs()
    }
    fn export_state(&self) -> Vec<u8> {
        self.calls.to_le_bytes().to_vec()
    }
    fn import_state(&mut self, bytes: &[u8]) {
        if let Ok(arr) = <[u8; 8]>::try_from(bytes) {
            self.calls = u64::from_le_bytes(arr);
        }
    }
}

#[test]
fn task_state_blob_roundtrips_through_resume() {
    let dir = test_dir("taskstate");
    let fresh = || {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::from_vec([1, 1], vec![0.0]));
        (
            CountingTask {
                target: 3.0,
                id,
                calls: 0,
            },
            params,
        )
    };
    let cfg = |epochs: usize, ckpt: Option<CheckpointConfig>| TrainConfig {
        epochs,
        schedule: LrSchedule::Constant { lr: 0.05 },
        log_every: 10,
        eval_every: 0,
        clip: None,
        lbfgs_polish: None,
        checkpoint: ckpt,
        divergence: None,
        progress: None,
        run: None,
    };

    let (mut task1, mut params1) = fresh();
    let _ = Trainer::new(cfg(30, Some(CheckpointConfig::new(&dir).every(30))))
        .train(&mut task1, &mut params1);
    assert_eq!(task1.calls, 30);

    let (mut task2, mut params2) = fresh();
    let _ = Trainer::new(cfg(50, None))
        .resume(&dir, &mut task2, &mut params2)
        .expect("resume");
    // 30 imported from the snapshot + 20 resumed epochs.
    assert_eq!(task2.calls, 50, "task state must be restored, then advance");

    let _ = std::fs::remove_dir_all(&dir);
}
