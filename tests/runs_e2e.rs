//! End-to-end `qpinn-run-v1` experiment tracking: real training runs
//! write durable run records, and the cross-run forensics (`runs diff`,
//! `runs regress`) read them back with the contracts the CLI and CI
//! rely on — identical config+seed reproduces bit-for-bit (zero metric
//! delta), a perturbed learning rate shows up in the config delta and
//! fails the regression gate.

use qpinn::core::runs::{list_runs, load_run, RunConfig, RunRecord};
use qpinn::core::trainer::Trainer;
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::obs::runs::{diff, regress};
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, TdseProblem};
use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-runs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Train a small TDSE run recording into `store`, returning its run id.
/// Sequential calls with the same `(seed, lr)` must be bit-identical:
/// construction, sampling, and ordered reductions are all deterministic
/// at a fixed thread count.
fn train_recorded(store: &Path, seed: u64, lr: f64, epochs: usize) -> String {
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
    let mut rng = StdRng::seed_from_u64(seed);
    let free = lookup("tdse-free").unwrap();
    let mut task = ZooTask::new(free, &net, &cfg, &mut params, &mut rng);
    let train = TrainConfig {
        epochs,
        schedule: LrSchedule::Constant { lr },
        log_every: 5,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: Some(
            RunConfig::new(store, "e2e/free-packet", seed).config(
                qpinn::core::report::Json::obj(vec![(
                    "problem",
                    qpinn::core::report::Json::Str("free-packet".into()),
                )]),
            ),
        ),
    };
    let log = Trainer::new(train).train(&mut task, &mut params);
    log.run_id.expect("run recording was configured")
}

fn load(store: &Path, id: &str) -> RunRecord {
    load_run(store, id).unwrap_or_else(|e| panic!("loading {id}: {e}"))
}

#[test]
fn identical_seed_and_config_diff_to_zero_metric_delta() {
    let store = tmp_store("identical");
    let a = train_recorded(&store, 7, 2e-3, 40);
    let b = train_recorded(&store, 7, 2e-3, 40);
    assert_ne!(a, b, "each run must get its own id");

    // Both runs are listed, finalized, and converged.
    let listed = list_runs(&store).unwrap();
    assert_eq!(listed.len(), 2);
    assert!(listed.iter().all(|s| s.outcome == "converged"), "{listed:?}");

    let ra = load(&store, &a);
    let rb = load(&store, &b);
    assert_eq!(ra.manifest.config_hash, rb.manifest.config_hash);
    assert!(!ra.series_of("loss").is_empty());

    let report = diff(&ra, &rb);
    assert!(report.identical_setup, "same config hash + seed expected");
    assert!(report.config.is_empty(), "config delta: {:?}", report.config);
    assert!(
        report.zero_metric_delta,
        "identical runs must be bit-identical, got {:?}",
        report.metrics
    );
    assert!(report.aligned_epochs > 0);
    assert!(report.render().contains("reproducible"));

    // And the regression gate passes trivially against itself.
    assert!(regress(&rb, &ra, 20.0).passed());
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn perturbed_lr_changes_config_hash_and_fails_the_regression_gate() {
    let store = tmp_store("perturbed");
    let baseline = train_recorded(&store, 7, 2e-3, 40);
    // 100× the learning rate: unmistakably worse after the same budget.
    let perturbed = train_recorded(&store, 7, 0.2, 40);

    let rb = load(&store, &baseline);
    let rp = load(&store, &perturbed);
    assert_ne!(rb.manifest.config_hash, rp.manifest.config_hash);

    let d = diff(&rb, &rp);
    assert!(!d.identical_setup);
    assert!(
        d.config.iter().any(|c| c.key.contains("lr0")),
        "lr change missing from config delta: {:?}",
        d.config
    );
    assert!(!d.zero_metric_delta);

    let gate = regress(&rp, &rb, 20.0);
    assert!(
        !gate.passed(),
        "100x lr must regress the gate:\n{}",
        gate.render()
    );
    assert!(gate.render().contains("FAIL"));
    let _ = std::fs::remove_dir_all(&store);
}
