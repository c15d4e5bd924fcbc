//! End-to-end `qpinn-run-v1` experiment tracking: real training runs
//! write durable run records, and the cross-run forensics (`runs diff`,
//! `runs regress`, `runs table`) read them back with the contracts the
//! CLI and CI rely on — identical config+seed reproduces bit-for-bit
//! (zero metric delta), a perturbed learning rate shows up in the config
//! delta and fails the regression gate, and a grid table rendered from
//! the store carries the statistics of the logs the trainer returned.

use qpinn::core::experiment::{mean_std_of, run_seeds_with};
use qpinn::core::report::mean_std;
use qpinn::core::runs::{list_runs, load_run, read_manifest, RunConfig, RunRecord};
use qpinn::core::trainer::Trainer;
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::obs::runs::{diff, regress, render_tables, table_report, table_rows};
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
    let (mut task, mut params) = free_packet_task(12, seed);
    let train = recorded_config(store, "e2e/free-packet", seed, lr, epochs);
    let log = Trainer::new(train).train(&mut task, &mut params);
    log.run_id.expect("run recording was configured")
}

/// A small free-packet TDSE task with a `width × 2` trunk.
fn free_packet_task(width: usize, seed: u64) -> (ZooTask, ParamSet) {
    let problem = TdseProblem::free_packet();
    let net = FieldNetConfig::standard_wave(problem.length(), problem.t_end, width, 2);
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
    let task = ZooTask::new(free, &net, &cfg, &mut params, &mut rng);
    (task, params)
}

/// A constant-rate schedule that records into `store` under `task`.
fn recorded_config(store: &Path, task: &str, seed: u64, lr: f64, epochs: usize) -> TrainConfig {
    TrainConfig {
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
            RunConfig::new(store, task, seed).config(qpinn::core::report::Json::obj(vec![(
                "problem",
                qpinn::core::report::Json::Str("free-packet".into()),
            )])),
        ),
    }
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

#[test]
fn grid_table_from_the_store_matches_the_returned_logs() {
    let store = tmp_store("table");
    let seeds = [100, 101];
    // Two rows of one table, two seeds each, trained the way the `tables`
    // bench binary trains its rows.
    let mut logs = Vec::new();
    for (label, width) in [("e2e/w8", 8), ("e2e/w12", 12)] {
        logs.push(run_seeds_with(
            &seeds,
            |seed| recorded_config(&store, label, seed, 2e-3, 20),
            |seed| free_packet_task(width, seed),
        ));
    }

    let manifests: Vec<_> = list_runs(&store)
        .unwrap()
        .iter()
        .map(|s| read_manifest(&store.join(&s.run_id)).unwrap())
        .collect();
    let rows = table_rows(&manifests);
    assert_eq!(rows.len(), 2);
    for ((row, logs), label) in rows.iter().zip(&logs).zip(["e2e/w8", "e2e/w12"]) {
        assert_eq!(row.task, label);
        let errors: Vec<f64> = logs.iter().map(|l| l.final_error).collect();
        let (mean, std) = mean_std_of(&errors);
        let best = errors.iter().copied().fold(f64::INFINITY, f64::min);
        // Bit for bit: the manifest's number round-trips the f64.
        assert_eq!(row.errors.len(), seeds.len());
        for (a, b) in row.errors.iter().zip(&errors) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}");
        }
        assert_eq!(row.mean.to_bits(), mean.to_bits(), "{label}");
        assert_eq!(row.std.to_bits(), std.to_bits(), "{label}");
        assert_eq!(row.best.to_bits(), best.to_bits(), "{label}");
        assert!(row.n_params.is_some_and(|n| n > 0), "{label}");
        assert_eq!(row.epochs, 20);
    }
    // The store-level report renders exactly these rows.
    let text = table_report(&store, None).unwrap();
    assert_eq!(text, render_tables(&rows));
    for row in &rows {
        assert!(text.contains(&mean_std(row.mean, row.std)), "{text}");
        assert!(text.contains(&format!("{:.3e}", row.best)), "{text}");
    }
    let _ = std::fs::remove_dir_all(&store);
}
