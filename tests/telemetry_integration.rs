//! End-to-end observability: a real training run with a JSONL sink
//! installed must produce a parseable event stream with the documented
//! schema — versioned header, nested phase spans, checkpoint events, a
//! final metrics snapshot — and the divergence guard must stop a run
//! whose learning rate makes the loss explode.

use qpinn::core::report::Json;
use qpinn::core::trainer::{CheckpointConfig, DivergenceGuard, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, NlsProblem};
use qpinn::telemetry;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Mutex;

/// Telemetry sinks are process-global; tests that install one must not
/// overlap with each other.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny NLS task + config that trains in well under a second.
fn tiny_nls(epochs: usize) -> (ZooTask, ParamSet, TrainConfig) {
    let problem = NlsProblem::bright_soliton(1.0);
    let net = FieldNetConfig::standard_wave(problem.length(), problem.t_end, 8, 2);
    let cfg = ZooTaskConfig {
        n_collocation: 48,
        n_condition: 16,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::quick()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut params = ParamSet::new();
    let soliton = lookup("nls-soliton").unwrap();
    let task = ZooTask::new(soliton, &net, &cfg, &mut params, &mut rng);
    let train = TrainConfig {
        epochs,
        schedule: LrSchedule::Constant { lr: 2e-3 },
        log_every: 2,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    };
    (task, params, train)
}

#[test]
fn jsonl_stream_has_stable_schema_and_phase_spans() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("jsonl");
    let jsonl_path = dir.join("run.jsonl");

    let (mut task, mut params, mut train) = tiny_nls(6);
    train.checkpoint = Some(CheckpointConfig::new(dir.join("ckpt")).every(3).run_id("itest"));

    telemetry::shutdown();
    telemetry::install(std::sync::Arc::new(
        telemetry::JsonlSink::create(&jsonl_path).unwrap(),
    ));
    let log = Trainer::new(train).train(&mut task, &mut params);
    telemetry::shutdown();

    assert!(!log.diverged);
    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "expected a real event stream, got {} lines", lines.len());

    // Every line is valid JSON with exactly the documented top-level keys.
    let mut parsed = Vec::new();
    for line in &lines {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        for key in ["v", "ts_ns", "kind", "name", "thread", "fields"] {
            assert!(j.get(key).is_some(), "line missing {key:?}: {line}");
        }
        assert_eq!(j.get("v").and_then(Json::as_num), Some(1.0), "schema version");
        parsed.push(j);
    }

    // Header mark comes first and records the schema version.
    assert_eq!(parsed[0].get("kind").and_then(Json::as_str), Some("mark"));
    assert_eq!(
        parsed[0].get("name").and_then(Json::as_str),
        Some("telemetry_start")
    );

    // Nested phase spans under `epoch` — the exact paths the trainer and
    // the task promise.
    let span_paths: Vec<&str> = parsed
        .iter()
        .filter(|j| j.get("kind").and_then(Json::as_str) == Some("span"))
        .filter_map(|j| j.get("fields").and_then(|f| f.get("path")).and_then(Json::as_str))
        .collect();
    for want in [
        "epoch",
        "epoch/loss",
        "epoch/loss/sample",
        "epoch/loss/forward",
        "epoch/loss/residual",
        "epoch/backward",
        "epoch/step",
        "epoch/checkpoint",
    ] {
        assert!(
            span_paths.iter().any(|p| *p == want),
            "missing span path {want:?}; saw {span_paths:?}"
        );
    }
    // Spans carry a non-negative duration.
    for j in &parsed {
        if j.get("kind").and_then(Json::as_str) == Some("span") {
            let dur = j
                .get("fields")
                .and_then(|f| f.get("dur_ns"))
                .and_then(Json::as_num)
                .expect("span without dur_ns");
            assert!(dur >= 0.0);
        }
    }

    // Checkpoint lifecycle and training progress marks.
    let names: Vec<&str> = parsed
        .iter()
        .filter_map(|j| j.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"checkpoint_saved"), "saw {names:?}");
    assert!(names.contains(&"train_progress"));
    assert!(names.contains(&"pool_stats"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_counts_training_work() {
    // Counters are always on (no sink required) and only ever increase.
    let grad_before = telemetry::counter("train.grad_evals").get();
    let coll_before = telemetry::counter("train.collocation_points").get();
    let (mut task, mut params, train) = tiny_nls(4);
    let log = Trainer::new(train).train(&mut task, &mut params);
    assert!(log.final_loss.is_finite());
    assert!(telemetry::counter("train.grad_evals").get() >= grad_before + 4);
    // 4 epochs × 48 collocation points.
    assert!(telemetry::counter("train.collocation_points").get() >= coll_before + 4 * 48);
}

#[test]
fn divergence_guard_stops_exploding_run() {
    // An absurd learning rate with no clipping blows the loss up within a
    // few epochs; the guard must stop the run early and say so.
    let (mut task, mut params, mut train) = tiny_nls(400);
    train.schedule = LrSchedule::Constant { lr: 1e6 };
    train.clip = None;
    train.log_every = 1;
    train.divergence = Some(DivergenceGuard {
        factor: 1e3,
        patience: 2,
    });
    let log = Trainer::new(train).train(&mut task, &mut params);
    assert!(log.diverged, "guard did not fire; final loss {}", log.final_loss);
    let stop = log.stop_epoch.expect("stop_epoch recorded");
    assert!(stop < 399, "stopped at {stop}, not early");
    assert!(
        log.epochs.len() < 400,
        "recorded {} log points for a run that should have stopped early",
        log.epochs.len()
    );
    assert!(
        log.warnings.iter().any(|w| w.contains("diverged")),
        "warnings: {:?}",
        log.warnings
    );
}

#[test]
fn divergence_guard_off_by_default_runs_full_budget() {
    let (mut task, mut params, train) = tiny_nls(5);
    assert!(train.divergence.is_none());
    let log = Trainer::new(train).train(&mut task, &mut params);
    assert!(!log.diverged);
    assert_eq!(log.stop_epoch, None);
}

#[test]
fn metrics_snapshot_round_trips_through_json_parser() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::counter("itest.snapshot.counter").add(3);
    telemetry::histogram("itest.snapshot.hist").record(1500);
    let snap = telemetry::global().snapshot();
    let j = Json::parse(&snap.to_json()).expect("snapshot is valid JSON");
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("qpinn-metrics-v1")
    );
    let ctr = j
        .get("counters")
        .and_then(|c| c.get("itest.snapshot.counter"))
        .and_then(Json::as_num)
        .unwrap();
    assert!(ctr >= 3.0);
    let hist = j
        .get("histograms")
        .and_then(|h| h.get("itest.snapshot.hist"))
        .expect("histogram in snapshot");
    assert!(hist.get("count").and_then(Json::as_num).unwrap() >= 1.0);
}
