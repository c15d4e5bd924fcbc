//! End-to-end consumption of telemetry: a real training run's JSONL
//! stream must convert cleanly to a Chrome trace (round-tripping through
//! the strict parser), account into a flame table with the documented
//! phase paths, and yield a pool-balance report — the full
//! `qpinn-obs` pipeline over real data rather than fixtures. Plus the
//! `TrainConfig::progress` hook contract: called with monotonic epochs
//! and a finite loss, with gauges published for live scraping.

use qpinn::core::report::Json;
use qpinn::core::trainer::{ProgressHook, Trainer};
use qpinn::core::{FieldNetConfig, TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use qpinn::problems::{lookup, NlsProblem};
use qpinn::telemetry;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Telemetry sinks are process-global; tests that install one must not
/// overlap with each other.
static SINK_LOCK: Mutex<()> = Mutex::new(());

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
    let mut rng = StdRng::seed_from_u64(11);
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
fn real_training_stream_feeds_the_whole_obs_pipeline() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!("qpinn-obs-pipeline-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (mut task, mut params, train) = tiny_nls(6);
    telemetry::shutdown();
    telemetry::install(std::sync::Arc::new(
        telemetry::JsonlSink::create(&path).unwrap(),
    ));
    let log = Trainer::new(train).train(&mut task, &mut params);
    telemetry::shutdown();
    assert!(log.final_loss.is_finite());

    let jsonl = std::fs::read_to_string(&path).unwrap();

    // Chrome trace: spans present, strict-parser round trip is lossless.
    let doc = qpinn::obs::trace::chrome_trace(&jsonl).unwrap();
    let reparsed = Json::parse(&doc.to_string()).unwrap();
    assert_eq!(reparsed, doc);
    let events = match doc.get("traceEvents").unwrap() {
        Json::Arr(v) => v,
        other => panic!("traceEvents not an array: {other:?}"),
    };
    let complete = |name: &str| {
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some(name)
        })
    };
    assert!(complete("epoch"), "no epoch spans in trace");
    assert!(complete("loss"), "no loss spans in trace");
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(Json::as_str) == Some("i")
            && e.get("name").and_then(Json::as_str) == Some("train_progress")
    }));

    // Flame table: the trainer's phase paths, 6 epoch spans, self < total
    // for a parent phase.
    let (stats, n_epochs) = qpinn::obs::flame::phase_stats(&jsonl).unwrap();
    assert_eq!(n_epochs, 6);
    let epoch = stats.iter().find(|s| s.path == "epoch").unwrap();
    assert_eq!(epoch.count, 6);
    assert!(epoch.self_ns < epoch.total_ns, "epoch has child phases");
    assert!(stats.iter().any(|s| s.path == "epoch/loss/forward"));
    let rendered = qpinn::obs::flame::report(&jsonl, 10).unwrap();
    assert!(rendered.contains("epoch/loss"), "{rendered}");

    // Pool balance: the save-time pool_stats sample is parseable.
    let balance = qpinn::obs::pool::last_pool_stats(&jsonl).unwrap();
    if let Some(b) = &balance {
        assert!(b.total_tasks() >= 0.0);
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn progress_hook_sees_monotonic_epochs_and_publishes_gauges() {
    // Training emits spans into whatever sink is installed, so this run
    // must not overlap the pipeline test's JSONL capture.
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut task, mut params, mut train) = tiny_nls(8);
    let seen: Arc<Mutex<Vec<(usize, f64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    train.progress = Some(ProgressHook::new(move |p| {
        sink.lock().unwrap().push((p.epoch, p.loss, p.epochs_total));
    }));
    let log = Trainer::new(train).train(&mut task, &mut params);
    assert!(log.final_loss.is_finite());

    let seen = seen.lock().unwrap();
    assert!(seen.len() >= 3, "hook fired {} times for 8 epochs at log_every=2", seen.len());
    assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "epochs not monotonic: {seen:?}");
    assert!(seen.iter().all(|(_, loss, total)| loss.is_finite() && *total == 8));

    // The always-on progress gauges track the last update.
    let snap = telemetry::global().snapshot();
    let j = Json::parse(&snap.to_json()).unwrap();
    let epoch_gauge = j
        .get("gauges")
        .and_then(|g| g.get("train.progress.epoch"))
        .and_then(Json::as_num)
        .expect("train.progress.epoch gauge");
    assert!(epoch_gauge >= 1.0, "gauge {epoch_gauge}");
}
