//! Golden-file conformance suite: freezes the externally observable
//! formats — the `qpinn-snapshot` binary container, the
//! `qpinn-metrics-v1` JSON schema, the Prometheus text exposition, the
//! `qpinn-access-v1` access-log JSONL, the `qpinn-traces-v1`
//! `/v1/traces` document, and the `qpinn-run-v1` run-record manifest
//! (with and without its optional `metrics` block) + epoch-series line —
//! against fixtures committed under `tests/fixtures/`.
//!
//! A diff in any of these files is a *format break*, not a test fluke:
//! old checkpoints, dashboards, and scrapers all parse these bytes. To
//! change a format deliberately, regenerate the fixtures with
//!
//! ```text
//! QPINN_UPDATE_FIXTURES=1 cargo test --test conformance
//! ```
//!
//! review the diff, bump the relevant format/schema version, and commit
//! the new fixtures together with the code change. CI fails on fixture
//! drift that is not committed.

use qpinn::optim::AdamState;
use qpinn::persist::{RunMeta, Snapshot, TrainLogRecord};
use qpinn::telemetry::{prometheus, Registry};
use qpinn::tensor::Tensor;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `actual` against the committed fixture, regenerating it first
/// when `QPINN_UPDATE_FIXTURES=1` is set.
fn assert_matches_fixture(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var("QPINN_UPDATE_FIXTURES").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated fixture {}", path.display());
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with QPINN_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    if expected != actual {
        // Byte-precise failure message without dumping binary noise.
        let first_diff = expected
            .iter()
            .zip(actual)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        panic!(
            "{name} drifted from its committed fixture: \
             fixture {} bytes, actual {} bytes, first difference at offset {first_diff}. \
             If the format change is deliberate, bump its version and regenerate with \
             QPINN_UPDATE_FIXTURES=1 cargo test --test conformance",
            expected.len(),
            actual.len()
        );
    }
}

/// A fully pinned snapshot: every field fixed, no timestamps, no RNG —
/// `encode()` must be byte-stable across runs, platforms, and PRs.
fn pinned_snapshot() -> Snapshot {
    let mut params = qpinn::nn::ParamSet::new();
    params.add(
        "w1",
        Tensor::from_vec([2, 3], vec![1.0, -2.0, 3.5, 0.25, -0.125, 9.0]),
    );
    params.add("b1", Tensor::from_slice(&[0.1, 0.2, 0.3]));
    Snapshot {
        meta: RunMeta {
            run_id: "conformance-v1".into(),
            next_epoch: 1500,
            planned_epochs: 20_000,
            eval_error: 3.25e-3,
        },
        params,
        optim: AdamState {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            t: 1234,
            m: vec![
                Tensor::from_vec([2, 3], vec![0.01; 6]),
                Tensor::from_slice(&[0.5, -0.5, 0.0]),
            ],
            v: vec![
                Tensor::from_vec([2, 3], vec![0.002; 6]),
                Tensor::from_slice(&[1e-4, 2e-4, 3e-4]),
            ],
        },
        log: TrainLogRecord {
            epochs: vec![0, 500, 1000],
            loss: vec![1.0, 0.1, 0.01],
            grad_norm: vec![10.0, 2.0, 0.3],
            eval_epochs: vec![1000],
            error: vec![4.5e-3],
            wall_s: 12.75,
            final_loss: 0.01,
            final_error: 4.5e-3,
        },
        task_state: vec![1, 2, 3, 255],
    }
}

/// A local (non-global) registry with pinned contents, so the fixture is
/// immune to whatever other tests did to the process-wide registry.
fn pinned_registry() -> Registry {
    let r = Registry::default();
    r.counter("train.grad_evals").add(4321);
    r.counter("persist.checkpoint.writes").add(3);
    r.gauge("train.progress.loss").set(0.015625); // dyadic: exact decimal
    r.gauge("train.progress.epoch").set(1500.0);
    let h = r.histogram("phase.forward_ns");
    for v in [100, 200, 400, 800, 1600, 3200, 6400, 1_000_000] {
        h.record(v);
    }
    r
}

#[test]
fn snapshot_binary_format_is_frozen() {
    let snap = pinned_snapshot();
    let bytes = snap.encode();
    assert_matches_fixture("snapshot_v1.qps", &bytes);

    // The committed fixture must also *decode* losslessly — format
    // stability is meaningless if old bytes stop round-tripping.
    let decoded = Snapshot::decode(&std::fs::read(fixture_path("snapshot_v1.qps")).unwrap())
        .expect("committed fixture must decode");
    assert_eq!(decoded.meta, snap.meta);
    assert_eq!(decoded.log, snap.log);
    assert_eq!(decoded.task_state, snap.task_state);
    let (a, b) = (decoded.params.flatten(), snap.params.flatten());
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert_eq!(decoded.optim.t, snap.optim.t);
    assert_eq!(decoded.optim.m.len(), snap.optim.m.len());
}

#[test]
fn metrics_v1_json_schema_is_frozen() {
    let json = pinned_registry().snapshot().to_json();
    assert!(json.starts_with("{\"schema\":\"qpinn-metrics-v1\""));
    assert_matches_fixture("metrics_v1.json", json.as_bytes());
}

/// Pinned access records covering the three observable request shapes:
/// a batched success, a queue-full shed, and a server error.
fn pinned_access_records() -> Vec<qpinn::telemetry::AccessRecord> {
    use qpinn::telemetry::AccessRecord;
    vec![
        AccessRecord {
            trace: "00c0ffee00c0ffee".into(),
            ts_ns: 1_000_000_000,
            route: "/v1/eval".into(),
            model: "tdse@3".into(),
            status: 200,
            shed: String::new(),
            batch: 4,
            points: 128,
            queue_ns: 150_000,
            batch_ns: 2_000_000,
            compute_ns: 5_500_000,
            serialize_ns: 90_000,
            total_ns: 7_900_000,
        },
        AccessRecord {
            trace: "deadbeefcafe1234".into(),
            ts_ns: 1_500_000_000,
            route: "/v1/eval".into(),
            model: "tdse@3".into(),
            status: 429,
            shed: "queue_full".into(),
            batch: 0,
            points: 16,
            queue_ns: 0,
            batch_ns: 0,
            compute_ns: 0,
            serialize_ns: 12_000,
            total_ns: 85_000,
        },
        AccessRecord {
            trace: "0123456789abcdef".into(),
            ts_ns: 2_000_000_000,
            route: "/v1/train".into(),
            model: String::new(),
            status: 500,
            shed: String::new(),
            batch: 0,
            points: 0,
            queue_ns: 0,
            batch_ns: 0,
            compute_ns: 0,
            serialize_ns: 40_000,
            total_ns: 600_000,
        },
    ]
}

#[test]
fn access_v1_jsonl_schema_is_frozen() {
    let jsonl: String = pinned_access_records()
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect();
    // Spot-check the schema contract before byte-freezing: versioned
    // lines, the full latency split, and the shed reason.
    assert!(jsonl.starts_with("{\"v\":\"qpinn-access-v1\""));
    assert!(jsonl.contains("\"shed\":\"queue_full\""));
    for key in ["queue_ns", "batch_ns", "compute_ns", "serialize_ns", "total_ns"] {
        assert!(jsonl.contains(&format!("\"{key}\":")), "missing {key}");
    }
    assert_matches_fixture("access_v1.jsonl", jsonl.as_bytes());
    // The frozen bytes must round-trip through the obs-side parser.
    let entries = qpinn::obs::requests::parse_access_log(
        &String::from_utf8(std::fs::read(fixture_path("access_v1.jsonl")).unwrap()).unwrap(),
    )
    .expect("committed fixture must parse");
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[1].shed, "queue_full");
    assert_eq!(entries[2].status, 500);
}

#[test]
fn traces_v1_document_shape_is_frozen() {
    let doc = qpinn::telemetry::access::render_traces(&pinned_access_records(), true);
    assert!(doc.starts_with("{\"schema\":\"qpinn-traces-v1\""));
    assert_matches_fixture("traces_v1.json", doc.as_bytes());
    // The frozen document must stay machine-readable.
    let parsed = qpinn::core::report::Json::parse(
        &String::from_utf8(std::fs::read(fixture_path("traces_v1.json")).unwrap()).unwrap(),
    )
    .unwrap();
    assert_eq!(parsed.get("count").unwrap().as_num(), Some(3.0));
    assert_eq!(parsed.get("enabled").unwrap(), &qpinn::core::report::Json::Bool(true));
}

#[test]
fn prometheus_exposition_is_frozen() {
    let snap = pinned_registry().snapshot();
    let page = prometheus::render(&snap, "qpinn_", &[("run", "conformance"), ("v", "1")]);
    // Spot-check the exposition contract before byte-freezing it: counters
    // carry `_total`, histograms cumulative `le` buckets with `+Inf`.
    assert!(page.contains("qpinn_train_grad_evals_total"));
    assert!(page.contains("le=\"+Inf\""));
    assert_matches_fixture("prometheus_v1.txt", page.as_bytes());
}

/// A fully pinned `qpinn-run-v1` manifest: fixed id, timestamps, and
/// environment — nothing here touches the clock or RNG.
fn pinned_run_manifest() -> qpinn::core::runs::Manifest {
    use qpinn::core::report::Json;
    use qpinn::core::runs::{fnv1a64, Manifest, RunOutcome};
    let config = Json::obj(vec![
        ("task", Json::obj(vec![("problem", Json::Str("free-packet".into()))])),
        (
            "train",
            Json::obj(vec![
                ("epochs", Json::Num(2000.0)),
                ("lr0", Json::Num(1e-3)),
                ("log_every", Json::Num(50.0)),
            ]),
        ),
    ]);
    let config_hash = format!("{:016x}", fnv1a64(&config.to_string()));
    Manifest {
        run_id: "00c0ffee00c0ffee".into(),
        task: "t1/free-packet".into(),
        seed: 7,
        config,
        config_hash,
        threads: 4,
        simd: 4,
        env: vec![
            ("QPINN_SIMD".into(), "4".into()),
            ("QPINN_TRACE".into(), "1".into()),
        ],
        trace: "deadbeefcafe1234".into(),
        start_unix_ms: 1_700_000_000_000,
        end_unix_ms: Some(1_700_000_120_000),
        outcome: RunOutcome::Converged,
        epochs_planned: 2000,
        epochs_run: Some(2000),
        final_loss: Some(1.25e-4),
        final_error: Some(3.5e-3),
        metrics: Vec::new(),
    }
}

#[test]
fn run_manifest_v1_schema_is_frozen() {
    let manifest = pinned_run_manifest();
    let doc = manifest.to_json().to_string() + "\n";
    assert!(doc.starts_with("{\"schema\":\"qpinn-run-v1\""));
    assert_matches_fixture("run_manifest_v1.json", doc.as_bytes());
    // The frozen bytes must round-trip through the manifest parser —
    // `runs list/diff/regress` all read old stores through it.
    let parsed = qpinn::core::report::Json::parse(
        &String::from_utf8(std::fs::read(fixture_path("run_manifest_v1.json")).unwrap()).unwrap(),
    )
    .unwrap();
    let back = qpinn::core::runs::Manifest::from_json(&parsed)
        .expect("committed fixture must parse");
    assert_eq!(back.run_id, manifest.run_id);
    assert_eq!(back.config_hash, manifest.config_hash);
    assert_eq!(back.seed, manifest.seed);
    assert_eq!(back.outcome, manifest.outcome);
    assert_eq!(back.env, manifest.env);
    assert_eq!(back.final_loss, manifest.final_loss);
    assert_eq!(back.end_unix_ms, manifest.end_unix_ms);
    assert!(back.metrics.is_empty(), "{:?}", back.metrics);
}

/// The optional `metrics` block an experiment writes into its finalized
/// manifest: after `final_error`, in insertion order, a scalar as a
/// number and an array as an array of numbers. A manifest without
/// metrics writes no block at all (the fixture above).
#[test]
fn run_manifest_metrics_block_is_frozen() {
    use qpinn::core::runs::{Manifest, Metric};
    let mut manifest = pinned_run_manifest();
    manifest.metrics = vec![
        ("energy".into(), Metric::Scalar(0.50064)),
        ("e_error".into(), Metric::Scalar(6.4e-4)),
        ("norm".into(), Metric::Series(vec![1.0, 0.96875, 0.9375])),
    ];
    let doc = manifest.to_json().to_string() + "\n";
    let plain = pinned_run_manifest().to_json().to_string();
    let (head, block) = doc.split_at(plain.len() - 1);
    assert_eq!(head, &plain[..plain.len() - 1], "fields before the block moved");
    assert!(block.starts_with(",\"metrics\":{\"energy\":0.50064,"), "{block}");
    assert_matches_fixture("run_manifest_metrics_v1.json", doc.as_bytes());
    let text = std::fs::read_to_string(fixture_path("run_manifest_metrics_v1.json")).unwrap();
    let back = Manifest::from_json(&qpinn::core::report::Json::parse(&text).unwrap())
        .expect("committed fixture must parse");
    assert_eq!(back.metrics, manifest.metrics);
    assert_eq!(back.final_error, manifest.final_error);
    assert_eq!(back.to_json().to_string() + "\n", text, "parse + write is the identity");
}

#[test]
fn run_series_v1_epoch_line_is_frozen() {
    use qpinn::core::runs::{EpochPoint, LayerGrad};
    let point = EpochPoint {
        epoch: 50,
        loss: 0.125,
        grad_norm: 2.5,
        lr: 1e-3,
        epoch_ms: 12.5,
        components: vec![
            ("pde".into(), 0.1),
            ("ic".into(), 0.02),
            ("norm".into(), 0.005),
        ],
        layers: vec![
            LayerGrad { name: "w1".into(), norm: 1.5, var: 0.25 },
            LayerGrad { name: "w2".into(), norm: 0.5, var: 0.0625 },
        ],
    };
    let line = point.to_json().to_string() + "\n";
    // Spot-check the per-layer barren-plateau signal before freezing:
    // every layer entry carries both the norm and the variance.
    assert!(line.contains("\"grad\":{\"w1\":{\"norm\":"));
    assert!(line.contains("\"var\":0.0625"));
    assert_matches_fixture("run_series_v1.jsonl", line.as_bytes());
    // And the frozen line must stay machine-readable.
    let parsed = qpinn::core::report::Json::parse(
        String::from_utf8(std::fs::read(fixture_path("run_series_v1.jsonl")).unwrap())
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(parsed.get("kind").and_then(|v| v.as_str()), Some("epoch"));
    assert_eq!(parsed.get("epoch").and_then(|v| v.as_num()), Some(50.0));
}

#[test]
fn problems_doc_matches_fixture() {
    // The `qpinn-problems-v1` listing (served at `/v1/problems` and
    // embedded in experiment records) is pure compile-time data: keys,
    // coordinates, output arities, cross-check methods, tolerances, and
    // the named ansatz table. Freezing the rendered JSON pins the
    // registry's externally visible shape — adding a family regenerates
    // the fixture; *losing* one (or its cross-check flags) is a diff a
    // reviewer must see.
    let doc = qpinn::core::problems_doc();
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some(qpinn::core::PROBLEMS_DOC_VERSION)
    );
    let rendered = doc.to_string() + "\n";
    assert_matches_fixture("problems_v1.json", rendered.as_bytes());
    // The frozen document must stay machine-readable and list every
    // registered key in registry order.
    let parsed = qpinn::core::report::Json::parse(
        String::from_utf8(std::fs::read(fixture_path("problems_v1.json")).unwrap())
            .unwrap()
            .trim(),
    )
    .unwrap();
    let listed: Vec<String> = match parsed.get("problems") {
        Some(qpinn::core::report::Json::Arr(items)) => items
            .iter()
            .map(|p| p.get("key").and_then(|k| k.as_str()).unwrap().to_string())
            .collect(),
        other => panic!("problems must be an array, got {other:?}"),
    };
    assert_eq!(listed, qpinn::problems::keys());
}
