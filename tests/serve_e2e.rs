//! End-to-end exercise of the `qpinn-serve` inference plane over real
//! TCP: train a model *through the server*, poll its progress, then
//! check that batched `/v1/eval` responses are bit-identical to direct
//! in-process evaluation — including when many clients overlap and
//! coalesce into shared forward passes — and that admission control and
//! failure injection degrade the way the design promises.

use qpinn::core::report::Json;
use qpinn::core::task::net_config_for;
use qpinn::core::trainer::Trainer;
use qpinn::core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::obs::MetricsServer;
use qpinn::optim::LrSchedule;
use qpinn::serve::{BatchConfig, ModelSpec, ServeConfig, ServeServer, TrainRequest};
use qpinn::telemetry::{self, names};
use qpinn::testkit::{self, Trigger};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The coalescing and route assertions read process-global histograms,
/// the progress test reads the process-global progress gauges and
/// telemetry switch, and the fail plane is process-global too; keep the
/// tests that touch any of them from overlapping.
static SERVE_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Send one HTTP request, return (full header block, parsed JSON body).
/// The first line of the header block is the status line.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, Json) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    match body {
        Some(b) => write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{b}",
            b.len()
        )
        .unwrap(),
        None => write!(s, "{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap(),
    }
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    let json = Json::parse(body).unwrap_or(Json::Null);
    (head.to_string(), json)
}

/// A small untrained surrogate, enough to publish and serve.
fn small_model(seed: u64) -> (ModelSpec, ParamSet) {
    use qpinn::core::model::{FieldNet, FieldNetConfig};
    let spec = ModelSpec {
        name: "tdse".into(),
        seed,
        problem: String::new(),
        net: FieldNetConfig::standard_wave(12.0, 1.0, 8, 1),
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let _ = FieldNet::new(&mut params, &mut rng, &spec.net, &spec.name);
    (spec, params)
}

fn poll_to_completion(addr: SocketAddr, job_id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut saw_progress = false;
    loop {
        let (status, doc) = http(addr, "GET", &format!("/v1/jobs/{job_id}/progress"), None);
        assert!(
            status.contains("200"),
            "progress poll failed: {status} {}",
            doc.to_string()
        );
        let state = doc.get("state").unwrap().as_str().unwrap().to_string();
        if doc.get("epoch").unwrap().as_num().unwrap() > 0.0 {
            saw_progress = true;
        }
        if state == "completed" {
            assert!(saw_progress, "never observed a live epoch count while polling");
            return doc;
        }
        assert_ne!(state, "failed", "job failed: {}", doc.to_string());
        assert!(Instant::now() < deadline, "job did not finish in time");
        std::thread::sleep(Duration::from_millis(25));
    }
}

const TRAIN_BODY: &str = r#"{"model_id":"e2e","problem":"harmonic","width":8,"depth":1,
    "epochs":8,"seed":33,"n_collocation":48}"#;

/// The training a `POST /v1/train` job with `body` runs, done in-process.
fn train_in_process(body: &str) -> (ZooTask, ParamSet) {
    let req = TrainRequest::from_json(&Json::parse(body).unwrap()).unwrap();
    let problem = qpinn::serve::jobs::job_problem(&req.problem).unwrap();
    let cfg = qpinn::serve::jobs::job_zoo_config(&req);
    let net = net_config_for(problem.as_ref(), &cfg);
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(req.seed);
    let mut task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
    Trainer::new(qpinn::serve::jobs::job_train_config(&req, None)).train(&mut task, &mut params);
    (task, params)
}

/// The tentpole acceptance path: train via the server, poll progress to
/// completion, evaluate >1000 points over HTTP, and compare every f64
/// bit-for-bit against the same trainer run in-process.
#[test]
fn train_poll_eval_matches_in_process_training_bitwise() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("train-eval");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = server.local_addr();

    let (status, doc) = http(addr, "GET", "/healthz", None);
    assert!(status.contains("200 OK"), "{status}");
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));

    // Submit the train job and follow it to completion.
    let (status, accepted) = http(addr, "POST", "/v1/train", Some(TRAIN_BODY));
    assert!(status.contains("202"), "{status}");
    let job_id = accepted.get("job_id").unwrap().as_str().unwrap().to_string();
    let done = poll_to_completion(addr, &job_id);
    assert_eq!(done.get("version").unwrap().as_num(), Some(1.0));

    // The model shows up in the registry listing.
    let (_, models) = http(addr, "GET", "/v1/models", None);
    let rows = match models.get("models").unwrap() {
        Json::Arr(rows) => rows,
        other => panic!("models is not an array: {}", other.to_string()),
    };
    assert!(rows
        .iter()
        .any(|m| m.get("id").unwrap().as_str() == Some("e2e")));

    // Reference: the identical training run, entirely in-process. The
    // stack is bit-deterministic at any pool width, so equality here is
    // exact, not approximate.
    let (task, params) = train_in_process(TRAIN_BODY);

    // 1050 points on a grid over the domain.
    let pts: Vec<(f64, f64)> = (0..1050)
        .map(|i| {
            let x = -6.0 + 12.0 * ((i % 50) as f64 / 49.0);
            let t = 0.5 * ((i / 50) as f64 / 20.0);
            (x, t)
        })
        .collect();
    let coords: Vec<f64> = pts.iter().flat_map(|&(x, t)| [x, t]).collect();
    let expect = task.net().predict_batch(&params, &coords);
    let expect = expect.data();

    let points_json = pts
        .iter()
        .map(|(x, t)| format!("[{x},{t}]"))
        .collect::<Vec<_>>()
        .join(",");
    let (status, reply) = http(
        addr,
        "POST",
        "/v1/eval",
        Some(&format!(
            r#"{{"model":"e2e@latest","points":[{points_json}]}}"#
        )),
    );
    assert!(status.contains("200 OK"), "{status} {}", reply.to_string());
    assert_eq!(reply.get("version").unwrap().as_num(), Some(1.0));
    let values = match reply.get("values").unwrap() {
        Json::Arr(rows) => rows,
        other => panic!("values is not an array: {}", other.to_string()),
    };
    assert_eq!(values.len(), pts.len());
    // JSON carries f64s through Rust's shortest-roundtrip formatting and
    // correctly-rounded parse, so even transport preserves the bits.
    let mut idx = 0usize;
    for row in values {
        let Json::Arr(fields) = row else { panic!("row is not an array") };
        assert_eq!(fields.len(), 2);
        for f in fields {
            let got = f.as_num().unwrap();
            assert_eq!(
                got.to_bits(),
                expect[idx].to_bits(),
                "served value differs from in-process at flat index {idx}"
            );
            idx += 1;
        }
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent clients must coalesce into shared forward passes —
/// observed through the `serve.batch.size` histogram — while every
/// client still gets bit-identical answers to a solo request.
#[test]
fn overlapping_clients_coalesce_and_stay_bit_identical() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("coalesce");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 8;
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let (status, accepted) = http(
        addr,
        "POST",
        "/v1/train",
        Some(r#"{"model_id":"cc","width":8,"depth":1,"epochs":4,"seed":5,"n_collocation":32}"#),
    );
    assert!(status.contains("202"), "{status}");
    let job_id = accepted.get("job_id").unwrap().as_str().unwrap().to_string();
    poll_to_completion(addr, &job_id);

    // Solo references, one request per client payload, sequentially
    // (nothing to coalesce with ⇒ batch of 1).
    let payloads: Vec<String> = (0..6)
        .map(|c| {
            let pts = (0..8)
                .map(|j| format!("[{},{}]", -5.0 + c as f64 + 0.11 * j as f64, 0.02 * j as f64))
                .collect::<Vec<_>>()
                .join(",");
            format!(r#"{{"model":"cc","points":[{pts}]}}"#)
        })
        .collect();
    let solo: Vec<String> = payloads
        .iter()
        .map(|p| {
            let (status, body) = http(addr, "POST", "/v1/eval", Some(p));
            assert!(status.contains("200 OK"), "{status}");
            body.get("values").unwrap().to_string()
        })
        .collect();

    let before = telemetry::histogram(telemetry::names::SERVE_BATCH_SIZE).snapshot();

    // Now all six at once, queued behind a busy dispatcher: every flush
    // stalls 25 ms with the queue unlocked, a blocker request opens the
    // first stalled flush, and the clients sent while it stalls drain
    // together into the next one.
    let concurrent: Vec<String> = {
        let _stall = testkit::arm("serve.flush_stall", Trigger::Always);
        let blocker = std::thread::spawn(move || {
            http(addr, "POST", "/v1/eval", Some(r#"{"model":"cc","points":[[0.0,0.0]]}"#))
        });
        while testkit::hits("serve.flush_stall") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let clients: Vec<_> = payloads
            .iter()
            .cloned()
            .map(|p| {
                std::thread::spawn(move || {
                    let (status, body) = http(addr, "POST", "/v1/eval", Some(&p));
                    assert!(status.contains("200 OK"), "{status}");
                    body.get("values").unwrap().to_string()
                })
            })
            .collect();
        let (status, _) = blocker.join().unwrap();
        assert!(status.contains("200 OK"), "{status}");
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    };
    for (got, want) in concurrent.iter().zip(&solo) {
        assert_eq!(got, want, "coalesced response differs from solo response");
    }

    // The histogram must have recorded a batch of >= 2 requests during
    // the concurrent round (the acceptance criterion for coalescing).
    let after = telemetry::histogram(telemetry::names::SERVE_BATCH_SIZE).snapshot();
    let new_ge2: u64 = after
        .buckets
        .iter()
        .zip(before.buckets.iter())
        .enumerate()
        // log2 buckets: index 0 holds value 1; index >= 1 holds values >= 2.
        .skip(1)
        .map(|(_, (a, b))| a - b)
        .sum();
    assert!(
        new_ge2 >= 1,
        "no eval batch with >=2 coalesced requests was recorded; before={:?} after={:?}",
        before.buckets,
        after.buckets
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: with a zero-slot eval queue every request sheds
/// with `429` and a `Retry-After` header instead of queueing without
/// bound, unknown models/jobs map to clean 4xx, and an oversize body is
/// refused with `413`.
#[test]
fn admission_and_error_mapping() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("admission");
    let mut cfg = ServeConfig::new(&dir);
    cfg.batch = BatchConfig { queue_cap: 0 };
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // Publish a model directly through the registry (no training needed
    // to exercise admission).
    let (spec, params) = small_model(3);
    server
        .registry()
        .publish("full", &spec, &params, Default::default(), 1, 0.0)
        .unwrap();
    let (status, _) = http(addr, "POST", "/v1/eval", Some(r#"{"model":"full","points":[[0,0]]}"#));
    assert!(status.contains("429"), "{status}");
    assert!(status.contains("Retry-After:"), "missing Retry-After in:\n{status}");

    let (status, _) = http(addr, "POST", "/v1/eval", Some(r#"{"model":"ghost","points":[[0,0]]}"#));
    assert!(status.contains("404"), "{status}");
    let (status, _) = http(addr, "POST", "/v1/eval", Some(r#"{"model":"bad@ref@","points":[[0,0]]}"#));
    assert!(status.contains("400"), "{status}");
    let (status, _) = http(addr, "POST", "/v1/eval", Some("not json"));
    assert!(status.contains("400"), "{status}");
    let (status, _) = http(addr, "GET", "/v1/jobs/job-77/progress", None);
    assert!(status.contains("404"), "{status}");
    let (status, _) = http(addr, "POST", "/v1/train", Some(r#"{"problem":"harmonic"}"#));
    assert!(status.contains("400"), "{status}");
    let (status, _) = http(addr, "DELETE", "/v1/models", None);
    assert!(status.contains("405"), "{status}");

    // A head declaring a body over the limit is answered, not dropped.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    write!(
        s,
        "POST /v1/eval HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        qpinn::obs::http::MAX_BODY_BYTES + 1
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413 Payload Too Large\r\n"), "{raw:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos: arm the `fs.enospc` failpoint during a train job's registry
/// publish. The job must degrade to `503` on its progress route while
/// the previously published model stays intact and servable.
#[test]
fn enospc_during_publish_degrades_without_corrupting_served_models() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("enospc");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = server.local_addr();

    // First job publishes version 1 cleanly.
    let body = r#"{"model_id":"dura","width":8,"depth":1,"epochs":3,"seed":9,"n_collocation":32}"#;
    let (_, accepted) = http(addr, "POST", "/v1/train", Some(body));
    let job1 = accepted.get("job_id").unwrap().as_str().unwrap().to_string();
    poll_to_completion(addr, &job1);
    let (status, reply) = http(addr, "POST", "/v1/eval", Some(r#"{"model":"dura","points":[[0.5,0.1]]}"#));
    assert!(status.contains("200 OK"), "{status} {}", reply.to_string());

    // Second job trains fine but hits a full disk at publish time.
    let _fp = qpinn::testkit::arm("fs.enospc", qpinn::testkit::Trigger::Always);
    let (_, accepted) = http(addr, "POST", "/v1/train", Some(body));
    let job2 = accepted.get("job_id").unwrap().as_str().unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, doc) = http(addr, "GET", &format!("/v1/jobs/{job2}/progress"), None);
        let state = doc.get("state").unwrap().as_str().unwrap().to_string();
        if state == "failed" {
            // The failed job is served under 503 with the cause attached.
            assert!(status.contains("503"), "{status}");
            let err = doc.get("error").unwrap().as_str().unwrap();
            assert!(err.contains("publish failed"), "unexpected error: {err}");
            break;
        }
        assert_ne!(state, "completed", "publish should have failed under enospc");
        assert!(Instant::now() < deadline, "job did not fail in time");
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(_fp);

    // Version 1 is still intact, still resolvable, still serving.
    let (status, reply) = http(addr, "POST", "/v1/eval", Some(r#"{"model":"dura@1","points":[[0.5,0.1]]}"#));
    assert!(status.contains("200 OK"), "{status} {}", reply.to_string());
    let (_, models) = http(addr, "GET", "/v1/models", None);
    let Json::Arr(rows) = models.get("models").unwrap() else { panic!() };
    let dura: Vec<_> = rows
        .iter()
        .filter(|m| m.get("id").unwrap().as_str() == Some("dura"))
        .collect();
    assert_eq!(dura.len(), 1, "failed publish must not leave a second version");
    assert_eq!(dura[0].get("intact").unwrap(), &Json::Bool(true));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Publishes racing `latest` readers. One thread resolves `race` and
/// lists the registry in a loop while another evaluates `race` over
/// HTTP, and `publishers` threads publish new versions meanwhile. No
/// request may disturb a publish in flight, and concurrent publishes
/// must not pick the same version: every publish succeeds and the
/// versions come out distinct and consecutive.
///
/// A `persist.rename_torn` schedule armed through `QPINN_FAILPOINTS`
/// (CI arms `nth(2)`) may fail exactly the publishes it fires on. Each
/// leaves a torn file under its version, which must never resolve as
/// `latest`, and no eval may fail.
fn publish_race(publishers: usize) {
    const PER_PUBLISHER: usize = 20;
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir(&format!("publish-race-{publishers}"));
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = server.local_addr();
    let registry = server.registry();
    let torn_before = testkit::fired("persist.rename_torn");
    let (spec, params) = small_model(3);
    registry
        .publish("race", &spec, &params, Default::default(), 1, 0.0)
        .expect("the first publish seeds `latest`");

    let stop = AtomicBool::new(false);
    let (outcomes, resolved, served) = std::thread::scope(|scope| {
        let resolver = scope.spawn(|| {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let model = registry.resolve("race").expect("`latest` must always resolve");
                seen.push(model.version);
                assert!(registry.list().iter().any(|m| m.id == "race"));
            }
            seen
        });
        let evaluator = scope.spawn(|| {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let (status, reply) =
                    http(addr, "POST", "/v1/eval", Some(r#"{"model":"race","points":[[0.5,0.1]]}"#));
                assert!(status.contains("200 OK"), "{status} {}", reply.to_string());
                seen.push(reply.get("version").unwrap().as_num().unwrap() as u64);
            }
            seen
        });
        let writers: Vec<_> = (0..publishers)
            .map(|_| {
                scope.spawn(|| {
                    (0..PER_PUBLISHER)
                        .map(|_| {
                            registry
                                .publish("race", &spec, &params, Default::default(), 1, 0.0)
                                .map_err(|e| e.to_string())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outcomes: Vec<Result<u64, String>> =
            writers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        (outcomes, resolver.join().unwrap(), evaluator.join().unwrap())
    });

    let torn = testkit::fired("persist.rename_torn") - torn_before;
    let failed: Vec<&String> = outcomes.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(failed.len() as u64, torn, "only injected publishes may fail: {failed:?}");
    let listed: Vec<(u64, bool)> = registry
        .list()
        .into_iter()
        .filter(|m| m.id == "race")
        .map(|m| (m.version, m.intact))
        .collect();
    let total = 1 + outcomes.len() as u64;
    assert_eq!(
        listed.iter().map(|m| m.0).collect::<Vec<_>>(),
        (1..=total).collect::<Vec<_>>(),
        "one version per publish, consecutive"
    );
    let mut published: Vec<u64> = outcomes.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
    published.insert(0, 1);
    published.sort_unstable();
    let intact: Vec<u64> = listed.iter().filter(|m| m.1).map(|m| m.0).collect();
    assert_eq!(published, intact, "each successful publish owns one distinct intact version");
    let torn_versions: Vec<u64> = listed.iter().filter(|m| !m.1).map(|m| m.0).collect();
    assert_eq!(torn_versions.len() as u64, torn);
    for seen in [&resolved, &served] {
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "`latest` went backwards");
        assert!(
            seen.iter().all(|v| !torn_versions.contains(v)),
            "a torn version {torn_versions:?} resolved as `latest`"
        );
    }
    assert_eq!(registry.resolve("race").unwrap().version, *intact.last().unwrap());

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn publish_race_one_publisher_against_latest_readers() {
    publish_race(1);
}

#[test]
fn publish_race_two_publishers_against_latest_readers() {
    publish_race(2);
}

const GS_TRAIN_BODY: &str = r#"{"model_id":"gs-e2e","problem":"gray-scott","width":8,"depth":1,
    "epochs":6,"seed":91,"n_collocation":40}"#;

/// The first vector-valued family through the whole persistence loop:
/// train a 2-component Gray–Scott surrogate via the server, evict it
/// from memory by restarting on the same model directory (so `/v1/eval`
/// must rebuild from the published snapshot), and require every served
/// f64 to match the identical in-process training run bit-for-bit.
#[test]
fn gray_scott_trains_persists_and_serves_bit_exactly() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("gs-train-eval");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = server.local_addr();

    let (status, accepted) = http(addr, "POST", "/v1/train", Some(GS_TRAIN_BODY));
    assert!(status.contains("202"), "{status}");
    let job_id = accepted.get("job_id").unwrap().as_str().unwrap().to_string();
    poll_to_completion(addr, &job_id);
    server.stop();

    // A fresh server over the same directory has only the snapshot on
    // disk — the eval path below exercises decode + spec rebuild, not a
    // warm cache.
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = server.local_addr();

    // Reference: identical training entirely in-process.
    let (task, params) = train_in_process(GS_TRAIN_BODY);
    assert_eq!(task.net().n_fields(), 2, "gray-scott must be 2-component");

    // A 40×10 grid over the periodic x interval and the time horizon.
    let pts: Vec<[f64; 2]> = (0..400)
        .map(|i| {
            let x = 2.0 * std::f64::consts::PI * ((i % 40) as f64 / 39.0);
            let t = 4.0 * ((i / 40) as f64 / 9.0);
            [x, t]
        })
        .collect();
    let coords: Vec<f64> = pts.iter().flatten().copied().collect();
    let expect = task.net().predict_batch(&params, &coords);
    let expect = expect.data();

    let points_json = pts
        .iter()
        .map(|p| format!("[{},{}]", p[0], p[1]))
        .collect::<Vec<_>>()
        .join(",");
    let (status, reply) = http(
        addr,
        "POST",
        "/v1/eval",
        Some(&format!(
            r#"{{"model":"gs-e2e@latest","points":[{points_json}]}}"#
        )),
    );
    assert!(status.contains("200 OK"), "{status} {}", reply.to_string());
    let values = match reply.get("values").unwrap() {
        Json::Arr(rows) => rows,
        other => panic!("values is not an array: {}", other.to_string()),
    };
    assert_eq!(values.len(), pts.len());
    let mut idx = 0usize;
    for row in values {
        let Json::Arr(fields) = row else { panic!("row is not an array") };
        assert_eq!(fields.len(), 2, "both u and v components must be served");
        for f in fields {
            let got = f.as_num().unwrap();
            assert_eq!(
                got.to_bits(),
                expect[idx].to_bits(),
                "served value differs from in-process at flat index {idx}"
            );
            idx += 1;
        }
    }

    // The registry listing tags the resident model with its problem key.
    let (_, models) = http(addr, "GET", "/v1/models", None);
    let rows = match models.get("models").unwrap() {
        Json::Arr(rows) => rows,
        other => panic!("models is not an array: {}", other.to_string()),
    };
    let gs = rows
        .iter()
        .find(|m| m.get("id").unwrap().as_str() == Some("gs-e2e"))
        .expect("gray-scott model missing from listing");
    assert_eq!(gs.get("problem").unwrap().as_str(), Some("gray-scott"));

    // And the problem catalog is served alongside the models.
    let (status, doc) = http(addr, "GET", "/v1/problems", None);
    assert!(status.contains("200 OK"), "{status}");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some(qpinn::core::PROBLEMS_DOC_VERSION)
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/progress` on both servers follows a training run in this process
/// that has no progress hook, and no server installs a telemetry sink:
/// the routes read the trainer's `train.progress.*` gauges, so the event
/// layer stays dormant before, during and after.
#[test]
fn progress_follows_in_process_training_with_no_hook_and_no_sink() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!telemetry::enabled(), "a sink is installed before any server starts");
    let dir = tmp_dir("progress");
    let serve = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let metrics = MetricsServer::start("127.0.0.1:0").unwrap();
    let addrs = [serve.local_addr(), metrics.local_addr()];
    assert!(!telemetry::enabled(), "starting a server installed a sink");

    let cfg = ZooTaskConfig {
        width: 8,
        depth: 1,
        n_collocation: 32,
        ..ZooTaskConfig::quick()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(17);
    let mut task = ZooTask::from_key("tdse-free", &cfg, &mut params, &mut rng).unwrap();
    // 13 epochs logged every 5: the last recorded epoch (10) is not the
    // last epoch, and no other test here trains for 13.
    let train = TrainConfig {
        epochs: 13,
        schedule: LrSchedule::Constant { lr: 2e-3 },
        log_every: 5,
        progress: None,
        ..TrainConfig::default()
    };
    let training = AtomicBool::new(true);
    let log = std::thread::scope(|scope| {
        // Poll both routes while the trainer runs, at least once however
        // quickly it finishes.
        let poller = scope.spawn(|| loop {
            for addr in addrs {
                let (status, _) = http(addr, "GET", "/progress", None);
                assert!(status.contains("200 OK"), "{status}");
                assert!(!telemetry::enabled(), "a sink was installed during training");
            }
            if !training.load(Ordering::Acquire) {
                break;
            }
        });
        let log = Trainer::new(train).train(&mut task, &mut params);
        training.store(false, Ordering::Release);
        poller.join().unwrap();
        log
    });

    let last = *log.epochs.last().unwrap();
    assert_eq!(last, 10);
    for addr in addrs {
        let (status, doc) = http(addr, "GET", "/progress", None);
        assert!(status.contains("200 OK"), "{status}");
        assert_eq!(doc.get("training"), Some(&Json::Bool(true)), "{}", doc.to_string());
        assert_eq!(doc.get("epoch").and_then(Json::as_num), Some(last as f64));
        assert_eq!(doc.get("epochs_total").and_then(Json::as_num), Some(13.0));
    }
    metrics.stop();
    serve.stop();
    assert!(!telemetry::enabled(), "stopping a server installed a sink");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-route latency histograms are keyed by the route that
/// answered, not by the raw path: distinct unknown paths share one
/// histogram and job-progress polls for distinct ids share another, so
/// callers cannot grow `/metrics` one series per path.
#[test]
fn route_histograms_are_keyed_by_route_not_path() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("routes");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = server.local_addr();
    let by_route = |key: &str| {
        telemetry::histogram(&format!("{}.by_route.{key}", names::SERVE_LAT_TOTAL_NS))
            .snapshot()
            .count
    };
    let n_routes = || {
        telemetry::global()
            .snapshot()
            .histograms
            .iter()
            .filter(|(name, _)| name.contains(".by_route."))
            .count()
    };
    let (unmatched, jobs) = (by_route("unmatched"), by_route("v1_jobs_id_progress"));
    let routes_before = n_routes();

    for i in 0..20 {
        let (status, _) = http(addr, "GET", &format!("/no/such/route-{i}"), None);
        assert!(status.contains("404"), "{status}");
    }
    for i in 0..5 {
        let (status, _) = http(addr, "GET", &format!("/v1/jobs/job-{}/progress", 900 + i), None);
        assert!(status.contains("404"), "{status}");
    }

    // The worker records a request's latency before it closes the
    // connection, so every response read above is already counted.
    let grown = n_routes() - routes_before;
    assert!(grown <= 2, "25 distinct paths added {grown} by_route histograms");
    assert_eq!(by_route("unmatched") - unmatched, 20);
    assert_eq!(by_route("v1_jobs_id_progress") - jobs, 5);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A thread spawn that fails answers `503` and costs the server nothing.
/// With `serve.thread_spawn` armed, a train job and the first eval of a
/// published model (which has to start the model's dispatcher) are
/// refused, and the refused job leaves no entry and no started count.
/// Disarmed, the same single-worker server trains and evaluates: the
/// failure did not take its connection worker down.
#[test]
fn failed_thread_spawns_answer_503_and_the_server_recovers() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("spawn");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (spec, params) = small_model(3);
    server
        .registry()
        .publish("spawned", &spec, &params, Default::default(), 1, 0.0)
        .unwrap();
    const EVAL: &str = r#"{"model":"spawned","points":[[0.5,0.1]]}"#;
    let jobs_started = telemetry::counter(names::SERVE_JOBS_STARTED).get();

    {
        let _fp = testkit::arm("serve.thread_spawn", Trigger::Always);
        let (status, doc) = http(addr, "POST", "/v1/train", Some(TRAIN_BODY));
        assert!(status.contains("503"), "{status} {}", doc.to_string());
        let (status, doc) = http(addr, "POST", "/v1/eval", Some(EVAL));
        assert!(status.contains("503"), "{status} {}", doc.to_string());
        let (status, _) = http(addr, "GET", "/v1/jobs/job-1/progress", None);
        assert!(status.contains("404"), "{status}");
    }
    assert_eq!(telemetry::counter(names::SERVE_JOBS_STARTED).get(), jobs_started);

    let (status, reply) = http(addr, "POST", "/v1/eval", Some(EVAL));
    assert!(status.contains("200 OK"), "{status} {}", reply.to_string());
    let (status, accepted) = http(addr, "POST", "/v1/train", Some(TRAIN_BODY));
    assert!(status.contains("202"), "{status}");
    let job_id = accepted.get("job_id").unwrap().as_str().unwrap().to_string();
    poll_to_completion(addr, &job_id);
    assert_eq!(telemetry::counter(names::SERVE_JOBS_STARTED).get(), jobs_started + 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
