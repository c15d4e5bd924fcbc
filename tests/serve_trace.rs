//! End-to-end request tracing through the serve plane: every request —
//! success, shed, and error — lands in the `qpinn-access-v1` access log
//! exactly once with a latency decomposition that sums below the
//! end-to-end total; trace ids round-trip through the `x-qpinn-trace`
//! header; `/v1/traces` exposes the ring; and with tracing disabled the
//! response bytes are bit-identical and header-free.

use qpinn::core::model::{FieldNet, FieldNetConfig};
use qpinn::core::report::Json;
use qpinn::nn::ParamSet;
use qpinn::serve::{BatchConfig, ServeConfig, ServeServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// The access ring and trace switch are process-global (configured by
/// `ServeServer::start`), so the servers in this file must not overlap.
static SERVE_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-serve-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One HTTP request with optional extra headers; returns (header block,
/// raw body text) so bodies can be compared byte-for-byte.
fn http_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let extras: String = extra_headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    match body {
        Some(b) => write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: t\r\n{extras}Content-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{b}",
            b.len()
        )
        .unwrap(),
        None => write!(s, "{method} {path} HTTP/1.1\r\nHost: t\r\n{extras}\r\n").unwrap(),
    }
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Case-insensitive response-header lookup inside a raw header block.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().skip(1).find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case(name)
            .then(|| v.trim().to_string())
    })
}

/// Publish a deterministic untrained model directly through the
/// registry, so tracing tests don't pay for an HTTP training job.
fn publish_model(server: &ServeServer, id: &str) {
    let spec = qpinn::serve::ModelSpec {
        name: "tdse".into(),
        seed: 3,
        problem: String::new(),
        net: FieldNetConfig::standard_wave(12.0, 1.0, 8, 1),
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let _ = FieldNet::new(&mut params, &mut rng, &spec.net, &spec.name);
    server
        .registry()
        .publish(id, &spec, &params, Default::default(), 1, 0.0)
        .unwrap();
}

const EVAL_BODY: &str = r#"{"model":"traced","points":[[0.5,0.1],[-1.0,0.2],[2.0,0.0]]}"#;

/// Tentpole acceptance: 100% of requests (success, client error,
/// unknown model) appear exactly once in the access log, with a
/// decomposition that sums to ≤ the end-to-end total, and the ring
/// behind `/v1/traces` mirrors the same records.
#[test]
fn every_request_lands_in_the_access_log_exactly_once() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("coverage");
    let log_path = dir.join("access.jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = ServeConfig::new(dir.join("models"));
    cfg.trace.access_log = Some(log_path.clone());
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    publish_model(&server, "traced");

    fn collect(head: &str, trace_ids: &mut Vec<String>) {
        let id = header_value(head, "x-qpinn-trace")
            .unwrap_or_else(|| panic!("response missing x-qpinn-trace:\n{head}"));
        assert!(
            id.len() == 16 && id.chars().all(|c| c.is_ascii_hexdigit()),
            "malformed trace id {id:?}"
        );
        trace_ids.push(id);
    }
    let mut trace_ids: Vec<String> = Vec::new();

    // A mixed workload: health check, successful evals, a malformed
    // body (400), and an unknown model (404).
    let (head, _) = http_raw(addr, "GET", "/healthz", None, &[]);
    assert!(head.contains("200 OK"), "{head}");
    collect(&head, &mut trace_ids);
    for _ in 0..6 {
        let (head, body) = http_raw(addr, "POST", "/v1/eval", Some(EVAL_BODY), &[]);
        assert!(head.contains("200 OK"), "{head} {body}");
        collect(&head, &mut trace_ids);
    }
    let (head, _) = http_raw(addr, "POST", "/v1/eval", Some("not json"), &[]);
    assert!(head.contains("400"), "{head}");
    collect(&head, &mut trace_ids);
    let (head, _) = http_raw(addr, "POST", "/v1/eval", Some(r#"{"model":"ghost","points":[[0,0]]}"#), &[]);
    assert!(head.contains("404"), "{head}");
    collect(&head, &mut trace_ids);

    // Inbound trace ids are adopted, not replaced.
    let (head, _) = http_raw(
        addr,
        "POST",
        "/v1/eval",
        Some(EVAL_BODY),
        &[("x-qpinn-trace", "deadbeefcafe1234")],
    );
    assert_eq!(
        header_value(&head, "x-qpinn-trace").as_deref(),
        Some("deadbeefcafe1234"),
        "inbound trace id was not adopted:\n{head}"
    );
    collect(&head, &mut trace_ids);

    // The ring endpoint mirrors the same records (the in-flight GET
    // itself is only logged after its response is written).
    let (head, body) = http_raw(addr, "GET", "/v1/traces?n=100", None, &[]);
    assert!(head.contains("200 OK"), "{head}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("qpinn-traces-v1"));
    assert_eq!(doc.get("enabled").unwrap(), &Json::Bool(true));
    let Json::Arr(ring) = doc.get("traces").unwrap() else {
        panic!("traces is not an array: {body}")
    };
    assert_eq!(
        doc.get("count").unwrap().as_num(),
        Some(ring.len() as f64)
    );
    let ring_ids: Vec<&str> = ring
        .iter()
        .map(|r| r.get("trace").unwrap().as_str().unwrap())
        .collect();
    for id in &trace_ids {
        assert_eq!(
            ring_ids.iter().filter(|r| *r == id).count(),
            1,
            "trace {id} not exactly-once in /v1/traces: {ring_ids:?}"
        );
    }
    collect(&head, &mut trace_ids);

    // Stop flushes the JSONL access log; coverage check on disk.
    server.stop();
    let text = std::fs::read_to_string(&log_path).unwrap();
    let records: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(
        records.len(),
        trace_ids.len(),
        "access log line count != requests made:\n{text}"
    );
    let mut logged: Vec<&str> = records
        .iter()
        .map(|r| r.get("trace").unwrap().as_str().unwrap())
        .collect();
    let mut expected: Vec<&str> = trace_ids.iter().map(String::as_str).collect();
    logged.sort_unstable();
    expected.sort_unstable();
    assert_eq!(logged, expected, "access log ids != client-observed ids");

    // Schema + decomposition invariants per record.
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_num).unwrap() as u64;
    let mut served_evals = 0;
    for r in &records {
        assert_eq!(r.get("v").unwrap().as_str(), Some("qpinn-access-v1"));
        let status = num(r, "status");
        let total = num(r, "total_ns");
        assert!(total > 0, "zero total_ns: {}", r.to_string());
        let decomposed = num(r, "queue_ns") + num(r, "batch_ns") + num(r, "compute_ns");
        assert!(
            decomposed <= total,
            "stage sum {decomposed} exceeds total {total}: {}",
            r.to_string()
        );
        if r.get("route").unwrap().as_str() == Some("/v1/eval") && status == 200 {
            served_evals += 1;
            assert_eq!(r.get("model").unwrap().as_str(), Some("traced@1"));
            assert!(num(r, "compute_ns") > 0, "no compute time: {}", r.to_string());
            assert!(num(r, "batch") >= 1);
            assert_eq!(num(r, "points"), 3);
        }
    }
    assert_eq!(served_evals, 7, "expected 7 successful eval records");

    // CI's live-capture SLO gate sets QPINN_KEEP_ACCESS_LOG to keep this
    // test's real access log around for `qpinn-obs slo` after the test
    // process (and its temp dir) are gone.
    if let Ok(keep) = std::env::var("QPINN_KEEP_ACCESS_LOG") {
        if !keep.is_empty() {
            std::fs::copy(&log_path, &keep).expect("QPINN_KEEP_ACCESS_LOG copy failed");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /v1/traces?route=` filters on the exact access-record route key,
/// composing with `?n=K`; an unmatched route yields an empty (not
/// erroneous) trace list.
#[test]
fn traces_route_filter_returns_only_matching_records() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("route-filter");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(dir.join("models"))).unwrap();
    let addr = server.local_addr();
    publish_model(&server, "traced");

    for _ in 0..3 {
        let (head, _) = http_raw(addr, "POST", "/v1/eval", Some(EVAL_BODY), &[]);
        assert!(head.contains("200 OK"), "{head}");
    }
    let (head, _) = http_raw(addr, "GET", "/healthz", None, &[]);
    assert!(head.contains("200 OK"), "{head}");

    let traces = |query: &str| -> Vec<Json> {
        let (head, body) = http_raw(addr, "GET", &format!("/v1/traces{query}"), None, &[]);
        assert!(head.contains("200 OK"), "{head}");
        match Json::parse(&body).unwrap().get("traces") {
            Some(Json::Arr(v)) => v.clone(),
            other => panic!("traces is not an array: {other:?}"),
        }
    };

    let evals = traces("?route=/v1/eval");
    assert_eq!(evals.len(), 3, "expected exactly the 3 eval records");
    assert!(evals
        .iter()
        .all(|r| r.get("route").unwrap().as_str() == Some("/v1/eval")));

    // n=K composes: the last K *matching* records come back.
    assert_eq!(traces("?route=/v1/eval&n=2").len(), 2);
    assert_eq!(traces("?n=2&route=/v1/eval").len(), 2);

    let health = traces("?route=/healthz");
    assert_eq!(health.len(), 1);
    assert_eq!(
        health[0].get("route").unwrap().as_str(),
        Some("/healthz")
    );

    // Exact match only — no prefix matching, and unknown routes are empty.
    assert!(traces("?route=/v1").is_empty());
    assert!(traces("?route=/v1/evict").is_empty());

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The access ring under concurrent writers at widths 1 and 4: after a
/// wraparound-forcing burst, the ring holds exactly its capacity of
/// records, and the JSONL log has every exchanged record exactly once —
/// no loss, no duplication, no torn lines.
#[test]
fn access_ring_is_exactly_once_under_concurrent_writers() {
    use qpinn::telemetry::{access, AccessRecord};
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("ring-writers");
    std::fs::create_dir_all(&dir).unwrap();

    for writers in [1usize, 4] {
        let cap = 8; // far below the record count, forcing wraparound
        let per_writer = 200usize;
        access::configure(cap);
        let log_path = dir.join(format!("ring-{writers}.jsonl"));
        access::log_to(&log_path).unwrap();

        std::thread::scope(|scope| {
            for w in 0..writers {
                scope.spawn(move || {
                    for i in 0..per_writer {
                        access::record(AccessRecord {
                            trace: format!("{w:08x}{i:08x}"),
                            status: 200,
                            route: "/v1/eval".into(),
                            total_ns: 1,
                            ..AccessRecord::default()
                        });
                    }
                });
            }
        });
        access::flush();

        // Ring: wraparound leaves exactly `cap` records, all distinct.
        let ring = access::last(10_000);
        assert_eq!(ring.len(), cap, "ring not at capacity (writers={writers})");
        let mut ring_ids: Vec<&str> = ring.iter().map(|r| r.trace.as_str()).collect();
        ring_ids.sort_unstable();
        ring_ids.dedup();
        assert_eq!(ring_ids.len(), cap, "duplicate records in ring (writers={writers})");

        // Log: every record exactly once, each line intact JSON.
        let text = std::fs::read_to_string(&log_path).unwrap();
        let mut logged: Vec<String> = text
            .lines()
            .map(|l| {
                Json::parse(l)
                    .unwrap_or_else(|e| panic!("torn log line (writers={writers}): {e}: {l}"))
                    .get("trace")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            logged.len(),
            writers * per_writer,
            "log line count (writers={writers})"
        );
        logged.sort_unstable();
        logged.dedup();
        assert_eq!(
            logged.len(),
            writers * per_writer,
            "duplicated log records (writers={writers})"
        );
    }

    access::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sheds are first-class traced requests: with a zero-slot queue the
/// 429 carries both `Retry-After` and a trace id, and the access record
/// names the shed reason.
#[test]
fn shed_requests_are_traced_with_their_reason() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("shed");
    let mut cfg = ServeConfig::new(dir.join("models"));
    cfg.batch = BatchConfig { queue_cap: 0 };
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    publish_model(&server, "traced");

    let (head, _) = http_raw(addr, "POST", "/v1/eval", Some(EVAL_BODY), &[]);
    assert!(head.contains("429"), "{head}");
    assert!(head.contains("Retry-After:"), "missing Retry-After:\n{head}");
    let id = header_value(&head, "x-qpinn-trace").expect("shed response must carry a trace id");

    let (_, body) = http_raw(addr, "GET", "/v1/traces?n=10", None, &[]);
    let doc = Json::parse(&body).unwrap();
    let Json::Arr(ring) = doc.get("traces").unwrap() else { panic!("{body}") };
    let rec = ring
        .iter()
        .find(|r| r.get("trace").unwrap().as_str() == Some(id.as_str()))
        .unwrap_or_else(|| panic!("shed trace {id} not in ring: {body}"));
    assert_eq!(rec.get("status").unwrap().as_num(), Some(429.0));
    assert_eq!(rec.get("shed").unwrap().as_str(), Some("queue_full"));
    assert_eq!(rec.get("route").unwrap().as_str(), Some("/v1/eval"));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stages before a request is queued are span events on its trace:
/// one traced eval emits exactly one `request_parse` (body to
/// coordinates) and one `request_resolve`, both carrying its id.
#[test]
fn an_eval_emits_one_parse_and_one_resolve_span() {
    use qpinn::telemetry::{self, MemorySink};
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("stages");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(dir.join("models"))).unwrap();
    publish_model(&server, "traced");
    let sink = std::sync::Arc::new(MemorySink::default());
    telemetry::install(sink.clone());

    let id = "5eed0000c0ffee18";
    let (head, body) = http_raw(
        server.local_addr(),
        "POST",
        "/v1/eval",
        Some(EVAL_BODY),
        &[("x-qpinn-trace", id)],
    );
    assert!(head.contains("200 OK"), "{head} {body}");
    server.stop();

    let events = sink.events.lock().unwrap();
    let field = |e: &telemetry::Event, key: &str| -> Option<String> {
        e.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            telemetry::event::Value::Str(s) => Some(s.clone()),
            _ => None,
        })
    };
    let stage = |name: &str| -> Vec<String> {
        events
            .iter()
            .filter(|e| e.name == name && field(e, "trace").as_deref() == Some(id))
            .map(|e| field(e, "path").unwrap_or_default())
            .collect()
    };
    assert_eq!(stage("request_parse"), ["request/parse"], "parse spans of {id}");
    assert_eq!(stage("request_resolve"), ["request/resolve"], "resolve spans of {id}");
    drop(events);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dormant-path contract: with `trace.ring = 0` responses carry no
/// trace header, `/v1/traces` reports disabled, and eval bodies are
/// byte-identical to a traced server's — tracing never perturbs results.
#[test]
fn tracing_off_is_header_free_and_bit_identical() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Reference body from a traced server.
    let dir_on = tmp_dir("bits-on");
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(dir_on.join("models"))).unwrap();
    publish_model(&server, "traced");
    let (head_on, body_on) = http_raw(server.local_addr(), "POST", "/v1/eval", Some(EVAL_BODY), &[]);
    assert!(head_on.contains("200 OK"), "{head_on}");
    assert!(header_value(&head_on, "x-qpinn-trace").is_some());
    server.stop();

    // Same model, tracing disabled.
    let dir_off = tmp_dir("bits-off");
    let mut cfg = ServeConfig::new(dir_off.join("models"));
    cfg.trace.ring = 0;
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    publish_model(&server, "traced");
    let addr = server.local_addr();
    let (head_off, body_off) = http_raw(addr, "POST", "/v1/eval", Some(EVAL_BODY), &[]);
    assert!(head_off.contains("200 OK"), "{head_off}");
    assert!(
        header_value(&head_off, "x-qpinn-trace").is_none(),
        "tracing off must not add the header:\n{head_off}"
    );
    assert_eq!(body_on, body_off, "response bytes differ with tracing on vs off");

    let (head, body) = http_raw(addr, "GET", "/v1/traces", None, &[]);
    assert!(head.contains("200 OK"), "{head}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("enabled").unwrap(), &Json::Bool(false));
    assert_eq!(doc.get("count").unwrap().as_num(), Some(0.0));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
}
