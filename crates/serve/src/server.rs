//! The inference server: routing, connection workers, and admission
//! control.
//!
//! Same zero-dependency shape as `qpinn-obs`'s `MetricsServer` — a
//! `std::net::TcpListener`, one response per connection,
//! `Connection: close` — but with a pool of connection workers in front
//! of the routes, because batching only exists when several requests
//! are *in flight* at once. The accept thread pushes connections onto a
//! bounded queue; when the queue is full it sheds immediately with
//! `429 Too Many Requests` + `Retry-After` instead of letting latency
//! grow unbounded (per-model eval queues shed the same way).
//!
//! | route                      | method | body                               |
//! |----------------------------|--------|------------------------------------|
//! | `/v1/models`               | GET    | registry listing                   |
//! | `/v1/problems`             | GET    | `qpinn-problems-v1` catalog        |
//! | `/v1/eval`                 | POST   | `{"model","points"}` → field rows  |
//! | `/v1/train`                | POST   | train request → `202` + job id     |
//! | `/v1/jobs/<id>/progress`   | GET    | live epoch/loss/ETA (failed → 503) |
//! | `/v1/evict`                | POST   | `{"model"}` → drop resident copy   |
//! | `/v1/traces`               | GET    | last `?n=K` access records (`?route=` filters) |
//! | `/v1/runs` `/v1/runs/<id>` | GET    | `qpinn-run-v1` records, shared with `qpinn-obs` |
//! | `/metrics` `/metrics.json` | GET    | shared with `qpinn-obs`            |
//! | `/progress` `/healthz`     | GET    | shared with `qpinn-obs`            |
//!
//! ## Request tracing
//!
//! With tracing on ([`TraceConfig::ring`] > 0, the default) every
//! request is minted a [`TraceCtx`] — adopting a valid inbound
//! `x-qpinn-trace` header, else generating a fresh id — echoed back as
//! an `x-qpinn-trace` response header. The context rides through body
//! parsing and registry resolution (each a span event), the batch queue,
//! and the dispatcher flush; on
//! completion the request's latency decomposition (queue wait, batch
//! drain, compute, serialization) lands in the
//! `serve.latency.{queue,batch,compute,total}_ns` histograms, in span
//! events (per-request tracks in `qpinn-obs trace`, when a sink is
//! installed), and in one `qpinn-access-v1` record in the bounded access
//! ring that `GET /v1/traces` serves. Tracing never changes response
//! bytes; off, its cost is one relaxed atomic load per request. The
//! per-route total histograms are keyed by the route that answered, so
//! their number is fixed whatever paths callers send.

use crate::batch::{BatchConfig, Batcher, SubmitError};
use crate::jobs::{JobManager, TrainRequest};
use crate::registry::{ModelRegistry, RegistryConfig, RegistryError};
use qpinn_core::report::Json;
use qpinn_obs::http::{read_request, ReadError, Request, Response};
use qpinn_obs::server::metrics_routes;
use qpinn_telemetry::event::{now_ns, write_json_num, write_json_str};
use qpinn_telemetry::{access, names, AccessRecord, Event, Kind, TraceCtx};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server settings.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Model registry settings.
    pub registry: RegistryConfig,
    /// Micro-batch shaping.
    pub batch: BatchConfig,
    /// Connection worker threads. More workers ⇒ more requests in
    /// flight ⇒ more coalescing opportunity.
    pub workers: usize,
    /// Connections queued for workers before the accept thread sheds.
    pub pending_cap: usize,
    /// Request-tracing settings.
    pub trace: TraceConfig,
    /// `qpinn-run-v1` run-record store. `Some(dir)` records every
    /// `POST /v1/train` job under `dir` (manifest + epoch series,
    /// stamped with the submitting request's trace id) and serves
    /// `GET /v1/runs` from it; `None` disables recording, and the runs
    /// routes fall back to the default `target/runs` store read-only.
    pub runs: Option<std::path::PathBuf>,
}

/// Request-tracing settings. Tracing state is process-global (the
/// telemetry access ring): starting a server with `ring > 0` configures
/// it, `ring == 0` disables it.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Access-ring capacity (last-K requests served by `/v1/traces`).
    /// 0 disables request tracing entirely — no ids are minted and the
    /// per-request cost is one relaxed atomic load.
    pub ring: usize,
    /// Optional JSONL access-log path; every finished request appends
    /// one `qpinn-access-v1` line (`qpinn-obs requests`/`slo` input).
    pub access_log: Option<std::path::PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring: 512,
            access_log: None,
        }
    }
}

impl ServeConfig {
    /// Defaults: 8 workers, 64 queued connections, default batching,
    /// tracing on with a 512-record ring and no access-log file.
    pub fn new(models_dir: impl Into<std::path::PathBuf>) -> Self {
        ServeConfig {
            registry: RegistryConfig::new(models_dir),
            batch: BatchConfig::default(),
            workers: 8,
            pending_cap: 64,
            trace: TraceConfig::default(),
            runs: None,
        }
    }
}

struct ConnQueue {
    conns: VecDeque<TcpStream>,
    shutdown: bool,
}

struct Shared {
    registry: Arc<ModelRegistry>,
    jobs: JobManager,
    batch_cfg: BatchConfig,
    batchers: Mutex<HashMap<(String, u64), Arc<Batcher>>>,
    batcher_joins: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    runs_dir: std::path::PathBuf,
    queue: Mutex<ConnQueue>,
    signal: Condvar,
}

/// A running inference server; stop with [`ServeServer::stop`].
pub struct ServeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeServer {
    /// Bind `addr` (port 0 picks a free port), open the registry, and
    /// start the accept thread + worker pool. No telemetry sink is
    /// installed: `/progress` reads the trainer's progress gauges, so it
    /// follows any training this process runs (including submitted train
    /// jobs) while the event layer stays dormant.
    pub fn start(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<ServeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = Arc::new(
            ModelRegistry::open(cfg.registry.clone())
                .map_err(|e| std::io::Error::new(e.kind(), format!("registry: {e}")))?,
        );
        if cfg.trace.ring > 0 {
            access::configure(cfg.trace.ring);
            if let Some(path) = &cfg.trace.access_log {
                if let Err(e) = access::log_to(path) {
                    qpinn_telemetry::warn(
                        "access_log_open_failed",
                        format!("cannot open access log {}: {e}", path.display()),
                    );
                }
            }
        } else {
            access::disable();
        }
        let shared = Arc::new(Shared {
            jobs: JobManager::new(registry.clone()).record_runs(cfg.runs.clone()),
            registry,
            batch_cfg: cfg.batch,
            batchers: Mutex::new(HashMap::new()),
            batcher_joins: Mutex::new(Vec::new()),
            started: Instant::now(),
            runs_dir: cfg
                .runs
                .clone()
                .unwrap_or_else(qpinn_core::runs::default_dir),
            queue: Mutex::new(ConnQueue {
                conns: VecDeque::new(),
                shutdown: false,
            }),
            signal: Condvar::new(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = shared.clone();
            let shutdown = shutdown.clone();
            let cap = cfg.pending_cap;
            std::thread::Builder::new()
                .name("qpinn-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, shutdown, cap))?
        };
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("qpinn-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ServeServer {
            addr: local,
            shared,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server serves from.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        self.shared.registry.clone()
    }

    /// Drain and stop: close the listener loop, finish queued
    /// connections, join workers and per-model batchers, and wait for
    /// any submitted train jobs to finish.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
        }
        self.shared.signal.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let batchers: Vec<Arc<Batcher>> = self
            .shared
            .batchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
            .map(|(_, b)| b)
            .collect();
        for b in &batchers {
            b.close();
        }
        let joins: Vec<_> = self
            .shared
            .batcher_joins
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for j in joins {
            let _ = j.join();
        }
        self.shared.jobs.join_all();
        access::flush();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    pending_cap: usize,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let shed = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.conns.len() >= pending_cap {
                Some(stream)
            } else {
                q.conns.push_back(stream);
                None
            }
        };
        match shed {
            Some(mut stream) => {
                // Too many connections waiting: refuse before even
                // reading the request so a flood cannot exhaust memory.
                // The request line is never read, so the access record
                // has no route and a freshly minted id (any inbound
                // x-qpinn-trace header is still on the wire).
                qpinn_telemetry::counter(names::SERVE_SHED).inc();
                let ctx = TraceCtx::mint(None);
                let mut resp = err_json("429 Too Many Requests", "server busy, retry later")
                    .header("Retry-After", "1");
                if ctx.on {
                    resp = resp.header("x-qpinn-trace", ctx.id.clone());
                    access::record(AccessRecord {
                        trace: ctx.id,
                        ts_ns: now_ns(),
                        status: 429,
                        shed: "pending_cap".into(),
                        ..AccessRecord::default()
                    });
                }
                let _ = resp.write_to(&mut stream);
            }
            None => shared.signal.notify_one(),
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = q.conns.pop_front() {
                    break s;
                }
                if q.shutdown {
                    return;
                }
                q = shared.signal.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let _ = handle_connection(stream, &shared);
    }
}

/// What a route learned about its request, accumulated for the latency
/// histograms and the access record. Zeros mean "stage did not apply"
/// (only eval requests reach a batcher).
#[derive(Default)]
struct ReqMeta {
    /// `id@version` once a model resolved, else empty.
    model: String,
    /// Metric-name key for the model ([`names::model_key`]).
    model_key: String,
    /// Shed reason (`"queue_full"`); accept-queue sheds never get here.
    shed: &'static str,
    batch: u64,
    points: u64,
    queue_ns: u64,
    batch_ns: u64,
    compute_ns: u64,
    /// [`now_ns`] when the forward pass finished (0 = no dispatch).
    compute_end_ns: u64,
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let t0 = Instant::now();
    let start_ns = now_ns();
    let req = match read_request(&stream) {
        Ok(req) => req,
        Err(e) => return refuse(stream, e, start_ns),
    };
    qpinn_telemetry::counter(names::SERVE_REQUESTS).inc();
    let ctx = TraceCtx::mint(req.header("x-qpinn-trace"));
    let mut meta = ReqMeta::default();
    let (route_key, mut response) = route(&req, shared, &ctx, &mut meta);
    if ctx.on {
        response = response.header("x-qpinn-trace", ctx.id.clone());
    }
    if response.status.starts_with('5') {
        qpinn_telemetry::counter(names::SERVE_ERRORS).inc();
    }
    let status = status_code(response.status);
    let out = response.write_to(&mut stream);
    let end_ns = now_ns();
    let total_ns = end_ns.saturating_sub(start_ns);
    // Serialization = everything after the forward pass finished
    // (scatter, JSON build, socket write); for routes that never
    // dispatched, everything after routing is lumped here too via the
    // total, and the stage is reported as the post-route remainder.
    let serialize_ns = if meta.compute_end_ns > 0 {
        end_ns.saturating_sub(meta.compute_end_ns)
    } else {
        0
    };
    qpinn_telemetry::histogram(names::SERVE_LATENCY_US)
        .record(t0.elapsed().as_micros() as u64);
    record_latency(&route_key, &meta, total_ns);
    if ctx.on {
        emit_request_spans(&ctx, &req.path, &meta, status, total_ns, serialize_ns, end_ns);
        access::record(AccessRecord {
            trace: ctx.id,
            ts_ns: end_ns,
            route: req.path.clone(),
            model: meta.model,
            status,
            shed: meta.shed.to_string(),
            batch: meta.batch,
            points: meta.points,
            queue_ns: meta.queue_ns,
            batch_ns: meta.batch_ns,
            compute_ns: meta.compute_ns,
            serialize_ns,
            total_ns,
        });
    }
    out
}

/// Answer a request whose head [`read_request`] refused (`413` for an
/// oversize body, `400` for malformed framing) and record it the way an
/// accept-queue shed is recorded: a fresh trace id and no route. A failed
/// socket gets no answer.
fn refuse(mut stream: TcpStream, e: ReadError, start_ns: u64) -> std::io::Result<()> {
    let Some(status) = e.status() else {
        return Err(e.into());
    };
    let ctx = TraceCtx::mint(None);
    let mut resp = err_json(status, &e.to_string());
    if ctx.on {
        resp = resp.header("x-qpinn-trace", ctx.id.clone());
    }
    let out = resp.write_to(&mut stream);
    if ctx.on {
        let end_ns = now_ns();
        access::record(AccessRecord {
            trace: ctx.id,
            ts_ns: end_ns,
            status: status_code(status),
            total_ns: end_ns.saturating_sub(start_ns),
            ..AccessRecord::default()
        });
    }
    out
}

/// Numeric status from a `"200 OK"`-style status line.
fn status_code(status: &str) -> u16 {
    status
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Feed the `serve.latency.*` histograms: base + per-route total, and
/// the batcher stages (+ per-model) when the request was dispatched.
/// `rk` is the key of the route that answered (see [`route`]), never the
/// raw path.
fn record_latency(rk: &str, meta: &ReqMeta, total_ns: u64) {
    use qpinn_telemetry::histogram;
    histogram(names::SERVE_LAT_TOTAL_NS).record(total_ns);
    histogram(&format!("{}.by_route.{rk}", names::SERVE_LAT_TOTAL_NS)).record(total_ns);
    if meta.compute_end_ns > 0 {
        histogram(names::SERVE_LAT_QUEUE_NS).record(meta.queue_ns);
        histogram(names::SERVE_LAT_BATCH_NS).record(meta.batch_ns);
        histogram(names::SERVE_LAT_COMPUTE_NS).record(meta.compute_ns);
        if !meta.model_key.is_empty() {
            for (base, v) in [
                (names::SERVE_LAT_QUEUE_NS, meta.queue_ns),
                (names::SERVE_LAT_BATCH_NS, meta.batch_ns),
                (names::SERVE_LAT_COMPUTE_NS, meta.compute_ns),
                (names::SERVE_LAT_TOTAL_NS, total_ns),
            ] {
                histogram(&format!("{base}.by_model.{}", meta.model_key)).record(v);
            }
        }
    }
}

/// Emit the per-request span events a Chrome/Perfetto timeline renders
/// as one track per trace id: a `request` root plus its stages, each
/// stamped with a reconstructed end timestamp so they tile in order.
fn emit_request_spans(
    ctx: &TraceCtx,
    path: &str,
    meta: &ReqMeta,
    status: u16,
    total_ns: u64,
    serialize_ns: u64,
    end_ns: u64,
) {
    if !qpinn_telemetry::enabled() {
        return;
    }
    let mut root = Event::new(Kind::Span, "request")
        .field("path", "request")
        .field("dur_ns", total_ns)
        .field("trace", ctx.id.clone())
        .field("route", path.to_string())
        .field("status", status as u64);
    if !meta.model.is_empty() {
        root = root.field("model", meta.model.clone());
    }
    root.ts_ns = end_ns;
    qpinn_telemetry::emit(root);
    if meta.compute_end_ns > 0 {
        let drain_ns = meta.compute_end_ns.saturating_sub(meta.compute_ns);
        let stages = [
            ("request_queue", "request/queue", meta.queue_ns, drain_ns.saturating_sub(meta.batch_ns)),
            ("request_batch", "request/batch", meta.batch_ns, drain_ns),
            ("request_compute", "request/compute", meta.compute_ns, meta.compute_end_ns),
            ("request_serialize", "request/serialize", serialize_ns, end_ns),
        ];
        for (name, span_path, dur, ts) in stages {
            let mut e = Event::new(Kind::Span, name)
                .field("path", span_path)
                .field("dur_ns", dur)
                .field("trace", ctx.id.clone());
            e.ts_ns = ts;
            qpinn_telemetry::emit(e);
        }
    }
}

fn err_json(status: &'static str, msg: &str) -> Response {
    Response::json_status(
        status,
        Json::obj(vec![("error", Json::Str(msg.to_string()))]).to_string(),
    )
}

/// Answer a request, and name the route that answered it for the
/// `by_route` latency histograms. A fixed-path route is named after its
/// path (`/v1/eval` → `v1_eval`); the job-progress and run routes, whose
/// paths carry an id, and all unmatched requests get one name each, so
/// callers cannot grow the set of histograms by varying the path.
fn route(req: &Request, shared: &Shared, ctx: &TraceCtx, meta: &mut ReqMeta) -> (String, Response) {
    let path = req.path.as_str();
    // The read-only observability routes are shared verbatim with the
    // qpinn-obs metrics endpoint.
    if let Some(r) = metrics_routes(&req.method, path, shared.started) {
        return (names::route_key(path), r);
    }
    if let Some(r) = qpinn_obs::server::runs_routes(&req.method, path, &shared.runs_dir) {
        let key = if path == "/v1/runs" {
            "v1_runs"
        } else {
            "v1_runs_id"
        };
        return (key.to_string(), r);
    }
    let (key, response) = match (req.method.as_str(), path) {
        ("GET", "/v1/models") => ("v1_models", models_route(shared)),
        ("GET", "/v1/problems") => ("v1_problems", problems_route()),
        ("POST", "/v1/eval") => ("v1_eval", eval_route(req, shared, ctx, meta)),
        ("POST", "/v1/train") => ("v1_train", train_route(req, shared, ctx)),
        ("POST", "/v1/evict") => ("v1_evict", evict_route(req, shared)),
        ("GET", "/v1/traces") => ("v1_traces", traces_route(req)),
        ("GET", _) if path.starts_with("/v1/jobs/") => {
            ("v1_jobs_id_progress", jobs_route(path, shared))
        }
        ("POST", _) | ("GET", _) => ("unmatched", err_json("404 Not Found", "no such route")),
        _ => (
            "unmatched",
            err_json("405 Method Not Allowed", "method not allowed"),
        ),
    };
    (key.to_string(), response)
}

/// `GET /v1/traces?n=K&route=PATH`: the last K (default 64) access
/// records from the ring, oldest first — sheds and errors included.
/// `route=` keeps only records whose route key matches exactly (e.g.
/// `route=/v1/eval`; accept-queue sheds have an empty route), applied
/// before the last-K cut so K filtered records come back.
fn traces_route(req: &Request) -> Response {
    let param = |key: &str| -> Option<String> {
        req.query
            .as_deref()
            .into_iter()
            .flat_map(|q| q.split('&'))
            .find_map(|kv| kv.strip_prefix(key))
            .map(str::to_string)
    };
    let n = param("n=")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64)
        .min(4096);
    let records = match param("route=") {
        Some(route) => {
            let mut all = access::last(4096);
            all.retain(|r| r.route == route);
            if all.len() > n {
                all.drain(..all.len() - n);
            }
            all
        }
        None => access::last(n),
    };
    Response::json(access::render_traces(&records, access::enabled()))
}

fn models_route(shared: &Shared) -> Response {
    let rows: Vec<Json> = shared
        .registry
        .list()
        .into_iter()
        .map(|m| {
            Json::obj(vec![
                ("id", Json::Str(m.id)),
                ("version", Json::Num(m.version as f64)),
                ("bytes", Json::Num(m.bytes as f64)),
                ("intact", Json::Bool(m.intact)),
                (
                    "eval_error",
                    m.eval_error.map(Json::Num).unwrap_or(Json::Null),
                ),
                ("loaded", Json::Bool(m.loaded)),
                (
                    "problem",
                    m.problem.map(Json::Str).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    Response::json(Json::obj(vec![("models", Json::Arr(rows))]).to_string())
}

/// `GET /v1/problems`: the `qpinn-problems-v1` catalog — every
/// registered PDE family (trainable via `POST /v1/train` with
/// `"problem": "<key>"`) and every circuit template. Built once and
/// cached: the registry is compile-time data.
fn problems_route() -> Response {
    static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    Response::json(DOC.get_or_init(|| qpinn_core::problems_doc().to_string()).clone())
}

/// A thread the request needed (a model's dispatcher, a train job) could
/// not be spawned: refuse this request and keep the connection worker.
fn spawn_failed(e: std::io::Error) -> Response {
    err_json(
        "503 Service Unavailable",
        &format!("cannot start a thread: {e}"),
    )
}

fn registry_error_response(e: RegistryError) -> Response {
    match e {
        RegistryError::NotFound(m) => err_json("404 Not Found", &m),
        RegistryError::BadReference(m) => err_json("400 Bad Request", &m),
        RegistryError::Unserveable(m) => err_json("503 Service Unavailable", &m),
        RegistryError::Storage(m) => err_json("500 Internal Server Error", &m),
    }
}

/// Emit the span event of a stage that runs before a request is queued
/// (`request_parse`, `request_resolve`), ending now, under the request's
/// trace id.
fn emit_stage(ctx: &TraceCtx, name: &str, path: &str, dur_ns: u64, ok: bool) {
    if ctx.on && qpinn_telemetry::enabled() {
        let mut e = Event::new(Kind::Span, name)
            .field("path", path)
            .field("dur_ns", dur_ns)
            .field("trace", ctx.id.clone())
            .field("ok", ok);
        e.ts_ns = now_ns();
        qpinn_telemetry::emit(e);
    }
}

/// Fetch (or lazily spawn) the batcher for a resolved model version.
/// With tracing on, registry resolution gets its own span event tied
/// to the request's trace id (cache hits and cold loads both).
fn batcher_for(
    shared: &Shared,
    model_ref: &str,
    ctx: &TraceCtx,
) -> Result<Arc<Batcher>, Response> {
    let resolve_start = now_ns();
    let resolved = shared.registry.resolve(model_ref);
    let resolve_ns = now_ns().saturating_sub(resolve_start);
    emit_stage(ctx, "request_resolve", "request/resolve", resolve_ns, resolved.is_ok());
    let model = resolved.map_err(registry_error_response)?;
    let key = (model.id.clone(), model.version);
    let mut map = shared.batchers.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(b) = map.get(&key) {
        return Ok(b.clone());
    }
    let (b, join) = Batcher::spawn(model, shared.batch_cfg.clone()).map_err(spawn_failed)?;
    shared
        .batcher_joins
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(join);
    map.insert(key, b.clone());
    Ok(b)
}

/// `POST /v1/eval`. The `request_parse` stage runs from the body to the
/// coordinate buffer: the body is checked before the model resolves and
/// its rows after, against the model's arity, so the stage's duration is
/// the two halves without the resolution between them.
fn eval_route(req: &Request, shared: &Shared, ctx: &TraceCtx, meta: &mut ReqMeta) -> Response {
    let parse_start = now_ns();
    let body = req
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(s).map_err(|e| format!("invalid JSON body: {e}")));
    let fields = body.as_ref().map_err(String::as_str).and_then(|body| {
        let model_ref = body
            .get("model")
            .and_then(|v| v.as_str())
            .ok_or("missing string field `model`")?;
        match body.get("points") {
            Some(Json::Arr(rows)) if !rows.is_empty() => Ok((model_ref, rows)),
            _ => Err("field `points` must be a non-empty array"),
        }
    });
    let head_ns = now_ns().saturating_sub(parse_start);
    let (model_ref, points) = match fields {
        Ok(f) => f,
        Err(msg) => {
            emit_stage(ctx, "request_parse", "request/parse", head_ns, false);
            return err_json("400 Bad Request", msg);
        }
    };
    let batcher = match batcher_for(shared, model_ref, ctx) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    meta.model = batcher.model().qualified_name();
    meta.model_key = names::model_key(&batcher.model().id, batcher.model().version);
    meta.points = points.len() as u64;
    let arity = batcher.model().net.n_coords();
    let n_fields = batcher.model().net.n_fields();
    let rows_start = now_ns();
    let mut coords = Vec::with_capacity(points.len() * arity);
    let bad_row = points.iter().position(|row| match row {
        Json::Arr(xs) if xs.len() == arity => {
            !xs.iter().all(|x| x.as_num().map(|v| coords.push(v)).is_some())
        }
        _ => true,
    });
    let parse_ns = head_ns + now_ns().saturating_sub(rows_start);
    emit_stage(ctx, "request_parse", "request/parse", parse_ns, bad_row.is_none());
    if let Some(i) = bad_row {
        return err_json(
            "400 Bad Request",
            &format!("points[{i}] must be an array of {arity} numbers"),
        );
    }
    match batcher.eval_traced(coords, ctx) {
        Ok(out) => {
            meta.queue_ns = out.timing.queue_ns;
            meta.batch_ns = out.timing.batch_ns;
            meta.compute_ns = out.timing.compute_ns;
            meta.compute_end_ns = out.timing.compute_end_ns;
            meta.batch = out.timing.batch_size;
            let model = batcher.model();
            Response::json(eval_body(&model.id, model.version, n_fields, &out.rows))
        }
        Err(SubmitError::QueueFull) => {
            meta.shed = "queue_full";
            err_json("429 Too Many Requests", "eval queue full, retry later")
                .header("Retry-After", "1")
        }
        Err(SubmitError::BadShape { expected_arity }) => err_json(
            "400 Bad Request",
            &format!("coordinates must come in rows of {expected_arity}"),
        ),
        Err(SubmitError::Closed) => {
            err_json("503 Service Unavailable", "evaluation failed or shutting down")
        }
    }
}

/// The eval response body: byte for byte the `Json` object
/// `{"model","version","n_fields","values"}` prints, with the output rows
/// written straight into the text instead of through a tree.
fn eval_body(id: &str, version: u64, n_fields: usize, rows: &[f64]) -> String {
    let mut out = String::with_capacity(64 + id.len() + 24 * rows.len());
    out.push_str("{\"model\":");
    write_json_str(&mut out, id);
    out.push_str(",\"version\":");
    write_json_num(&mut out, version as f64);
    out.push_str(",\"n_fields\":");
    write_json_num(&mut out, n_fields as f64);
    out.push_str(",\"values\":[");
    for (i, row) in rows.chunks(n_fields).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &x) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_num(&mut out, x);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

fn train_route(req: &Request, shared: &Shared, ctx: &TraceCtx) -> Response {
    let parsed = req
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(s).map_err(|e| format!("invalid JSON body: {e}")))
        .and_then(|j| TrainRequest::from_json(&j));
    match parsed {
        Ok(train) => {
            let model_id = train.model_id.clone();
            let job_id = match shared.jobs.submit(train, ctx) {
                Ok(id) => id,
                Err(e) => return spawn_failed(e),
            };
            Response::json_status(
                "202 Accepted",
                Json::obj(vec![
                    ("job_id", Json::Str(job_id.clone())),
                    ("model_id", Json::Str(model_id)),
                    (
                        "progress_url",
                        Json::Str(format!("/v1/jobs/{job_id}/progress")),
                    ),
                ])
                .to_string(),
            )
        }
        Err(msg) => err_json("400 Bad Request", &msg),
    }
}

fn jobs_route(path: &str, shared: &Shared) -> Response {
    // Path shape: /v1/jobs/<id>/progress
    let rest = &path["/v1/jobs/".len()..];
    let Some(job_id) = rest.strip_suffix("/progress") else {
        return err_json("404 Not Found", "try /v1/jobs/<id>/progress");
    };
    match shared.jobs.progress_json(job_id) {
        // A failed job (training error or registry publish failure, e.g.
        // disk full) serves its progress document under 503 so pollers
        // and load balancers both see the degradation.
        Some((doc, failed)) => Response::json_status(
            if failed {
                "503 Service Unavailable"
            } else {
                "200 OK"
            },
            doc.to_string(),
        ),
        None => err_json("404 Not Found", &format!("no job `{job_id}`")),
    }
}

fn evict_route(req: &Request, shared: &Shared) -> Response {
    let model_ref = req
        .body_str()
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .and_then(|j| j.get("model").and_then(|v| v.as_str()).map(str::to_string));
    let Some(model_ref) = model_ref else {
        return err_json("400 Bad Request", "body must be {\"model\":\"id[@version]\"}");
    };
    match shared.registry.evict(&model_ref) {
        Ok(was_loaded) => Response::json(
            Json::obj(vec![
                ("model", Json::Str(model_ref)),
                ("evicted", Json::Bool(was_loaded)),
            ])
            .to_string(),
        ),
        Err(e) => registry_error_response(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_body_prints_what_the_json_tree_prints() {
        let rows = [
            0.1, -0.0, 1e300, -2.5e-308, 5e-324, f64::MAX, f64::NAN, 3.0, f64::INFINITY, -1.0,
        ];
        for (id, n_fields) in [("nls-soliton", 2), ("a\"b\\c\u{1}é", 5), ("m", 1)] {
            let tree = Json::obj(vec![
                ("model", Json::Str(id.to_string())),
                ("version", Json::Num(7.0)),
                ("n_fields", Json::Num(n_fields as f64)),
                ("values", Json::Arr(rows.chunks(n_fields).map(Json::nums).collect())),
            ]);
            assert_eq!(eval_body(id, 7, n_fields, &rows), tree.to_string());
        }
    }
}
