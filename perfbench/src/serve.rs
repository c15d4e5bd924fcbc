//! The `serve-eval` workload: an in-process `ServeServer` with the
//! default configuration serving two published surrogates to open-loop
//! traffic from this process.
//!
//! Traffic: requests of 16, 256 and 1024 in-domain points mixed 60/30/10,
//! split evenly across the `nls-soliton` and `gray-scott` surrogates.
//! Every 200 response must equal in-process `FieldNet::predict_batch` on
//! the same spec and parameters bit for bit; anything else counts as a
//! failed request.

use crate::loadgen::{open_loop, poisson_schedule, Sample};
use crate::stats;
use crate::{Outcome, Report};
use qpinn_core::report::Json;
use qpinn_core::task::net_config_for;
use qpinn_core::{FieldNet, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_persist::TrainLogRecord;
use qpinn_problems::lookup;
use qpinn_serve::{ModelSpec, ServeConfig, ServeServer};
use qpinn_telemetry::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The served surrogates, published at the `ZooTaskConfig::standard()`
/// architecture.
const MODELS: [&str; 2] = ["nls-soliton", "gray-scott"];
/// Construction seed of the published parameters: inference cost does
/// not depend on the weight values.
const CONSTRUCTION_SEED: u64 = 100;
/// Request sizes in points and how many of each make a block of ten.
const SIZES: [(usize, usize); 3] = [(16, 6), (256, 3), (1024, 1)];
/// Sender threads, and so connections in flight (= nproc of the 2-CPU
/// reference host).
const SENDERS: usize = 2;
/// Offered rate at which latency is reported, requests/s.
const NOMINAL_RPS: f64 = 120.0;
/// Requests timed at the nominal rate.
const NOMINAL_REQUESTS: usize = 1500;
/// Offered rates of the capacity ladder, requests/s.
const LADDER: [f64; 4] = [150.0, 250.0, 350.0, 450.0];
const LADDER_NAMES: [&str; 4] = [
    "serve.eval_ms_p99.r150",
    "serve.eval_ms_p99.r250",
    "serve.eval_ms_p99.r350",
    "serve.eval_ms_p99.r450",
];
/// Seconds each ladder rate is offered.
const LADDER_S: f64 = 1.0;
/// Tail latency a ladder rate must meet, ms.
const TAIL_LIMIT_MS: f64 = 50.0;
/// Requests of the closed-loop burst whose throughput is `ops_per_s`.
const BURST_REQUESTS: usize = 1000;
/// Measurement windows the nominal stream is cut into: few, so that each
/// window's median rests on hundreds of requests.
const NOMINAL_WINDOWS: usize = 3;
/// Measurement windows the closed-loop burst is cut into.
const BURST_WINDOWS: usize = 10;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Served {
    key: &'static str,
    net: FieldNet,
    params: ParamSet,
    ranges: Vec<(f64, f64)>,
}

struct Request {
    model: usize,
    points: usize,
    coords: Vec<f64>,
    body: Vec<u8>,
}

struct Live {
    server: ServeServer,
    addr: SocketAddr,
    dir: PathBuf,
}

/// Publish the surrogates into a fresh models dir, start the server,
/// resolve each model cold, and send one warm-up request per model.
fn set_up(
    dir: &Path,
    ring: Option<usize>,
    rep: &mut Report,
) -> std::io::Result<(Live, Vec<Served>)> {
    std::fs::create_dir_all(dir)?;
    let mut cfg = ServeConfig::new(dir);
    if let Some(ring) = ring {
        cfg.trace.ring = ring;
    }
    let server = ServeServer::start("127.0.0.1:0", cfg)?;
    let addr = server.local_addr();
    let registry = server.registry();
    let mut served = Vec::new();
    let mut publish_ms = Vec::new();
    let mut resolve_ms = Vec::new();
    for key in MODELS {
        let problem = lookup(key).expect("served problems are registered");
        let net_cfg = net_config_for(problem.as_ref(), &ZooTaskConfig::standard());
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(CONSTRUCTION_SEED);
        FieldNet::new(&mut params, &mut rng, &net_cfg, key);
        let spec = ModelSpec {
            name: key.to_string(),
            seed: CONSTRUCTION_SEED,
            net: net_cfg,
            problem: key.to_string(),
        };
        let t = Instant::now();
        registry
            .publish(key, &spec, &params, TrainLogRecord::default(), 0, 0.0)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        registry
            .resolve(key)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        resolve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The in-process reference is rebuilt from the spec, independently
        // of the registry's copy.
        let net = spec
            .rebuild(&params)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let ranges = problem.coords().iter().map(|c| (c.lo, c.hi)).collect();
        served.push(Served {
            key,
            net,
            params,
            ranges,
        });
    }
    let mut rng = StdRng::seed_from_u64(0);
    for m in 0..served.len() {
        let req = make_request(&served, m, 16, &mut rng);
        let (status, body) = post_eval(addr, &req.body, None)?;
        if status != 200 || !matches(&served[m], &req, &body) {
            return Err(std::io::Error::other(format!(
                "warm-up request to {} failed with status {status}",
                served[m].key
            )));
        }
    }
    rep.put(
        "serve.publish_ms",
        stats::median(&publish_ms).unwrap_or(f64::NAN),
        "ms",
        publish_ms.len(),
    );
    rep.put(
        "serve.resolve_cold_ms",
        stats::median(&resolve_ms).unwrap_or(f64::NAN),
        "ms",
        resolve_ms.len(),
    );
    Ok((
        Live {
            server,
            addr,
            dir: dir.to_path_buf(),
        },
        served,
    ))
}

fn tear_down(live: Live) {
    live.server.stop();
    let _ = std::fs::remove_dir_all(&live.dir);
}

fn make_request(served: &[Served], model: usize, points: usize, rng: &mut StdRng) -> Request {
    let m = &served[model];
    let coords: Vec<f64> = (0..points)
        .flat_map(|_| {
            m.ranges
                .iter()
                .map(|&(lo, hi)| lo + (hi - lo) * rng.gen_range(0.0..1.0))
                .collect::<Vec<_>>()
        })
        .collect();
    let k = m.ranges.len();
    let body = Json::obj(vec![
        ("model", Json::Str(m.key.to_string())),
        (
            "points",
            Json::Arr(coords.chunks(k).map(Json::nums).collect()),
        ),
    ])
    .to_string()
    .into_bytes();
    Request {
        model,
        points,
        coords,
        body,
    }
}

/// Draw `n` requests of the traffic mix from `rng`. Sizes come in blocks
/// of ten, six 16-point, three 256-point and one 1024-point request in a
/// seeded order, so every measurement window carries the same mix; the
/// model is a fair coin per request.
fn traffic(served: &[Served], n: usize, rng: &mut StdRng) -> Vec<Request> {
    let mut block: Vec<usize> = Vec::new();
    (0..n)
        .map(|_| {
            if block.is_empty() {
                block = SIZES
                    .iter()
                    .flat_map(|&(points, count)| std::iter::repeat_n(points, count))
                    .collect();
            }
            let points = block.swap_remove(rng.gen_range(0..block.len()));
            let model = usize::from(rng.gen_range(0.0..1.0) >= 0.5);
            make_request(served, model, points, rng)
        })
        .collect()
}

/// One `POST /v1/eval` on a fresh connection: `(status, body)`.
fn post_eval(
    addr: SocketAddr,
    body: &[u8],
    trace: Option<&str>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!(
        "POST /v1/eval HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(t) = trace {
        head.push_str(&format!("x-qpinn-trace: {t}\r\n"));
    }
    head.push_str("\r\n");
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp)?;
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header terminator"))?;
    let status = std::str::from_utf8(&resp[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status code"))?;
    Ok((status, resp[split + 4..].to_vec()))
}

/// Whether a 200 body carries exactly the in-process prediction.
fn matches(m: &Served, req: &Request, body: &[u8]) -> bool {
    let want = m.net.predict_batch(&m.params, &req.coords);
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(doc) = Json::parse(text) else {
        return false;
    };
    let Some(Json::Arr(rows)) = doc.get("values") else {
        return false;
    };
    let got: Option<Vec<f64>> = rows
        .iter()
        .flat_map(|r| match r {
            Json::Arr(xs) => xs.iter().map(Json::as_num).collect::<Vec<_>>(),
            _ => vec![None],
        })
        .collect();
    rows.len() == req.points
        && got.is_some_and(|g| crate::check::first_bit_mismatch(want.data(), &g).is_none())
}

/// The result of offering one request stream.
struct Phase {
    samples: Vec<Sample>,
    /// Client-side send → response time per request, ms.
    client_ms: Vec<f64>,
    failed: u64,
}

impl Phase {
    /// Latency from the due time; failures count as missing any limit.
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| if s.ok { s.latency_ms() } else { f64::INFINITY })
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::late_ms).collect()
    }
}

/// Offer `reqs` on `due` and verify every response afterwards.
fn offer(
    live: &Live,
    served: &[Served],
    reqs: &[Request],
    due: &[f64],
    trace_base: Option<u64>,
) -> Phase {
    // Per request: status, body and client send-to-response time, ms.
    type Slot = std::sync::Mutex<Option<(u16, Vec<u8>, f64)>>;
    let bodies: Vec<Slot> = (0..reqs.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let samples = open_loop(due, SENDERS, |i| {
        let id = trace_base.map(|b| format!("{:016x}", b.wrapping_add(i as u64)));
        let t = Instant::now();
        let res = post_eval(live.addr, &reqs[i].body, id.as_deref());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok((status, body)) => {
                let ok = status == 200;
                *bodies[i].lock().expect("one sender per slot") = Some((status, body, ms));
                ok
            }
            Err(_) => false,
        }
    });
    let mut samples = samples;
    let mut failed = 0;
    let mut client_ms = vec![f64::NAN; reqs.len()];
    for (s, (req, slot)) in samples.iter_mut().zip(reqs.iter().zip(bodies)) {
        let got = slot.into_inner().expect("senders have joined");
        let ok = match got {
            Some((200, body, ms)) => {
                client_ms[s.idx] = ms;
                matches(&served[req.model], req, &body)
            }
            _ => false,
        };
        s.ok = s.ok && ok;
        if !s.ok {
            failed += 1;
        }
    }
    Phase {
        samples,
        client_ms,
        failed,
    }
}

/// Highest offered rate whose tail latency meets the limit with no
/// failures and no growing backlog, interpolated linearly in tail latency
/// between the last passing and the first failing ladder rate.
pub fn max_rate(ladder: &[(f64, f64, bool)], limit: f64) -> f64 {
    let cap = 4.0 * limit;
    let mut prev: Option<(f64, f64)> = None;
    for &(rate, tail, clean) in ladder {
        let tail = if clean { tail.min(cap) } else { cap };
        if tail > limit {
            return match prev {
                Some((r0, t0)) => r0 + (rate - r0) * (limit - t0) / (tail - t0),
                // Even the lowest rate misses: scale it by the miss.
                None => rate * limit / tail,
            };
        }
        prev = Some((rate, tail));
    }
    // Every rate met the limit: the ladder's top is a lower bound.
    ladder.last().map_or(0.0, |&(r, _, _)| r)
}

/// Whether the generator kept up: the last quarter of the requests went
/// out no later, at p90, than the tail-latency limit.
fn backlog_bounded(p: &Phase) -> bool {
    let late = p.late_ms();
    let q = &late[late.len() * 3 / 4..];
    stats::percentile(q, 90.0).is_some_and(|v| v <= TAIL_LIMIT_MS)
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(f64::NAN)
}

fn counter(name: &str) -> u64 {
    qpinn_telemetry::counter(name).get()
}

pub fn run(seed: u64, trace: bool, t_start: Instant) -> Outcome {
    let parent = std::env::current_dir()
        .expect("the working directory is readable")
        .join(".perfbench-run");
    let root = parent.join(format!("serve-{}", std::process::id()));
    let out = run_in(&root, seed, trace, t_start);
    let _ = std::fs::remove_dir_all(&root);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(&parent);
    out
}

fn run_in(root: &Path, seed: u64, trace: bool, t_start: Instant) -> Outcome {
    let mut rep = Report::default();
    // Room for every request of the run in the traced run's access ring.
    let ring = trace.then_some(1 << 15);
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = if i == 0 { t_start } else { Instant::now() };
        match set_up(&root.join(format!("models-{i}")), ring, &mut rep) {
            Ok(live) => {
                setups.push(t.elapsed().as_secs_f64());
                if let Some((old, _)) = kept.replace(live) {
                    tear_down(old);
                }
            }
            Err(e) => {
                rep.note(format!("set-up failed: {e}"));
                return Outcome {
                    report: rep,
                    correct: false,
                    attempted: 1,
                    failed: 1,
                };
            }
        }
    }
    let (live, served) = kept.expect("at least one set-up ran");
    let shed0 = counter(names::SERVE_SHED);
    let err0 = counter(names::SERVE_ERRORS);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let nominal_reqs = traffic(&served, NOMINAL_REQUESTS, &mut rng);
    let nominal_due = poisson_schedule(NOMINAL_REQUESTS, NOMINAL_RPS, &mut rng);
    let flush0 = counter(names::SERVE_BATCH_FLUSHES);
    let pool0 = qpinn_tensor::pool::stats();
    let nominal = offer(&live, &served, &nominal_reqs, &nominal_due, None);
    let pool1 = qpinn_tensor::pool::stats();
    let flushes = counter(names::SERVE_BATCH_FLUSHES) - flush0;
    attempted += nominal_reqs.len() as u64;
    failed += nominal.failed;
    let lat = nominal.latencies_ms();
    let nominal_p50 = median(&lat);

    if trace {
        let base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let traced = offer(&live, &served, &nominal_reqs, &nominal_due, Some(base));
        attempted += nominal_reqs.len() as u64;
        failed += traced.failed;
        report_traced(&nominal_reqs, &nominal, &traced, base, flushes, &mut rep);
        let n = nominal_reqs.len() as f64;
        let allocated = (pool1.allocated - pool0.allocated) as f64;
        let reused = (pool1.reused - pool0.reused) as f64;
        rep.put(
            "tensor.pool.alloc_per_epoch",
            allocated / n,
            "count",
            nominal_reqs.len(),
        );
        rep.put(
            "tensor.pool.reuse_frac",
            reused / (reused + allocated).max(1.0),
            "ratio",
            nominal_reqs.len(),
        );
        rep.put(
            "bench.trace_overhead_pct",
            100.0 * (median(&traced.latencies_ms()) / nominal_p50 - 1.0),
            "%",
            nominal_reqs.len(),
        );
        let m = &served[0];
        crate::train::predict_probes(&m.net, &m.params, &m.ranges, seed, &mut rep);
    }

    // Closed loop: every request is due at once, so each sender sends its
    // next request as soon as the previous one is answered.
    let burst = traffic(&served, BURST_REQUESTS, &mut rng);
    let phase = offer(&live, &served, &burst, &vec![0.0; BURST_REQUESTS], None);
    attempted += BURST_REQUESTS as u64;
    failed += phase.failed;
    let best_rate = phase
        .samples
        .chunks(BURST_REQUESTS / BURST_WINDOWS)
        .map(|w| {
            let start = w.iter().map(|s| s.sent_s).fold(f64::INFINITY, f64::min);
            let end = w.iter().map(|s| s.done_s).fold(0.0, f64::max);
            w.len() as f64 / (end - start)
        })
        .fold(0.0, f64::max);

    // Capacity ladder: each rate is offered for a fixed span.
    let mut ladder = Vec::new();
    for (&rate, &name) in LADDER.iter().zip(&LADDER_NAMES) {
        let n = (rate * LADDER_S).round() as usize;
        let reqs = traffic(&served, n, &mut rng);
        let due = poisson_schedule(n, rate, &mut rng);
        let phase = offer(&live, &served, &reqs, &due, None);
        attempted += n as u64;
        failed += phase.failed;
        let tail = stats::tail(&phase.latencies_ms(), 99.0, &[95.0, 90.0])
            .map_or(f64::INFINITY, |t| t.value);
        let clean = phase.failed == 0 && backlog_bounded(&phase);
        rep.put(name, tail, "ms", n);
        ladder.push((rate, tail, clean));
    }
    let shed = counter(names::SERVE_SHED) - shed0;
    let errors = counter(names::SERVE_ERRORS) - err0;
    tear_down(live);

    let p90 = stats::tail(&lat, 90.0, &[]).expect("the nominal phase times at least 100 requests");
    let p99 = stats::tail(&lat, 99.0, &[]).expect("the nominal phase times at least 1000 requests");
    rep.put("setup_s", median(&setups), "s", setups.len());
    rep.put("peak_rss_mb", crate::train::peak_rss_mb(), "MB", 1);
    // Each window of the nominal stream is one measurement; the host's
    // speed changes from window to window, so the figure is the fastest.
    let best_p50 = lat
        .chunks(NOMINAL_REQUESTS / NOMINAL_WINDOWS)
        .map(median)
        .fold(f64::INFINITY, f64::min);
    rep.put("op_ms_p50_best", best_p50, "ms", NOMINAL_WINDOWS);
    rep.put("ops_per_s_best", best_rate, "1/s", BURST_WINDOWS);
    rep.put("serve.eval_ms_p90", p90.value, "ms", p90.n);
    rep.put("serve.eval_ms_p50", nominal_p50, "ms", lat.len());
    rep.put("serve.eval_ms_p99", p99.value, "ms", p99.n);
    rep.put(
        "serve.eval_max_rps",
        max_rate(&ladder, TAIL_LIMIT_MS),
        "1/s",
        ladder.len(),
    );
    rep.put("serve.shed", shed as f64, "count", 1);
    rep.put("serve.errors", errors as f64, "count", 1);
    let late = nominal.late_ms();
    rep.put(
        "loadgen.late_ms_p99",
        stats::percentile(&late, 99.0).unwrap_or(f64::NAN),
        "ms",
        late.len(),
    );
    if failed > 0 {
        rep.note(format!(
            "{failed} of {attempted} requests failed or did not match predict_batch"
        ));
    }
    Outcome {
        report: rep,
        correct: failed == 0,
        attempted,
        failed,
    }
}

/// Per-layer serve figures: the server's access records joined to the
/// client's requests by trace id, and client latency per size class.
fn report_traced(
    reqs: &[Request],
    untraced: &Phase,
    traced: &Phase,
    base: u64,
    flushes: u64,
    rep: &mut Report,
) {
    let records = qpinn_telemetry::access::last(1 << 15);
    let by_id: std::collections::HashMap<&str, &qpinn_telemetry::AccessRecord> =
        records.iter().map(|r| (r.trace.as_str(), r)).collect();
    let (mut queue, mut batch, mut compute, mut ser, mut http) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in traced.samples.iter().filter(|s| s.ok) {
        let id = format!("{:016x}", base.wrapping_add(s.idx as u64));
        if let Some(r) = by_id.get(id.as_str()) {
            queue.push(r.queue_ns as f64 / 1e6);
            batch.push(r.batch_ns as f64 / 1e6);
            compute.push(r.compute_ns as f64 / 1e6);
            ser.push(r.serialize_ns as f64 / 1e6);
            http.push(traced.client_ms[s.idx] - r.total_ns as f64 / 1e6);
        }
    }
    let n = queue.len();
    rep.put("serve.queue_ms_p50", median(&queue), "ms", n);
    rep.put(
        "serve.queue_ms_p99",
        stats::percentile(&queue, 99.0).unwrap_or(f64::NAN),
        "ms",
        n,
    );
    rep.put("serve.batch_ms_p50", median(&batch), "ms", n);
    rep.put("serve.compute_ms_p50", median(&compute), "ms", n);
    rep.put("serve.serialize_ms_p50", median(&ser), "ms", n);
    rep.put("serve.http_ms_p50", median(&http), "ms", n);
    let ok = untraced.samples.iter().filter(|s| s.ok).count();
    rep.put(
        "serve.batch_size_mean",
        ok as f64 / flushes.max(1) as f64,
        "count",
        flushes as usize,
    );
    for (size, name) in [
        (16, "serve.eval_ms_p50.n16"),
        (256, "serve.eval_ms_p50.n256"),
        (1024, "serve.eval_ms_p50.n1024"),
    ] {
        let xs: Vec<f64> = untraced
            .samples
            .iter()
            .filter(|s| reqs[s.idx].points == size)
            .map(|s| if s.ok { s.latency_ms() } else { f64::INFINITY })
            .collect();
        rep.put(name, median(&xs), "ms", xs.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_between_ladder_rates() {
        let limit = 100.0;
        // Passes at 120 (tail 60), misses at 180 (tail 140): the crossing
        // lies halfway.
        let ladder = [
            (60.0, 20.0, true),
            (120.0, 60.0, true),
            (180.0, 140.0, true),
        ];
        assert!((max_rate(&ladder, limit) - 150.0).abs() < 1e-9);
        // A backlog or a failure at a rate counts as a miss at the cap.
        let ladder = [(60.0, 20.0, true), (120.0, 60.0, false)];
        let r = max_rate(&ladder, limit);
        assert!((r - (60.0 + 60.0 * 80.0 / 380.0)).abs() < 1e-9);
        // All rates pass: the top rate is reported.
        assert_eq!(
            max_rate(&[(60.0, 20.0, true), (120.0, 30.0, true)], limit),
            120.0
        );
        // Even the lowest rate misses.
        assert_eq!(max_rate(&[(60.0, 200.0, true)], limit), 30.0);
    }
}
