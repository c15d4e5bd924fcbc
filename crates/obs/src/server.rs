//! The embedded metrics/health HTTP endpoint.
//!
//! A deliberately tiny HTTP/1.1 server on `std::net::TcpListener` — no
//! framework, no async runtime, no dependencies — because the four
//! routes it serves are all small, read-only GETs:
//!
//! | route           | body                                              |
//! |-----------------|---------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the live registry   |
//! | `/metrics.json` | `qpinn-metrics-v1` snapshot JSON                  |
//! | `/progress`     | the trainer's `train.progress.*` gauges           |
//! | `/healthz`      | `{"status":"ok",...}` liveness probe              |
//! | `/v1/runs`      | `qpinn-run-v1` run-record index (see [`runs_routes`]) |
//! | `/v1/runs/<id>` | one run's manifest + epoch series                 |
//!
//! One accept thread handles connections sequentially; every response
//! closes the connection. That is the right shape for a scrape endpoint
//! (Prometheus polls every few seconds) and keeps the server at zero
//! cost to the training threads — request handling only ever *reads*
//! atomic metric values.
//!
//! Every route reads the always-on metrics registry, so the server
//! installs no telemetry sink: starting it leaves the event layer as
//! dormant as it found it.

use crate::http::{read_request, Response};
use qpinn_telemetry as telemetry;
use qpinn_telemetry::event::{write_json_num, write_json_str};
use qpinn_telemetry::MetricsSnapshot;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running metrics endpoint; see the module docs.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9095"`; port 0 picks a free port)
    /// and start the accept thread. The server runs until
    /// [`MetricsServer::stop`] or process exit.
    pub fn start(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("qpinn-obs-http".into())
            .spawn(move || accept_loop(listener, &stop, started))?;
        Ok(MetricsServer {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shutdown: &AtomicBool, started: Instant) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // A stalled client must not wedge the endpoint.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = handle_connection(stream, started);
    }
}

/// Build the response for one (already parsed) metrics-endpoint request,
/// or `None` when the route is not one of the four read-only metrics
/// routes. Shared with `qpinn-serve`, which mounts the same routes on its
/// inference server; `started` anchors the `/healthz` uptime report.
pub fn metrics_routes(method: &str, path: &str, started: Instant) -> Option<Response> {
    if method != "GET" {
        return None;
    }
    Some(match path {
        "/metrics" => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
            body: telemetry::prometheus::render(&telemetry::global().snapshot(), "qpinn_", &[]),
        },
        "/metrics.json" => Response::json(telemetry::global().snapshot().to_json()),
        "/progress" => Response::json(progress_json(&telemetry::global().snapshot())),
        "/healthz" => Response::json(format!(
            "{{\"status\":\"ok\",\"uptime_s\":{:.3}}}",
            started.elapsed().as_secs_f64()
        )),
        _ => return None,
    })
}

/// The `/progress` document, read from the gauges the trainer publishes
/// at every log interval: `{"training":false}` until a
/// `train.progress.<key>` gauge exists, else `"training":true` followed
/// by each such gauge under `<key>`. Non-finite values print `null`.
fn progress_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"training\":true");
    let mut training = false;
    for (name, value) in &snapshot.gauges {
        if let Some(key) = name.strip_prefix("train.progress.") {
            training = true;
            out.push(',');
            write_json_str(&mut out, key);
            out.push(':');
            write_json_num(&mut out, *value);
        }
    }
    if !training {
        return "{\"training\":false}".to_string();
    }
    out.push('}');
    out
}

/// Build the response for a `qpinn-run-v1` store request, or `None`
/// when the path is not a runs route. Shared with `qpinn-serve`, which
/// mounts the same routes on its inference server against its
/// configured store directory.
///
/// | route           | body                                            |
/// |-----------------|-------------------------------------------------|
/// | `/v1/runs`      | `{"runs":[{run_id,task,seed,final_loss,...}]}`  |
/// | `/v1/runs/<id>` | `{"manifest":{...},"series":[...]}`             |
pub fn runs_routes(method: &str, path: &str, dir: &std::path::Path) -> Option<Response> {
    use qpinn_core::report::Json;
    if method != "GET" {
        return None;
    }
    if path == "/v1/runs" {
        let summaries = match qpinn_core::runs::list_runs(dir) {
            Ok(s) => s,
            Err(e) => {
                return Some(Response::json_status(
                    "500 Internal Server Error",
                    Json::obj(vec![("error", Json::Str(e.to_string()))]).to_string(),
                ))
            }
        };
        let rows = summaries
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("run_id", Json::Str(s.run_id.clone())),
                    ("task", Json::Str(s.task.clone())),
                    (
                        "seed",
                        s.seed.map(|v| Json::Num(v as f64)).unwrap_or(Json::Null),
                    ),
                    (
                        "final_loss",
                        s.final_loss.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("outcome", Json::Str(s.outcome.clone())),
                    ("start_unix_ms", Json::Num(s.start_unix_ms as f64)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![("runs", Json::Arr(rows))]);
        return Some(Response::json(doc.to_string()));
    }
    if let Some(id) = path.strip_prefix("/v1/runs/") {
        // Run ids are 16 hex digits; reject anything that could walk the
        // filesystem before it reaches a path join.
        if id.is_empty() || !id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            return Some(Response::json_status(
                "400 Bad Request",
                "{\"error\":\"invalid run id\"}",
            ));
        }
        return Some(match qpinn_core::runs::load_run(dir, id) {
            Ok(rec) => {
                let doc = Json::obj(vec![
                    ("manifest", rec.manifest.to_json()),
                    ("series", Json::Arr(rec.series)),
                ]);
                Response::json(doc.to_string())
            }
            Err(e) => Response::json_status(
                "404 Not Found",
                Json::obj(vec![("error", Json::Str(format!("run {id}: {e}")))]).to_string(),
            ),
        });
    }
    None
}

fn handle_connection(mut stream: TcpStream, started: Instant) -> std::io::Result<()> {
    let req = match read_request(&stream) {
        Ok(req) => req,
        Err(e) => {
            return match e.status() {
                Some(status) => Response::text(status, format!("{e}\n")).write_to(&mut stream),
                None => Err(e.into()),
            }
        }
    };
    let response = if req.method != "GET" {
        Response::text("405 Method Not Allowed", "method not allowed\n")
    } else {
        metrics_routes(&req.method, &req.path, started)
            .or_else(|| runs_routes(&req.method, &req.path, &qpinn_core::runs::default_dir()))
            .unwrap_or_else(|| {
                Response::text(
                    "404 Not Found",
                    "not found; try /metrics /metrics.json /progress /healthz /v1/runs\n",
                )
            })
    };
    response.write_to(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_core::report::Json;
    use std::io::{Read, Write};

    /// GET `path` against a live server over a real TCP socket.
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_over_tcp() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // Populate a counter so /metrics has content.
        telemetry::counter("obs.test.requests").add(3);

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        Json::parse(&body).unwrap();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(
            body.contains("qpinn_obs_test_requests_total 3"),
            "missing counter in:\n{body}"
        );

        let (_, body) = get(addr, "/metrics.json");
        let snap = Json::parse(&body).unwrap();
        assert_eq!(
            snap.get("schema").and_then(|s| s.as_str()),
            Some("qpinn-metrics-v1")
        );

        let (head, body) = get(addr, "/progress");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        Json::parse(&body).unwrap();

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn oversize_request_is_answered_413() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            s,
            "POST /metrics HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            crate::http::MAX_BODY_BYTES + 1
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 413 Payload Too Large\r\n"), "{buf}");
        server.stop();
    }

    #[test]
    fn progress_is_idle_without_progress_gauges() {
        let registry = telemetry::Registry::default();
        assert_eq!(progress_json(&registry.snapshot()), "{\"training\":false}");
        registry.gauge("train.loss.residual").set(0.5);
        assert_eq!(progress_json(&registry.snapshot()), "{\"training\":false}");
    }

    #[test]
    fn progress_endpoint_reads_the_progress_gauges() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        assert!(
            !telemetry::enabled(),
            "starting the server installed a sink"
        );
        for (key, value) in [
            ("epoch", 42.0),
            ("epochs_total", 100.0),
            ("loss", 0.5),
            ("grad_norm", f64::NAN),
            ("eta_s", 5.8),
        ] {
            telemetry::gauge(&format!("train.progress.{key}")).set(value);
        }
        let (head, body) = get(server.local_addr(), "/progress");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        // /progress must always be parseable, non-finite values included.
        let p = Json::parse(&body).unwrap();
        assert_eq!(p.get("training"), Some(&Json::Bool(true)), "{body}");
        assert_eq!(p.get("epoch").and_then(Json::as_num), Some(42.0));
        assert_eq!(p.get("epochs_total").and_then(Json::as_num), Some(100.0));
        assert_eq!(p.get("loss").and_then(Json::as_num), Some(0.5));
        assert_eq!(p.get("eta_s").and_then(Json::as_num), Some(5.8));
        assert_eq!(p.get("grad_norm"), Some(&Json::Null), "{body}");
        server.stop();
    }
}
