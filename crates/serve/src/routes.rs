//! The read-only observability routes the server mounts beside its
//! inference routes:
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
//! Request handling only ever *reads* atomic metric values and run-store
//! files, so it costs the training threads nothing. Every metrics route
//! reads the always-on metrics registry, so no route needs a telemetry
//! sink: the event layer stays as dormant as the server found it.

use crate::http::Response;
use qpinn_telemetry as telemetry;
use qpinn_telemetry::event::{write_json_num, write_json_str};
use qpinn_telemetry::MetricsSnapshot;
use std::time::Instant;

/// Build the response for one (already parsed) metrics request, or
/// `None` when the route is not one of the four read-only metrics
/// routes; `started` anchors the `/healthz` uptime report.
pub(crate) fn metrics_routes(method: &str, path: &str, started: Instant) -> Option<Response> {
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

/// Build the response for a `qpinn-run-v1` store request against the
/// store under `dir`, or `None` when the path is not a runs route.
///
/// | route           | body                                            |
/// |-----------------|-------------------------------------------------|
/// | `/v1/runs`      | `{"runs":[{run_id,task,seed,final_loss,...}]}`  |
/// | `/v1/runs/<id>` | `{"manifest":{...},"series":[...]}`             |
pub(crate) fn runs_routes(method: &str, path: &str, dir: &std::path::Path) -> Option<Response> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_is_idle_without_progress_gauges() {
        let registry = telemetry::Registry::default();
        assert_eq!(progress_json(&registry.snapshot()), "{\"training\":false}");
        registry.gauge("train.loss.residual").set(0.5);
        assert_eq!(progress_json(&registry.snapshot()), "{\"training\":false}");
    }
}
