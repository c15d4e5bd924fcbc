//! # qpinn-obs
//!
//! The *consumption* side of the qpinn telemetry stack (`qpinn-telemetry`
//! produces spans/metrics/events; this crate turns them into things an
//! operator can look at), std-only like the rest of the workspace:
//!
//! * [`server`] — an embedded HTTP endpoint ([`MetricsServer`], built on
//!   `std::net::TcpListener`, no framework) serving `/metrics`
//!   (Prometheus text exposition of the live registry), `/metrics.json`
//!   (the `qpinn-metrics-v1` snapshot), `/healthz`, and `/progress`
//!   (the epoch / loss / s-per-epoch / ETA gauges the trainer publishes).
//!   It reads the metrics registry only and installs no telemetry sink.
//!   Opt-in from every bench binary via `--serve-metrics ADDR`, or
//!   programmatically for library users.
//! * [`trace`] — converts a telemetry JSONL stream into Chrome
//!   `trace_event` JSON loadable in Perfetto / `chrome://tracing`.
//! * [`flame`] — per-phase self-time/total-time accounting over the span
//!   stream (flame table, per-epoch breakdown).
//! * [`pool`] — work-stealing pool balance report from `pool_stats`
//!   events.
//! * [`check`] — the perf regression gate behind `qpinn-obs check`:
//!   diffs a current benchmark record (GFLOP/s, s/epoch, circuits/s)
//!   against a committed baseline such as `BENCH_parallel.json` and
//!   fails on regressions beyond a threshold.
//! * [`http`] — the minimal HTTP/1.1 request/response plumbing shared
//!   by [`MetricsServer`] and the `qpinn-serve` inference server.
//! * [`snapshots`] — checkpoint-directory inspection (`qpinn-obs
//!   snapshots DIR`): id/version/epoch/bytes/CRC status per `.qps` file
//!   without decoding full tensors.
//! * [`requests`] — per-route RED table (`qpinn-obs requests`) over a
//!   `qpinn-access-v1` access log produced by the serve plane: request
//!   rate, error/shed percentages, and exact p50/p99/max latency from
//!   the recorded samples.
//! * [`slo`] — declarative latency / error-budget objectives
//!   (`qpinn-obs slo`) evaluated against an access log, with
//!   pass/violated exit codes mirroring [`check`].
//! * [`runs`] — cross-run training forensics (`qpinn-obs runs
//!   {list,show,diff,regress}`) over the durable `qpinn-run-v1` store
//!   written by `qpinn_core::runs`: run tables, trajectory views,
//!   config/metric diffs, and a regression gate against a baseline run.
//!
//! The `qpinn-obs` binary exposes [`trace`], [`flame`], [`pool`],
//! [`check`], [`snapshots`], [`requests`], [`slo`], and [`runs`] as
//! subcommands; see its `--help`.

#![deny(missing_docs)]

pub mod check;
pub mod flame;
pub mod http;
pub mod pool;
pub mod requests;
pub mod runs;
pub mod server;
pub mod slo;
pub mod snapshots;
pub mod trace;

pub use check::{compare, CheckReport, Direction, MetricDelta};
pub use server::MetricsServer;

use qpinn_core::report::Json;

/// Parse a telemetry JSONL stream into one [`Json`] value per
/// non-empty line, with line numbers in error messages.
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Field lookup inside an event's `fields` object, as a finite number.
pub(crate) fn field_num(event: &Json, key: &str) -> Option<f64> {
    event.get("fields")?.get(key)?.as_num()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jsonl_skips_blanks_and_reports_line_numbers() {
        let good = "{\"a\":1}\n\n{\"b\":2}\n";
        assert_eq!(parse_jsonl(good).unwrap().len(), 2);
        let err = parse_jsonl("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
