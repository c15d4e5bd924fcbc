//! # qpinn-obs
//!
//! The offline *consumption* side of the qpinn telemetry stack
//! (`qpinn-telemetry` produces spans/metrics/events; this crate turns
//! their recorded artifacts into things an operator can look at),
//! std-only like the rest of the workspace. It opens no socket: the live
//! routes (`/metrics`, `/progress`, `/healthz`, `/v1/runs`) are served by
//! `qpinn-serve`.
//!
//! * [`trace`] — converts a telemetry JSONL stream into Chrome
//!   `trace_event` JSON loadable in Perfetto / `chrome://tracing`.
//! * [`flame`] — per-phase self-time/total-time accounting over the span
//!   stream (flame table, per-epoch breakdown).
//! * [`pool`] — work-stealing pool balance report from `pool_stats`
//!   events.
//! * [`snapshots`] — checkpoint-directory inspection (`qpinn-obs
//!   snapshots DIR`): id/version/epoch/bytes/CRC status per `.qps` file
//!   without decoding full tensors.
//! * [`requests`] — per-route RED table (`qpinn-obs requests`) over a
//!   `qpinn-access-v1` access log produced by the serve plane: request
//!   rate, error/shed percentages, and exact p50/p99/max latency from
//!   the recorded samples.
//! * [`slo`] — declarative latency / error-budget objectives
//!   (`qpinn-obs slo`) evaluated against an access log, with
//!   pass/violated exit codes mirroring `runs regress`.
//! * [`runs`] — cross-run forensics (`qpinn-obs runs
//!   {list,show,diff,regress,table}`) over the durable `qpinn-run-v1`
//!   store written by `qpinn_core::runs`: run tables, trajectory views,
//!   config/metric diffs, the one regression gate (a run against a
//!   baseline run: its final loss and error, and every performance
//!   metric both record), and every experiment table the bench harness
//!   prints.
//!
//! The `qpinn-obs` binary exposes each of them as a subcommand; see its
//! `--help`.

#![deny(missing_docs)]

pub mod flame;
pub mod pool;
pub mod requests;
pub mod runs;
pub mod slo;
pub mod snapshots;
pub mod trace;

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
