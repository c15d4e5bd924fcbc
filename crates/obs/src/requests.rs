//! Per-route RED report over a `qpinn-access-v1` access log.
//!
//! `qpinn-obs requests ACCESS.jsonl` renders, per route: request count,
//! rate, error percentage (5xx), shed percentage (429), and p50/p99/max
//! end-to-end latency. Percentiles are computed from the **exact**
//! recorded `total_ns` values (the access log keeps every sample), not
//! from the registry's log2 histogram buckets — so a p99 here is a real
//! observed request, not a bucket upper edge. Latency quantiles exclude
//! shed requests (a 429 answered in microseconds says nothing about
//! served latency); error and shed percentages count every record.

use qpinn_core::report::Json;
use std::collections::BTreeMap;

/// One parsed access-log record (the subset the reports consume).
#[derive(Clone, Debug, Default)]
pub struct AccessEntry {
    /// Request trace id.
    pub trace: String,
    /// Completion timestamp (ns, process epoch).
    pub ts_ns: u64,
    /// Route path; empty for connection-queue sheds.
    pub route: String,
    /// `id@version` or empty.
    pub model: String,
    /// HTTP status code.
    pub status: u16,
    /// Shed reason or empty.
    pub shed: String,
    /// Requests coalesced into this request's batch.
    pub batch: u64,
    /// Queue-wait nanoseconds.
    pub queue_ns: u64,
    /// Batch-drain nanoseconds.
    pub batch_ns: u64,
    /// Forward-pass nanoseconds.
    pub compute_ns: u64,
    /// End-to-end nanoseconds.
    pub total_ns: u64,
}

/// Parse a `qpinn-access-v1` JSONL stream. Strict: every non-blank line
/// must be a `qpinn-access-v1` object (errors carry the line number).
pub fn parse_access_log(text: &str) -> Result<Vec<AccessEntry>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let v = j.get("v").and_then(Json::as_str).unwrap_or("");
        if v != "qpinn-access-v1" {
            return Err(format!(
                "line {}: not a qpinn-access-v1 record (v={v:?})",
                i + 1
            ));
        }
        let s = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let n = |key: &str| j.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64;
        out.push(AccessEntry {
            trace: s("trace"),
            ts_ns: n("ts_ns"),
            route: s("route"),
            model: s("model"),
            status: n("status") as u16,
            shed: s("shed"),
            batch: n("batch"),
            queue_ns: n("queue_ns"),
            batch_ns: n("batch_ns"),
            compute_ns: n("compute_ns"),
            total_ns: n("total_ns"),
        });
    }
    Ok(out)
}

/// Exact quantile over a sorted sample set: the smallest recorded value
/// with at least `q` of the mass at or below it (empty → 0).
pub fn quantile_exact(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct RouteAcc {
    count: u64,
    errors: u64,
    sheds: u64,
    served_ns: Vec<u64>,
}

/// Render the per-route RED table for an access log.
pub fn report(text: &str) -> Result<String, String> {
    let entries = parse_access_log(text)?;
    if entries.is_empty() {
        return Ok("access log is empty\n".to_string());
    }
    let mut routes: BTreeMap<String, RouteAcc> = BTreeMap::new();
    let (mut ts_min, mut ts_max) = (u64::MAX, 0u64);
    for e in &entries {
        ts_min = ts_min.min(e.ts_ns);
        ts_max = ts_max.max(e.ts_ns);
        let label = if e.route.is_empty() {
            "(conn-shed)".to_string()
        } else {
            e.route.clone()
        };
        let acc = routes.entry(label).or_insert(RouteAcc {
            count: 0,
            errors: 0,
            sheds: 0,
            served_ns: Vec::new(),
        });
        acc.count += 1;
        if e.status >= 500 {
            acc.errors += 1;
        }
        if e.status == 429 {
            acc.sheds += 1;
        } else {
            acc.served_ns.push(e.total_ns);
        }
    }
    let wall_s = (ts_max.saturating_sub(ts_min)) as f64 / 1e9;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>6} {:>8} {:>6} {:>6} {:>10} {:>10} {:>10}\n",
        "ROUTE", "REQS", "RATE/S", "ERR%", "SHED%", "P50(ms)", "P99(ms)", "MAX(ms)"
    ));
    let mut render_row = |label: &str, acc: &RouteAcc| {
        let mut lat = acc.served_ns.clone();
        lat.sort_unstable();
        let pct = |n: u64| 100.0 * n as f64 / acc.count as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let rate = if wall_s > 0.0 {
            format!("{:.1}", acc.count as f64 / wall_s)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<24} {:>6} {:>8} {:>6.1} {:>6.1} {:>10.3} {:>10.3} {:>10.3}\n",
            label,
            acc.count,
            rate,
            pct(acc.errors),
            pct(acc.sheds),
            ms(quantile_exact(&lat, 0.50)),
            ms(quantile_exact(&lat, 0.99)),
            ms(lat.last().copied().unwrap_or(0)),
        ));
    };
    let mut total = RouteAcc {
        count: 0,
        errors: 0,
        sheds: 0,
        served_ns: Vec::new(),
    };
    for (label, acc) in &routes {
        total.count += acc.count;
        total.errors += acc.errors;
        total.sheds += acc.sheds;
        total.served_ns.extend_from_slice(&acc.served_ns);
        render_row(label, acc);
    }
    if routes.len() > 1 {
        render_row("TOTAL", &total);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(route: &str, status: u16, shed: &str, total_ns: u64, ts: u64) -> String {
        format!(
            r#"{{"v":"qpinn-access-v1","trace":"t{ts}","ts_ns":{ts},"route":"{route}","model":"m@1","status":{status},"shed":"{shed}","batch":1,"points":2,"queue_ns":10,"batch_ns":20,"compute_ns":30,"serialize_ns":5,"total_ns":{total_ns}}}"#
        )
    }

    #[test]
    fn parses_and_reports_per_route() {
        let log = [
            line("/v1/eval", 200, "", 2_000_000, 1_000_000_000),
            line("/v1/eval", 200, "", 4_000_000, 1_500_000_000),
            line("/v1/eval", 429, "queue_full", 10_000, 2_000_000_000),
            line("/v1/models", 200, "", 500_000, 3_000_000_000),
            line("/v1/eval", 500, "", 1_000_000, 2_500_000_000),
        ]
        .join("\n");
        let entries = parse_access_log(&log).unwrap();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[2].shed, "queue_full");
        let table = report(&log).unwrap();
        assert!(table.contains("/v1/eval"), "{table}");
        assert!(table.contains("/v1/models"), "{table}");
        assert!(table.contains("TOTAL"), "{table}");
        // 4 eval reqs, 1 is 5xx → 25%, 1 is 429 → 25%.
        let eval_row = table.lines().find(|l| l.starts_with("/v1/eval")).unwrap();
        assert!(eval_row.contains("25.0"), "{eval_row}");
    }

    #[test]
    fn exact_quantiles_use_recorded_values() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_exact(&sorted, 0.50), 50);
        assert_eq!(quantile_exact(&sorted, 0.99), 99);
        assert_eq!(quantile_exact(&sorted, 1.0), 100);
        assert_eq!(quantile_exact(&[7], 0.99), 7);
        assert_eq!(quantile_exact(&[], 0.5), 0);
    }

    #[test]
    fn rejects_foreign_lines() {
        let err = parse_access_log("{\"v\":1,\"kind\":\"span\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
