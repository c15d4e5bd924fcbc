//! Prometheus text exposition (format 0.0.4) rendered from a
//! [`MetricsSnapshot`].
//!
//! The registry's dotted metric names (`train.grad_evals`,
//! `pool.worker0.tasks`) are sanitized into the Prometheus character set
//! (`train_grad_evals`) and prefixed (conventionally `qpinn_`). All three
//! metric kinds map onto native Prometheus types:
//!
//! * counters → `counter` samples with a `_total` suffix,
//! * gauges → `gauge` samples (non-finite values are skipped — Prometheus
//!   has `NaN` but scrapers treat it as absence anyway),
//! * log2-bucketed histograms → native `histogram` samples with
//!   cumulative `le="2^k"` buckets plus `_sum`/`_count`.
//!
//! Caller-supplied labels (e.g. `run_id`) are attached to every sample
//! with full label-value escaping (`\\`, `\"`, `\n`), so arbitrary run
//! identifiers cannot corrupt the exposition.
//!
//! The one live consumer is `qpinn-serve`'s `/metrics` route, which
//! renders the global registry with the `qpinn_` prefix and no labels.

use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

/// Map a registry metric name into the Prometheus name character set
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every invalid character (most commonly the
/// registry's `.` separators) becomes `_`, and a leading digit gains a
/// `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if ok {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render the shared label set (possibly with one extra per-sample label
/// such as `le`) as `{k="v",...}`, or nothing when there are no labels.
fn label_block(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label_value(v));
    }
    out.push('}');
    out
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

/// Render a snapshot as a Prometheus text-format page.
///
/// `prefix` is prepended to every sanitized metric name (pass `"qpinn_"`
/// for the standard exposition); `labels` are attached to every sample.
pub fn render(snap: &MetricsSnapshot, prefix: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(1024);
    let base = label_block(labels, None);
    for (name, v) in &snap.counters {
        let n = format!("{prefix}{}_total", sanitize_name(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n}{base} {v}");
    }
    for (name, v) in &snap.gauges {
        if !v.is_finite() {
            continue;
        }
        let n = format!("{prefix}{}", sanitize_name(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = write!(out, "{n}{base} ");
        write_f64(&mut out, *v);
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        let n = format!("{prefix}{}", sanitize_name(name));
        let _ = writeln!(out, "# TYPE {n} histogram");
        // Cumulative counts over the log2 buckets; stop at the last
        // populated bucket (the +Inf sample covers the rest).
        let last = h.buckets.iter().rposition(|&c| c > 0);
        let mut cum = 0u64;
        if let Some(last) = last {
            for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
                cum += c;
                // Bucket i counts values with floor(log2(v)) == i, so its
                // inclusive upper edge is 2^(i+1) - 1; report le="2^(i+1)".
                let le = format!("{}", 2u128 << i);
                let _ = writeln!(
                    out,
                    "{n}_bucket{} {cum}",
                    label_block(labels, Some(("le", &le)))
                );
            }
        }
        let _ = writeln!(
            out,
            "{n}_bucket{} {}",
            label_block(labels, Some(("le", "+Inf"))),
            h.count
        );
        let _ = writeln!(out, "{n}_sum{base} {}", h.sum);
        let _ = writeln!(out, "{n}_count{base} {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("train.grad_evals"), "train_grad_evals");
        assert_eq!(sanitize_name("pool.worker0.tasks"), "pool_worker0_tasks");
        assert_eq!(sanitize_name("7bad-name"), "_7bad_name");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(
            escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd"
        );
    }

    #[test]
    fn renders_all_three_metric_kinds() {
        let r = Registry::default();
        r.counter("train.grad_evals").add(12);
        r.gauge("train.progress.loss").set(0.5);
        r.gauge("bad.gauge").set(f64::NAN); // skipped
        r.histogram("span.epoch_ns").record(3);
        r.histogram("span.epoch_ns").record(1000);
        let page = render(&r.snapshot(), "qpinn_", &[]);
        assert!(page.contains("# TYPE qpinn_train_grad_evals_total counter"));
        assert!(page.contains("qpinn_train_grad_evals_total 12"));
        assert!(page.contains("# TYPE qpinn_train_progress_loss gauge"));
        assert!(page.contains("qpinn_train_progress_loss 0.5"));
        assert!(!page.contains("bad_gauge"));
        assert!(page.contains("# TYPE qpinn_span_epoch_ns histogram"));
        // 3 lands in bucket 1 (le=4), 1000 in bucket 9 (le=1024); the
        // cumulative count at the last populated bucket equals the total.
        assert!(page.contains("qpinn_span_epoch_ns_bucket{le=\"4\"} 1"));
        assert!(page.contains("qpinn_span_epoch_ns_bucket{le=\"1024\"} 2"));
        assert!(page.contains("qpinn_span_epoch_ns_bucket{le=\"+Inf\"} 2"));
        assert!(page.contains("qpinn_span_epoch_ns_sum 1003"));
        assert!(page.contains("qpinn_span_epoch_ns_count 2"));
    }

    #[test]
    fn shared_labels_attach_to_every_sample_with_escaping() {
        let r = Registry::default();
        r.counter("c").inc();
        r.histogram("h").record(1);
        let page = render(&r.snapshot(), "qpinn_", &[("run_id", "t1 \"q\"\nx")]);
        assert!(page.contains("qpinn_c_total{run_id=\"t1 \\\"q\\\"\\nx\"} 1"));
        assert!(page.contains("qpinn_h_bucket{run_id=\"t1 \\\"q\\\"\\nx\",le=\"+Inf\"} 1"));
        assert!(page.contains("qpinn_h_sum{run_id=\"t1 \\\"q\\\"\\nx\"} 1"));
    }

    #[test]
    fn empty_snapshot_renders_empty_page() {
        assert_eq!(render(&MetricsSnapshot::default(), "qpinn_", &[]), "");
    }
}
