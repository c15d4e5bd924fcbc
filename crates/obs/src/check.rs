//! The perf regression gate behind `qpinn-obs check`.
//!
//! Compares two benchmark records (the committed `BENCH_parallel.json`
//! baseline against a freshly produced one, or any pair of
//! `target/experiments/*.json` records with shared keys) and flags every
//! performance metric that moved against its grain by more than a
//! threshold percentage.
//!
//! Metrics are discovered structurally rather than from a hard-coded
//! schema: numeric values (and numeric arrays, compared elementwise)
//! present in *both* documents are diffed when their key names identify
//! a performance direction —
//!
//! * **higher is better**: `*gflops*`, `*per_s*` (`circuits_per_s`),
//!   `*speedup*`;
//! * **lower is better**: `s_per_epoch`, `ms`/`*_ms` (kernel times),
//!   `*wall*`, `*_ns`.
//!
//! Anything else (`threads`, `qubits`, `host_cpus`, shapes, ids) is
//! configuration, not performance, and is skipped. That keeps the gate
//! honest when records grow new fields: a new perf series is guarded the
//! first time it appears in both files, and a new config knob never
//! trips it.
//!
//! Two records from different hosts are not comparable at all: when both
//! carry a provenance field ([`PROVENANCE_KEYS`]: the host's CPU count and
//! the SIMD dispatch width) and the values differ, [`provenance_mismatch`]
//! names the field and `qpinn-obs check` refuses with exit 2, as
//! `perfbench compare` does.

use qpinn_core::report::{Json, TextTable};

/// Top-level record fields that describe the measuring host. Records
/// that disagree on any of them were measured on different set-ups.
pub const PROVENANCE_KEYS: [&str; 2] = ["host_cpus", "simd_width"];

/// The provenance fields both records carry with different values, as
/// `field: baseline vs current` lines; empty when the records are
/// comparable.
pub fn provenance_mismatch(baseline: &Json, current: &Json) -> Vec<String> {
    PROVENANCE_KEYS
        .iter()
        .filter_map(|&k| {
            let (b, c) = (baseline.get(k)?.as_num()?, current.get(k)?.as_num()?);
            (b != c).then(|| format!("{k}: baseline {b} vs current {c}"))
        })
        .collect()
}

/// Which way a metric is allowed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput).
    HigherIsBetter,
    /// Smaller numbers are better (latency).
    LowerIsBetter,
}

/// Infer the performance direction of a key, or `None` for
/// configuration values that should not be gated.
pub fn direction_of(key: &str) -> Option<Direction> {
    let k = key.to_ascii_lowercase();
    if k.contains("gflops") || k.contains("per_s") || k.contains("speedup") {
        return Some(Direction::HigherIsBetter);
    }
    if k == "ms"
        || k.ends_with("_ms")
        || k == "s_per_epoch"
        || k.contains("wall")
        || k.ends_with("_ns")
    {
        return Some(Direction::LowerIsBetter);
    }
    None
}

/// One compared metric value.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Dotted path of the metric, with `[i]` for array elements.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change in percent (`(current-baseline)/baseline`).
    pub delta_pct: f64,
    /// Which way this metric is allowed to move.
    pub direction: Direction,
    /// True when the move is in the bad direction beyond the threshold.
    pub regressed: bool,
}

/// The outcome of a [`compare`] run.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Every compared metric, in document order.
    pub deltas: Vec<MetricDelta>,
    /// The threshold the comparison used, percent.
    pub threshold_pct: f64,
}

impl CheckReport {
    /// Metrics that regressed beyond the threshold.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.deltas.iter().all(|d| !d.regressed)
    }

    /// Render the comparison table plus a verdict line.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&["metric", "baseline", "current", "Δ%", "verdict"]);
        for d in &self.deltas {
            table.row(&[
                d.key.clone(),
                format!("{:.4}", d.baseline),
                format!("{:.4}", d.current),
                format!("{:+.1}", d.delta_pct),
                if d.regressed {
                    "REGRESSED".into()
                } else {
                    "ok".into()
                },
            ]);
        }
        let regressions = self.regressions().len();
        let verdict = if self.deltas.is_empty() {
            "no comparable perf metrics found (key sets disjoint?)".to_string()
        } else if regressions == 0 {
            format!(
                "PASS: {} metric(s) within {:.1}% of baseline",
                self.deltas.len(),
                self.threshold_pct
            )
        } else {
            format!(
                "FAIL: {regressions} of {} metric(s) regressed beyond {:.1}%",
                self.deltas.len(),
                self.threshold_pct
            )
        };
        format!("{}{verdict}\n", table.render())
    }
}

fn push_delta(out: &mut Vec<MetricDelta>, key: String, dir: Direction, b: f64, c: f64, thr: f64) {
    if !b.is_finite() || !c.is_finite() || b == 0.0 {
        return;
    }
    let delta_pct = (c - b) / b * 100.0;
    let regressed = match dir {
        Direction::HigherIsBetter => delta_pct < -thr,
        Direction::LowerIsBetter => delta_pct > thr,
    };
    out.push(MetricDelta {
        key,
        baseline: b,
        current: c,
        delta_pct,
        direction: dir,
        regressed,
    });
}

fn walk(prefix: &str, baseline: &Json, current: &Json, thr: f64, out: &mut Vec<MetricDelta>) {
    match (baseline, current) {
        (Json::Obj(pairs), Json::Obj(_)) => {
            for (k, bv) in pairs {
                if let Some(cv) = current.get(k) {
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&key, bv, cv, thr, out);
                }
            }
        }
        (Json::Arr(bs), Json::Arr(cs)) => {
            let Some(dir) = direction_of(prefix) else {
                return;
            };
            for (i, (bv, cv)) in bs.iter().zip(cs).enumerate() {
                if let (Some(b), Some(c)) = (bv.as_num(), cv.as_num()) {
                    push_delta(out, format!("{prefix}[{i}]"), dir, b, c, thr);
                }
            }
        }
        (Json::Num(b), Json::Num(c)) => {
            if let Some(dir) = direction_of(prefix) {
                push_delta(out, prefix.to_string(), dir, *b, *c, thr);
            }
        }
        _ => {}
    }
}

/// Diff `current` against `baseline` with a regression threshold in
/// percent.
pub fn compare(baseline: &Json, current: &Json, threshold_pct: f64) -> CheckReport {
    let mut deltas = Vec::new();
    walk("", baseline, current, threshold_pct, &mut deltas);
    CheckReport {
        deltas,
        threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(mm: f64, s_epoch: f64, circ: f64) -> Json {
        Json::parse(&format!(
            r#"{{"id":"F5","host_cpus":1,"threads":[1,2],"s_per_epoch":[{s_epoch},0.11],
                 "speedup":[1,1.19],"matmul_gflops":[{mm},7.4],
                 "circuits_per_s":[{circ},525605.0],"qubits":[2,4]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_records_pass() {
        let b = bench(7.66, 0.138, 1504534.9);
        let report = compare(&b, &b, 10.0);
        assert!(report.passed());
        // threads/qubits/host_cpus/id are config, never compared.
        assert!(report.deltas.iter().all(|d| !d.key.starts_with("threads")
            && !d.key.starts_with("qubits")
            && !d.key.starts_with("host_cpus")));
        // but every perf series is.
        assert!(report.deltas.iter().any(|d| d.key == "matmul_gflops[0]"));
        assert!(report.deltas.iter().any(|d| d.key == "s_per_epoch[1]"));
    }

    #[test]
    fn throughput_drop_beyond_threshold_fails() {
        let b = bench(8.0, 0.138, 1500000.0);
        let c = bench(6.0, 0.138, 1500000.0); // −25% GFLOP/s
        let report = compare(&b, &c, 10.0);
        assert!(!report.passed());
        let reg = report.regressions();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].key, "matmul_gflops[0]");
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn latency_rise_beyond_threshold_fails_and_drop_passes() {
        let b = bench(8.0, 0.100, 1500000.0);
        // s/epoch +50% → regression; faster matmul is fine.
        let c = bench(9.0, 0.150, 1500000.0);
        let report = compare(&b, &c, 10.0);
        let reg = report.regressions();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].key, "s_per_epoch[0]");
        // Lower s/epoch must NOT regress.
        let faster = bench(8.0, 0.050, 1500000.0);
        assert!(compare(&b, &faster, 10.0).passed());
    }

    #[test]
    fn moves_within_threshold_pass() {
        let b = bench(8.0, 0.100, 1500000.0);
        let c = bench(7.6, 0.104, 1430000.0); // all ≈ 5%
        assert!(compare(&b, &c, 10.0).passed());
        assert!(!compare(&b, &c, 2.0).passed());
    }

    #[test]
    fn direction_inference() {
        assert_eq!(direction_of("matmul_gflops"), Some(Direction::HigherIsBetter));
        assert_eq!(direction_of("circuits_per_s"), Some(Direction::HigherIsBetter));
        assert_eq!(direction_of("speedup"), Some(Direction::HigherIsBetter));
        assert_eq!(direction_of("s_per_epoch"), Some(Direction::LowerIsBetter));
        assert_eq!(direction_of("ms"), Some(Direction::LowerIsBetter));
        assert_eq!(direction_of("wall_s"), Some(Direction::LowerIsBetter));
        assert_eq!(direction_of("threads"), None);
        assert_eq!(direction_of("qubits"), None);
        assert_eq!(direction_of("elementwise_len"), None);
        // "elementwise" must not fuzzy-match the "ms" rule.
        assert_eq!(direction_of("elementwise"), None);
    }

    #[test]
    fn kernels_record_shape_is_gated_too() {
        let b = Json::parse(r#"{"id":"KERNELS","threads":4,"ms":[1.0,2.0],"gflops":[8.0,4.0]}"#)
            .unwrap();
        let c = Json::parse(r#"{"id":"KERNELS","threads":4,"ms":[1.5,2.0],"gflops":[8.0,4.0]}"#)
            .unwrap();
        let report = compare(&b, &c, 20.0);
        let reg = report.regressions();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].key, "ms[0]");
    }

    #[test]
    fn disjoint_records_produce_no_deltas() {
        let b = Json::parse(r#"{"a_gflops":[1.0]}"#).unwrap();
        let c = Json::parse(r#"{"b_gflops":[1.0]}"#).unwrap();
        let report = compare(&b, &c, 10.0);
        assert!(report.deltas.is_empty());
        assert!(report.render().contains("no comparable perf metrics"));
    }
}
