//! Cross-run training forensics over the `qpinn-run-v1` store: the
//! `qpinn-obs runs {list,show,diff,regress}` subcommands.
//!
//! * `list` — one row per run: id, task, seed, final loss, outcome.
//! * `show` — manifest + loss/gradient trajectories for one run, and the
//!   run's `metrics` block.
//! * `diff` — configuration delta and metric delta between two runs.
//!   Two runs with identical config hash and seed are expected to be
//!   bit-identical (ordered reductions make training deterministic at a
//!   fixed thread count); a nonzero metric delta under an identical
//!   setup is therefore flagged as a determinism violation.
//! * `regress` — threshold gate of a run against a baseline run, with
//!   the same 0/1/2 exit-code contract as `check`.
//! * `table` — every experiment table (any label of the form
//!   `<table>/<row>`): the final error's mean ± std over seeds per row,
//!   plus a column per scalar metric the table's runs recorded, rendered
//!   from the manifests alone. The table binaries of the bench harness
//!   print this same rendering over the runs they just recorded.

use qpinn_core::experiment::mean_std_of;
use qpinn_core::report::{mean_std, sparkline, sparkline_log, Json, TextTable};
use qpinn_core::runs::{list_runs, read_manifest, Manifest, Metric, RunOutcome, RunRecord};
use std::path::Path;

/// Render the `runs list` table for a store directory.
pub fn list_report(dir: &Path) -> std::io::Result<String> {
    let summaries = list_runs(dir)?;
    if summaries.is_empty() {
        return Ok(format!("no runs under {}\n", dir.display()));
    }
    let mut table = TextTable::new(&["run", "task", "seed", "final loss", "outcome"]);
    for s in &summaries {
        table.row(&[
            s.run_id.clone(),
            s.task.clone(),
            s.seed.map(|v| v.to_string()).unwrap_or_else(|| "?".into()),
            s.final_loss
                .map(|v| format!("{v:.3e}"))
                .unwrap_or_else(|| "-".into()),
            s.outcome.clone(),
        ]);
    }
    Ok(table.render())
}

/// Render the `runs show` report: the manifest, the loss/grad-norm
/// trajectories, the metrics block (a scalar as its value, an array as
/// its length, first and last value and a sparkline), and the last
/// recorded per-layer gradient stats.
pub fn show_report(rec: &RunRecord) -> String {
    let m = &rec.manifest;
    let mut out = String::new();
    out.push_str(&format!("run      {}\n", m.run_id));
    out.push_str(&format!("task     {}  (seed {})\n", m.task, m.seed));
    out.push_str(&format!(
        "outcome  {}  ({} of {} epochs)\n",
        m.outcome.as_str(),
        m.epochs_run
            .map(|v| v.to_string())
            .unwrap_or_else(|| "?".into()),
        m.epochs_planned
    ));
    out.push_str(&format!(
        "widths   threads={} simd={}\n",
        m.threads, m.simd
    ));
    out.push_str(&format!("config   {}\n", m.config_hash));
    if !m.trace.is_empty() {
        out.push_str(&format!("trace    {}\n", m.trace));
    }
    if let (Some(loss), Some(err)) = (m.final_loss, m.final_error) {
        out.push_str(&format!("final    loss {loss:.3e}  error {err:.3e}\n"));
    }
    let loss: Vec<f64> = rec.series_of("loss").iter().map(|(_, v)| *v).collect();
    if !loss.is_empty() {
        out.push_str(&format!(
            "loss     {}  [{:.3e} → {:.3e}, {} points]\n",
            sparkline_log(&loss),
            loss[0],
            loss[loss.len() - 1],
            loss.len()
        ));
    }
    let gnorm: Vec<f64> = rec.series_of("grad_norm").iter().map(|(_, v)| *v).collect();
    if !gnorm.is_empty() {
        out.push_str(&format!("grad     {}\n", sparkline_log(&gnorm)));
    }
    if !m.metrics.is_empty() {
        out.push_str("\nmetrics:\n");
        let w = m.metrics.iter().map(|(k, _)| k.chars().count()).max().unwrap_or(0);
        for (name, metric) in &m.metrics {
            let value = match metric {
                Metric::Scalar(v) => format!("{v:.6e}"),
                Metric::Series(vs) => format!(
                    "{}  [{:.3e} → {:.3e}, {} points]",
                    sparkline(vs),
                    vs.first().unwrap_or(&f64::NAN),
                    vs.last().unwrap_or(&f64::NAN),
                    vs.len()
                ),
            };
            out.push_str(&format!("  {name:<w$}  {value}\n"));
        }
    }
    // Last epoch line's per-layer stats: the barren-plateau snapshot.
    if let Some(grad) = rec
        .series
        .iter()
        .rev()
        .find(|l| l.get("kind").and_then(|k| k.as_str()) == Some("epoch"))
        .and_then(|l| l.get("grad").cloned())
    {
        if let Json::Obj(layers) = grad {
            if !layers.is_empty() {
                let mut table = TextTable::new(&["layer", "grad norm", "grad var"]);
                for (name, stats) in &layers {
                    let num = |k: &str| {
                        stats
                            .get(k)
                            .and_then(|v| v.as_num())
                            .map(|v| format!("{v:.3e}"))
                            .unwrap_or_else(|| "-".into())
                    };
                    table.row(&[name.clone(), num("norm"), num("var")]);
                }
                out.push_str("\nlast-interval gradient stats:\n");
                out.push_str(&table.render());
            }
        }
    }
    let events: Vec<String> = rec
        .series
        .iter()
        .filter_map(|l| {
            let kind = l.get("kind")?.as_str()?;
            if kind == "epoch" {
                return None;
            }
            let epoch = l.get("epoch").and_then(|v| v.as_num()).unwrap_or(0.0);
            Some(format!("  epoch {epoch:>6}: {kind}"))
        })
        .collect();
    if !events.is_empty() {
        out.push_str("\nevents:\n");
        out.push_str(&events.join("\n"));
        out.push('\n');
    }
    out
}

/// One changed configuration key.
#[derive(Clone, Debug)]
pub struct ConfigDelta {
    /// Dotted path of the key.
    pub key: String,
    /// Rendered value in run A (`-` when absent).
    pub a: String,
    /// Rendered value in run B (`-` when absent).
    pub b: String,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Metric name (`final_loss`, `loss[max|Δ|]`, ...).
    pub metric: String,
    /// Value in run A.
    pub a: f64,
    /// Value in run B.
    pub b: f64,
    /// `b - a` (for series metrics, the maximum absolute pointwise
    /// difference, reported in both value slots).
    pub delta: f64,
}

/// The outcome of [`diff`].
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Run ids compared.
    pub runs: (String, String),
    /// Config keys that differ.
    pub config: Vec<ConfigDelta>,
    /// Same config hash *and* same seed.
    pub identical_setup: bool,
    /// Compared metrics.
    pub metrics: Vec<MetricDelta>,
    /// Every metric delta is exactly zero.
    pub zero_metric_delta: bool,
    /// Epochs both series cover (aligned `"epoch"` lines).
    pub aligned_epochs: usize,
}

/// Flatten a config document into dotted `key → rendered value` pairs.
fn flatten(prefix: &str, doc: &Json, out: &mut Vec<(String, String)>) {
    match doc {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), v, out);
            }
        }
        leaf => out.push((prefix.to_string(), leaf.to_string())),
    }
}

/// Maximum absolute pointwise difference between two epoch-aligned
/// series, plus the number of aligned points.
fn series_delta(a: &[(usize, f64)], b: &[(usize, f64)]) -> (f64, usize) {
    let mut max = 0.0f64;
    let mut aligned = 0usize;
    for (ea, va) in a {
        if let Some((_, vb)) = b.iter().find(|(eb, _)| eb == ea) {
            aligned += 1;
            let d = (vb - va).abs();
            if d.is_nan() {
                // A NaN on either side counts as a (maximal) difference
                // unless both sides are NaN at the same epoch.
                if !(va.is_nan() && vb.is_nan()) {
                    max = f64::INFINITY;
                }
            } else if d > max {
                max = d;
            }
        }
    }
    (max, aligned)
}

/// Compare two loaded runs: configuration delta + metric delta.
pub fn diff(a: &RunRecord, b: &RunRecord) -> DiffReport {
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    flatten("config", &a.manifest.config, &mut fa);
    flatten("config", &b.manifest.config, &mut fb);
    fa.push(("seed".into(), a.manifest.seed.to_string()));
    fb.push(("seed".into(), b.manifest.seed.to_string()));
    fa.push(("threads".into(), a.manifest.threads.to_string()));
    fb.push(("threads".into(), b.manifest.threads.to_string()));
    fa.push(("simd".into(), a.manifest.simd.to_string()));
    fb.push(("simd".into(), b.manifest.simd.to_string()));
    let mut config = Vec::new();
    let lookup = |set: &[(String, String)], key: &str| -> Option<String> {
        set.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let mut keys: Vec<String> = fa.iter().map(|(k, _)| k.clone()).collect();
    for (k, _) in &fb {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    for key in keys {
        let va = lookup(&fa, &key);
        let vb = lookup(&fb, &key);
        if va != vb {
            config.push(ConfigDelta {
                key,
                a: va.unwrap_or_else(|| "-".into()),
                b: vb.unwrap_or_else(|| "-".into()),
            });
        }
    }
    let identical_setup = a.manifest.config_hash == b.manifest.config_hash
        && a.manifest.seed == b.manifest.seed;

    let mut metrics = Vec::new();
    let mut push_final = |name: &str, va: Option<f64>, vb: Option<f64>| {
        if let (Some(va), Some(vb)) = (va, vb) {
            metrics.push(MetricDelta {
                metric: name.to_string(),
                a: va,
                b: vb,
                delta: vb - va,
            });
        }
    };
    push_final("final_loss", a.manifest.final_loss, b.manifest.final_loss);
    push_final(
        "final_error",
        a.manifest.final_error,
        b.manifest.final_error,
    );
    let mut aligned_epochs = 0;
    for field in ["loss", "grad_norm"] {
        let sa = a.series_of(field);
        let sb = b.series_of(field);
        let (max, aligned) = series_delta(&sa, &sb);
        aligned_epochs = aligned_epochs.max(aligned);
        if aligned > 0 {
            metrics.push(MetricDelta {
                metric: format!("{field} series (max |Δ| over {aligned} epochs)"),
                a: max,
                b: max,
                delta: max,
            });
        }
    }
    let zero_metric_delta = !metrics.is_empty() && metrics.iter().all(|m| m.delta == 0.0);
    DiffReport {
        runs: (a.manifest.run_id.clone(), b.manifest.run_id.clone()),
        config,
        identical_setup,
        metrics,
        zero_metric_delta,
        aligned_epochs,
    }
}

impl DiffReport {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!("diff {}  →  {}\n\n", self.runs.0, self.runs.1);
        if self.config.is_empty() {
            out.push_str("config: identical\n");
        } else {
            let mut t = TextTable::new(&["config key", "a", "b"]);
            for d in &self.config {
                t.row(&[d.key.clone(), d.a.clone(), d.b.clone()]);
            }
            out.push_str(&t.render());
        }
        out.push('\n');
        if self.metrics.is_empty() {
            out.push_str("metrics: none recorded in both runs\n");
        } else {
            let mut t = TextTable::new(&["metric", "a", "b", "delta"]);
            for m in &self.metrics {
                t.row(&[
                    m.metric.clone(),
                    format!("{:.6e}", m.a),
                    format!("{:.6e}", m.b),
                    format!("{:+.3e}", m.delta),
                ]);
            }
            out.push_str(&t.render());
        }
        if self.identical_setup {
            out.push_str(if self.zero_metric_delta {
                "\nidentical config+seed, zero metric delta: runs are reproducible\n"
            } else {
                "\nWARNING: identical config+seed but nonzero metric delta — \
                 determinism violation (or different thread/SIMD width)\n"
            });
        }
        out
    }
}

/// One gated metric in a [`RegressReport`].
#[derive(Clone, Debug)]
pub struct RegressRow {
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change in percent (0 when the baseline is 0).
    pub delta_pct: f64,
    /// Whether this metric regressed beyond the threshold.
    pub regressed: bool,
}

/// The outcome of [`regress`].
#[derive(Clone, Debug)]
pub struct RegressReport {
    /// Run ids: (current, baseline).
    pub runs: (String, String),
    /// The threshold used, percent.
    pub threshold_pct: f64,
    /// Gated metrics.
    pub rows: Vec<RegressRow>,
    /// Violations that are not per-metric (outcome changes, missing
    /// finals).
    pub violations: Vec<String>,
}

impl RegressReport {
    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.rows.iter().all(|r| !r.regressed)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "regress {} vs baseline {}  (threshold {:.1}%)\n",
            self.runs.0, self.runs.1, self.threshold_pct
        );
        let mut t = TextTable::new(&["metric", "baseline", "current", "delta", "status"]);
        for r in &self.rows {
            t.row(&[
                r.metric.clone(),
                format!("{:.6e}", r.baseline),
                format!("{:.6e}", r.current),
                format!("{:+.1}%", r.delta_pct),
                if r.regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]);
        }
        out.push_str(&t.render());
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out.push_str(if self.passed() {
            "runs-regress: PASS\n"
        } else {
            "runs-regress: FAIL\n"
        });
        out
    }
}

/// Gate `current` against `baseline`: the final loss and final error
/// (both lower-is-better) must not grow by more than `threshold_pct`
/// percent, and a run whose baseline converged must itself converge.
pub fn regress(current: &RunRecord, baseline: &RunRecord, threshold_pct: f64) -> RegressReport {
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    let base_outcome = baseline.manifest.outcome;
    let cur_outcome = current.manifest.outcome;
    if base_outcome == qpinn_core::runs::RunOutcome::Converged
        && cur_outcome != qpinn_core::runs::RunOutcome::Converged
    {
        violations.push(format!(
            "baseline converged but current run is `{}`",
            cur_outcome.as_str()
        ));
    }
    for (name, base, cur) in [
        (
            "final_loss",
            baseline.manifest.final_loss,
            current.manifest.final_loss,
        ),
        (
            "final_error",
            baseline.manifest.final_error,
            current.manifest.final_error,
        ),
    ] {
        match (base, cur) {
            (Some(b), Some(c)) => {
                let delta_pct = if b != 0.0 { (c - b) / b.abs() * 100.0 } else { 0.0 };
                // Lower is better. Degenerate baselines (zero or
                // non-finite) only regress on a non-finite current.
                let regressed = if b.is_finite() && b != 0.0 {
                    !c.is_finite() || delta_pct > threshold_pct
                } else {
                    !c.is_finite() && b.is_finite()
                };
                rows.push(RegressRow {
                    metric: name.to_string(),
                    baseline: b,
                    current: c,
                    delta_pct,
                    regressed,
                });
            }
            (Some(_), None) => {
                violations.push(format!("current run records no {name} (not finalized?)"))
            }
            _ => {}
        }
    }
    RegressReport {
        runs: (
            current.manifest.run_id.clone(),
            baseline.manifest.run_id.clone(),
        ),
        threshold_pct,
        rows,
        violations,
    }
}

/// One row of a table: the finalized runs that share a task label and a
/// config hash, newest run per seed, in seed order.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Task label, `<table>/<row>`.
    pub task: String,
    /// Config hash the row's runs share.
    pub config_hash: String,
    /// Final error per seed, in seed order: each task's `eval_error` (a
    /// rel-L2 for the PDE tasks, |E − E_ref| for the hybrid eigen task). A
    /// run that recorded no final error (non-finite values serialize as
    /// `null`) counts as NaN.
    pub errors: Vec<f64>,
    /// Mean of `errors`.
    pub mean: f64,
    /// Population standard deviation of `errors`.
    pub std: f64,
    /// Lowest of `errors` (NaN-ignoring).
    pub best: f64,
    /// Trainable-parameter count (`config.train.n_params`), when recorded.
    pub n_params: Option<usize>,
    /// Planned epoch budget.
    pub epochs: usize,
    /// Mean wall seconds per run, from the manifest timestamps.
    pub s_per_run: f64,
    /// The scalar metrics of the row's runs, in first-seen order, each
    /// with its value in every run that carries it (seed order).
    pub metrics: Vec<(String, Vec<f64>)>,
}

impl TableRow {
    /// The table id: the task label up to its first `/`.
    fn table(&self) -> &str {
        self.task.split_once('/').map_or(&self.task, |(t, _)| t)
    }

    /// The row label: the task label after its first `/`.
    fn label(&self) -> &str {
        self.task.split_once('/').map_or(&self.task, |(_, r)| r)
    }
}

/// Group finalized runs into [`TableRow`]s: one per (task label, config
/// hash), so runs at different budgets never average together, in the
/// order of each row's first run start. Within a row the newest run per
/// seed counts; `incomplete` runs are left out, while diverged and error
/// runs count with whatever final error they recorded.
pub fn table_rows(manifests: &[Manifest]) -> Vec<TableRow> {
    let mut finalized: Vec<&Manifest> = manifests
        .iter()
        .filter(|m| m.outcome != RunOutcome::Incomplete)
        .collect();
    finalized.sort_by(|a, b| (a.start_unix_ms, &a.run_id).cmp(&(b.start_unix_ms, &b.run_id)));
    // (task, hash) → newest manifest per seed, rows in first-start order.
    let mut groups: Vec<(&str, &str, Vec<&Manifest>)> = Vec::new();
    for m in finalized {
        let at = match groups
            .iter()
            .position(|(t, h, _)| *t == m.task && *h == m.config_hash)
        {
            Some(at) => at,
            None => {
                groups.push((&m.task, &m.config_hash, Vec::new()));
                groups.len() - 1
            }
        };
        let runs = &mut groups[at].2;
        runs.retain(|r| r.seed != m.seed);
        runs.push(m);
    }
    groups
        .into_iter()
        .map(|(task, config_hash, mut runs)| {
            runs.sort_by_key(|m| m.seed);
            let mut metrics: Vec<(String, Vec<f64>)> = Vec::new();
            for (name, metric) in runs.iter().flat_map(|m| &m.metrics) {
                let Metric::Scalar(v) = metric else { continue };
                match metrics.iter_mut().find(|(k, _)| k == name) {
                    Some((_, vs)) => vs.push(*v),
                    None => metrics.push((name.clone(), vec![*v])),
                }
            }
            let errors: Vec<f64> = runs
                .iter()
                .map(|m| m.final_error.unwrap_or(f64::NAN))
                .collect();
            let (mean, std) = mean_std_of(&errors);
            let wall_s: f64 = runs
                .iter()
                .map(|m| {
                    m.end_unix_ms
                        .map_or(0, |end| end.saturating_sub(m.start_unix_ms))
                })
                .map(|ms| ms as f64 / 1000.0)
                .sum();
            TableRow {
                task: task.to_string(),
                config_hash: config_hash.to_string(),
                best: errors.iter().copied().fold(f64::INFINITY, f64::min),
                mean,
                std,
                errors,
                n_params: runs[0]
                    .config
                    .get("train")
                    .and_then(|t| t.get("n_params"))
                    .and_then(|v| v.as_num())
                    .map(|v| v as usize),
                epochs: runs[0].epochs_planned,
                s_per_run: wall_s / runs.len() as f64,
                metrics,
            }
        })
        .collect()
}

/// Render rows as one aligned table per table id, in the order each
/// table's first row appears: row, final error (mean±std), best, params,
/// epochs, s/run and seeds (the runs the row holds), then one column per
/// scalar metric any of the table's rows carries, in first-seen order: its
/// mean, ± std when more than one run carries it, `-` when none does.
pub fn render_tables(rows: &[TableRow]) -> String {
    if rows.is_empty() {
        return "no finalized runs\n".to_string();
    }
    let mut ids: Vec<&str> = Vec::new();
    for row in rows {
        if !ids.contains(&row.table()) {
            ids.push(row.table());
        }
    }
    let render = |id: &str| {
        let rows: Vec<&TableRow> = rows.iter().filter(|r| r.table() == id).collect();
        let mut names: Vec<&str> = Vec::new();
        for (name, _) in rows.iter().flat_map(|r| &r.metrics) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        let mut header = vec![
            "row",
            "final error (mean±std)",
            "best",
            "params",
            "epochs",
            "s/run",
            "seeds",
        ];
        header.extend(&names);
        let mut table = TextTable::new(&header);
        for row in rows {
            let mut cells = vec![
                row.label().to_string(),
                mean_std(row.mean, row.std),
                format!("{:.3e}", row.best),
                row.n_params
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".into()),
                row.epochs.to_string(),
                format!("{:.1}", row.s_per_run),
                row.errors.len().to_string(),
            ];
            cells.extend(names.iter().map(|&name| {
                match row.metrics.iter().find(|(k, _)| k == name) {
                    None => "-".to_string(),
                    Some((_, vs)) if vs.len() == 1 => format!("{:.3e}", vs[0]),
                    Some((_, vs)) => {
                        let (mean, std) = mean_std_of(vs);
                        mean_std(mean, std)
                    }
                }
            }));
            table.row(&cells);
        }
        format!("{id}\n{}", table.render())
    };
    ids.into_iter().map(render).collect::<Vec<_>>().join("\n")
}

/// The `runs table` report over the store at `dir`: every run, or only
/// the ids in `only` (a table binary passes its session's runs).
/// Runs whose manifest does not parse are skipped.
pub fn table_report(dir: &Path, only: Option<&[String]>) -> std::io::Result<String> {
    let manifests: Vec<Manifest> = list_runs(dir)?
        .into_iter()
        .filter(|s| only.is_none_or(|ids| ids.contains(&s.run_id)))
        .filter_map(|s| read_manifest(&dir.join(&s.run_id)).ok())
        .collect();
    Ok(render_tables(&table_rows(&manifests)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_core::runs::{Manifest, RunOutcome};

    fn record(id: &str, seed: u64, lr: f64, final_loss: f64, losses: &[f64]) -> RunRecord {
        let config = Json::obj(vec![(
            "train",
            Json::obj(vec![("lr0", Json::Num(lr))]),
        )]);
        let config_hash = format!(
            "{:016x}",
            qpinn_core::runs::fnv1a64(&config.to_string())
        );
        let series = losses
            .iter()
            .enumerate()
            .map(|(i, l)| {
                Json::obj(vec![
                    ("kind", Json::Str("epoch".into())),
                    ("epoch", Json::Num((i * 10) as f64)),
                    ("loss", Json::Num(*l)),
                    ("grad_norm", Json::Num(l * 2.0)),
                ])
            })
            .collect();
        RunRecord {
            manifest: Manifest {
                run_id: id.into(),
                task: "demo".into(),
                seed,
                config,
                config_hash,
                threads: 1,
                simd: 1,
                env: Vec::new(),
                trace: String::new(),
                start_unix_ms: 1,
                end_unix_ms: Some(2),
                outcome: RunOutcome::Converged,
                epochs_planned: 30,
                epochs_run: Some(30),
                final_loss: Some(final_loss),
                final_error: Some(final_loss * 0.1),
                metrics: Vec::new(),
            },
            series,
        }
    }

    /// A finalized grid-table manifest: `start` orders runs, the run
    /// lasted `start` ms … `start + 1500` ms.
    fn table_run(
        id: &str,
        task: &str,
        hash: &str,
        seed: u64,
        start: u64,
        outcome: RunOutcome,
        final_error: Option<f64>,
    ) -> Manifest {
        Manifest {
            run_id: id.into(),
            task: task.into(),
            seed,
            config: Json::obj(vec![(
                "train",
                Json::obj(vec![("n_params", Json::Num(4347.0))]),
            )]),
            config_hash: hash.into(),
            threads: 1,
            simd: 1,
            env: Vec::new(),
            trace: String::new(),
            start_unix_ms: start,
            end_unix_ms: (outcome != RunOutcome::Incomplete).then_some(start + 1500),
            outcome,
            epochs_planned: 40,
            epochs_run: Some(40),
            final_loss: final_error,
            final_error,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn table_rows_group_by_label_and_config_hash() {
        use RunOutcome::Converged as C;
        let runs = [
            table_run("r1", "t1/free", "h1", 100, 10, C, Some(0.1)),
            table_run("r2", "t1/free", "h1", 101, 10, C, Some(0.2)),
            // same label at another budget: its own row
            table_run("r3", "t1/free", "h2", 100, 20, C, Some(0.3)),
            table_run("r4", "t3/w16-d2", "h1", 100, 30, C, Some(0.4)),
            table_run("r5", "t1/nls", "h3", 100, 40, C, Some(0.5)),
        ];
        let rows = table_rows(&runs);
        let keys: Vec<(&str, &str, usize)> = rows
            .iter()
            .map(|r| (r.task.as_str(), r.config_hash.as_str(), r.errors.len()))
            .collect();
        assert_eq!(
            keys,
            [
                ("t1/free", "h1", 2),
                ("t1/free", "h2", 1),
                ("t3/w16-d2", "h1", 1),
                ("t1/nls", "h3", 1),
            ]
        );
        // One table per label prefix, in first-row order; rows keep their
        // order within a table.
        let text = render_tables(&rows);
        let t1 = text.find("t1\nrow").expect("t1 table");
        let t3 = text.find("t3\nrow").expect("t3 table");
        assert!(t1 < t3, "{text}");
        assert!(text[t1..t3].contains("nls"), "{text}");
        assert!(!text[t3..].contains("free"), "{text}");
        assert!(text.contains("4347"), "{text}");
        assert!(text.contains("1.5"), "s/run from the timestamps: {text}");
    }

    #[test]
    fn table_statistics_follow_seed_order() {
        use RunOutcome::Converged as C;
        // Started out of seed order: the statistics must still see the
        // errors in seed order, as the trainer's seed list produced them.
        let runs = [
            table_run("b", "t1/free", "h", 102, 10, C, Some(0.3)),
            table_run("a", "t1/free", "h", 100, 11, C, Some(0.1)),
            table_run("c", "t1/free", "h", 101, 12, C, Some(0.7)),
        ];
        let rows = table_rows(&runs);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.errors, [0.1, 0.7, 0.3]);
        let (mean, std) = mean_std_of(&[0.1, 0.7, 0.3]);
        assert_eq!(row.mean.to_bits(), mean.to_bits());
        assert_eq!(row.std.to_bits(), std.to_bits());
        assert_eq!(row.best, 0.1);
        assert_eq!(row.n_params, Some(4347));
        assert_eq!(row.epochs, 40);
        let text = render_tables(&rows);
        assert!(text.contains(&mean_std(mean, std)), "{text}");
        assert!(text.contains("1.000e-1"), "{text}");
    }

    #[test]
    fn the_newest_run_per_seed_counts() {
        use RunOutcome::Converged as C;
        let runs = [
            table_run("old", "t1/free", "h", 100, 10, C, Some(0.9)),
            table_run("new", "t1/free", "h", 100, 20, C, Some(0.2)),
            table_run("other", "t1/free", "h", 101, 15, C, Some(0.4)),
        ];
        let rows = table_rows(&runs);
        assert_eq!(rows[0].errors, [0.2, 0.4]);
        // Rerunning the whole row leaves the seed count alone.
        let text = render_tables(&rows);
        assert!(
            text.lines().nth(3).unwrap().trim_end().ends_with("| 2"),
            "{text}"
        );
    }

    #[test]
    fn incomplete_runs_are_left_out() {
        use RunOutcome::{Converged as C, Incomplete as I};
        let runs = [
            table_run("a", "t1/free", "h", 100, 10, C, Some(0.1)),
            // killed rerun of seed 100: the finalized run still counts
            table_run("b", "t1/free", "h", 100, 20, I, None),
            table_run("c", "t1/free", "h", 101, 30, I, None),
            // a row whose only run never finished does not render
            table_run("d", "t1/nls", "h", 100, 40, I, None),
        ];
        let rows = table_rows(&runs);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].errors, [0.1]);
        assert!(!render_tables(&rows).contains("nls"));
        assert_eq!(
            render_tables(&table_rows(&runs[3..])),
            "no finalized runs\n"
        );
    }

    #[test]
    fn diverged_and_error_runs_still_count() {
        use RunOutcome::{Converged as C, Diverged as D, Error as E};
        let runs = [
            table_run("a", "t1/free", "h", 100, 10, C, Some(0.1)),
            table_run("b", "t1/free", "h", 101, 11, D, Some(2.5)),
        ];
        let rows = table_rows(&runs);
        assert_eq!(rows[0].errors, [0.1, 2.5]);
        assert_eq!(rows[0].mean, mean_std_of(&[0.1, 2.5]).0);
        // A non-finite final error is recorded as null and counts as NaN,
        // so the mean shows the failure; best still reports the finite run.
        let runs = [
            table_run("a", "t1/free", "h", 100, 10, C, Some(0.1)),
            table_run("b", "t1/free", "h", 101, 11, E, None),
        ];
        let rows = table_rows(&runs);
        assert!(rows[0].mean.is_nan());
        assert_eq!(rows[0].best, 0.1);
    }

    #[test]
    fn scalar_metrics_become_columns_of_their_table() {
        use RunOutcome::Converged as C;
        let with = |mut m: Manifest, metrics: Vec<(&str, Metric)>| {
            m.metrics = metrics.into_iter().map(|(k, v)| (k.into(), v)).collect();
            m
        };
        let runs = [
            with(
                table_run("a", "t6/hybrid", "h1", 100, 10, C, Some(0.1)),
                vec![
                    ("energy", Metric::Scalar(0.5)),
                    ("norm", Metric::Series(vec![1.0, 0.9])),
                    ("e_error", Metric::Scalar(0.1)),
                ],
            ),
            with(
                table_run("b", "t6/hybrid", "h1", 101, 11, C, Some(0.3)),
                vec![("energy", Metric::Scalar(0.7)), ("e_error", Metric::Scalar(0.3))],
            ),
            with(
                table_run("c", "t6/classical", "h2", 100, 12, C, Some(0.2)),
                vec![("e_error", Metric::Scalar(0.2))],
            ),
            table_run("d", "t1/free", "h3", 100, 13, C, Some(0.4)),
        ];
        let rows = table_rows(&runs);
        assert_eq!(
            rows[0].metrics,
            [("energy".into(), vec![0.5, 0.7]), ("e_error".into(), vec![0.1, 0.3])]
        );
        let text = render_tables(&rows);
        fn cells(line: &str) -> Vec<&str> {
            line.split('|').map(str::trim).collect()
        }
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t6", "{text}");
        assert_eq!(
            cells(lines[1]),
            [
                "row",
                "final error (mean±std)",
                "best",
                "params",
                "epochs",
                "s/run",
                "seeds",
                "energy",
                "e_error"
            ]
        );
        // Two seeds: mean ± std, as the error column.
        let hybrid = cells(lines[3]);
        let (mean, std) = mean_std_of(&[0.5, 0.7]);
        assert_eq!(hybrid[7], mean_std(mean, std), "{text}");
        // One run: its value; no run carries it: `-`.
        let classical = cells(lines[4]);
        assert_eq!((classical[7], classical[8]), ("-", "2.000e-1"), "{text}");
        // Arrays are never rendered, and a table without metrics keeps its
        // seven columns.
        assert!(!text.contains("norm"), "{text}");
        let t1 = text.split("t1\n").nth(1).expect("t1 table");
        assert_eq!(cells(t1.lines().next().unwrap()).len(), 7, "{text}");
    }

    #[test]
    fn show_prints_the_metrics_block() {
        let mut rec = record("a", 7, 1e-3, 1e-4, &[1.0, 0.1]);
        assert!(!show_report(&rec).contains("metrics:"));
        let norm = vec![1.0, 0.5, 0.25];
        rec.manifest.metrics = vec![
            ("omega".into(), Metric::Scalar(0.8956)),
            ("norm".into(), Metric::Series(norm.clone())),
        ];
        let text = show_report(&rec);
        assert!(text.contains("\nmetrics:\n"), "{text}");
        assert!(text.contains("  omega  8.956000e-1\n"), "{text}");
        let series = format!("  norm   {}  [1.000e0 → 2.500e-1, 3 points]\n", sparkline(&norm));
        assert!(text.contains(&series), "{text}");
    }

    #[test]
    fn identical_runs_diff_to_zero() {
        let a = record("a", 7, 1e-3, 1e-4, &[1.0, 0.1, 1e-4]);
        let b = record("b", 7, 1e-3, 1e-4, &[1.0, 0.1, 1e-4]);
        let d = diff(&a, &b);
        assert!(d.identical_setup);
        assert!(d.config.is_empty());
        assert!(d.zero_metric_delta, "{:?}", d.metrics);
        assert_eq!(d.aligned_epochs, 3);
        assert!(d.render().contains("reproducible"));
    }

    #[test]
    fn lr_change_shows_in_config_and_breaks_identity() {
        let a = record("a", 7, 1e-3, 1e-4, &[1.0, 0.1]);
        let b = record("b", 7, 1e-1, 5e-2, &[1.0, 0.5]);
        let d = diff(&a, &b);
        assert!(!d.identical_setup);
        assert!(d.config.iter().any(|c| c.key.contains("lr0")));
        assert!(!d.zero_metric_delta);
    }

    #[test]
    fn nonzero_delta_under_identical_setup_is_flagged() {
        let a = record("a", 7, 1e-3, 1e-4, &[1.0, 0.1]);
        let b = record("b", 7, 1e-3, 2e-4, &[1.0, 0.2]);
        let d = diff(&a, &b);
        assert!(d.identical_setup && !d.zero_metric_delta);
        assert!(d.render().contains("determinism violation"));
    }

    #[test]
    fn regress_gates_on_threshold_and_outcome() {
        let base = record("base", 7, 1e-3, 1e-4, &[1.0, 1e-4]);
        let same = record("cur", 7, 1e-3, 1.05e-4, &[1.0, 1.05e-4]);
        assert!(regress(&same, &base, 20.0).passed());
        let worse = record("cur", 7, 1e-1, 1e-2, &[1.0, 1e-2]);
        let rep = regress(&worse, &base, 20.0);
        assert!(!rep.passed());
        assert!(rep.render().contains("REGRESSED"));
        let mut diverged = record("cur", 7, 1e-3, 1e-4, &[1.0]);
        diverged.manifest.outcome = RunOutcome::Diverged;
        assert!(!regress(&diverged, &base, 20.0).passed());
        let mut unfinished = record("cur", 7, 1e-3, 1e-4, &[1.0]);
        unfinished.manifest.final_loss = None;
        unfinished.manifest.outcome = RunOutcome::Incomplete;
        assert!(!regress(&unfinished, &base, 20.0).passed());
    }
}
