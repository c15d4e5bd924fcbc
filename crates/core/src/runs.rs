//! `qpinn-run-v1`: durable experiment records for training runs.
//!
//! Every recorded run owns one directory under a store root (default
//! `target/runs`):
//!
//! ```text
//! target/runs/<run_id>/
//!   manifest.json   # atomic: config hash, seed, widths, env, outcome
//!   series.jsonl    # append-only: per-interval losses + gradient stats
//! ```
//!
//! The **manifest** is written via the same atomic tmp+fsync+rename idiom
//! the checkpoint store uses: once at run start with
//! `outcome: "incomplete"`, and once at the end with the terminal outcome
//! (`converged`, `diverged`, or `error`) plus the final loss and error. A
//! crash — or an injected `fs.enospc`/torn-write failure — between the
//! two leaves the *intact* start-of-run manifest behind, so the run
//! lists as `incomplete` rather than vanishing or corrupting. An
//! experiment's own measurements go into an optional `metrics` block, a
//! third atomic write after finalize ([`record_metrics`]); a manifest
//! without metrics carries no block at all.
//!
//! The **series** is an append-only JSONL stream: one `"epoch"` line per
//! `log_every` interval carrying the total loss, per-component losses
//! (the named terms of the run's own task,
//! [`crate::trainer::PinnTask::loss_terms`]), per-layer gradient norm
//! *and variance* — the barren-plateau signal a histogram cannot
//! recover, because it needs norm and variance from the *same* interval
//! — plus `"checkpoint"` and `"diverged"` event lines.
//!
//! Run ids come from the same process-global splitmix64 stream as
//! request trace ids ([`qpinn_telemetry::trace::fresh_id`]), so a run
//! launched by a traced `POST /v1/train` request carries both its own id
//! and the submitting request's trace id.
//!
//! Consumers: `qpinn-obs runs {list,show,diff,regress,table}` and the
//! `qpinn-serve` HTTP routes `GET /v1/runs` and `GET /v1/runs/<id>`.

use crate::report::Json;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Schema tag written into every manifest.
pub const RUN_SCHEMA: &str = "qpinn-run-v1";

/// The default store root, shared by the trainer (writer), the obs CLI,
/// and the HTTP routes: `target/runs`.
pub fn default_dir() -> PathBuf {
    Path::new("target").join("runs")
}

/// Declarative run-recording request, carried by
/// [`crate::trainer::TrainConfig::run`]. The trainer opens the actual
/// [`RunRecorder`] when the segment starts.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Store root (each run creates `<dir>/<run_id>/`).
    pub dir: PathBuf,
    /// Task label shown by `runs list` (e.g. `t1/harmonic`).
    pub task: String,
    /// Seed the run trains under.
    pub seed: u64,
    /// Task/architecture configuration, hashed into `config_hash`.
    pub config: Json,
    /// Trace id of the submitting request (empty when the run was not
    /// launched through a traced HTTP request).
    pub trace: String,
    /// Pre-assigned run id; `None` mints a fresh one at begin. The serve
    /// plane pre-mints so a job can report its run id while training.
    pub run_id: Option<String>,
}

impl RunConfig {
    /// Record under `dir` with a task label and seed.
    pub fn new(dir: impl Into<PathBuf>, task: impl Into<String>, seed: u64) -> Self {
        RunConfig {
            dir: dir.into(),
            task: task.into(),
            seed,
            config: Json::Obj(Vec::new()),
            trace: String::new(),
            run_id: None,
        }
    }

    /// Attach the task/architecture configuration document.
    pub fn config(mut self, config: Json) -> Self {
        self.config = config;
        self
    }

    /// Stamp the submitting request's trace id.
    pub fn trace(mut self, trace: impl Into<String>) -> Self {
        self.trace = trace.into();
        self
    }

    /// Pin the run id instead of minting one at begin.
    pub fn run_id(mut self, id: impl Into<String>) -> Self {
        self.run_id = Some(id.into());
        self
    }
}

/// Terminal (or current) state of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Ran its budget with a finite final loss.
    Converged,
    /// Stopped early by the divergence guard.
    Diverged,
    /// Finished with a non-finite final loss.
    Error,
    /// Started but never finalized (crash, kill, or torn finalize).
    Incomplete,
}

impl RunOutcome {
    /// The manifest string for this outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            RunOutcome::Converged => "converged",
            RunOutcome::Diverged => "diverged",
            RunOutcome::Error => "error",
            RunOutcome::Incomplete => "incomplete",
        }
    }

    /// Inverse of [`RunOutcome::as_str`].
    pub fn parse(s: &str) -> Option<RunOutcome> {
        match s {
            "converged" => Some(RunOutcome::Converged),
            "diverged" => Some(RunOutcome::Diverged),
            "error" => Some(RunOutcome::Error),
            "incomplete" => Some(RunOutcome::Incomplete),
            _ => None,
        }
    }
}

/// One entry of a manifest's `metrics` block.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A number; `runs table` renders it as a column.
    Scalar(f64),
    /// An array of numbers (a figure's series); `runs show` summarizes it.
    Series(Vec<f64>),
}

/// The `manifest.json` document (see [`RUN_SCHEMA`]).
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Run id (16 hex digits from the trace-id stream).
    pub run_id: String,
    /// Task label.
    pub task: String,
    /// Training seed.
    pub seed: u64,
    /// Task/architecture/trainer configuration document.
    pub config: Json,
    /// FNV-1a-64 of the canonical `config` serialization, hex.
    pub config_hash: String,
    /// Work-stealing pool width the run executed under.
    pub threads: usize,
    /// Resolved `QPINN_SIMD` dispatch width (1, 4, or 8).
    pub simd: usize,
    /// Captured `QPINN_*` environment, sorted by name.
    pub env: Vec<(String, String)>,
    /// Submitting request's trace id ("" when none).
    pub trace: String,
    /// Wall-clock run start (unix milliseconds).
    pub start_unix_ms: u64,
    /// Wall-clock run end; `None` until finalized.
    pub end_unix_ms: Option<u64>,
    /// Current outcome.
    pub outcome: RunOutcome,
    /// Epoch budget the run was configured with.
    pub epochs_planned: usize,
    /// Epochs actually run; `None` until finalized.
    pub epochs_run: Option<usize>,
    /// Final loss; `None` until finalized.
    pub final_loss: Option<f64>,
    /// Final evaluation error; `None` until finalized.
    pub final_error: Option<f64>,
    /// The experiment's own measurements, by name in insertion order
    /// ([`record_metrics`]); empty until recorded.
    pub metrics: Vec<(String, Metric)>,
}

impl Manifest {
    /// Serialize to the frozen `qpinn-run-v1` manifest document.
    pub fn to_json(&self) -> Json {
        let env = self
            .env
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let mut doc = vec![
            ("schema", Json::Str(RUN_SCHEMA.to_string())),
            ("run_id", Json::Str(self.run_id.clone())),
            ("task", Json::Str(self.task.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("config", self.config.clone()),
            ("config_hash", Json::Str(self.config_hash.clone())),
            ("threads", Json::Num(self.threads as f64)),
            ("simd", Json::Num(self.simd as f64)),
            ("env", Json::Obj(env)),
            ("trace", Json::Str(self.trace.clone())),
            ("start_unix_ms", Json::Num(self.start_unix_ms as f64)),
            (
                "end_unix_ms",
                opt_num(self.end_unix_ms.map(|v| v as f64)),
            ),
            ("outcome", Json::Str(self.outcome.as_str().to_string())),
            ("epochs_planned", Json::Num(self.epochs_planned as f64)),
            (
                "epochs_run",
                opt_num(self.epochs_run.map(|v| v as f64)),
            ),
            ("final_loss", opt_num(self.final_loss)),
            ("final_error", opt_num(self.final_error)),
        ];
        if !self.metrics.is_empty() {
            let metrics = self.metrics.iter().map(|(k, m)| match m {
                Metric::Scalar(v) => (k.clone(), Json::Num(*v)),
                Metric::Series(vs) => (k.clone(), Json::nums(vs)),
            });
            doc.push(("metrics", Json::Obj(metrics.collect())));
        }
        Json::obj(doc)
    }

    /// Parse a manifest document back; rejects unknown schema tags. Fields
    /// are read by key and unknown keys are ignored.
    pub fn from_json(doc: &Json) -> Result<Manifest, String> {
        let schema = doc
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("manifest missing `schema`")?;
        if schema != RUN_SCHEMA {
            return Err(format!("unknown run schema `{schema}`"));
        }
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or(format!("manifest missing string `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(|v| v.as_num())
                .ok_or(format!("manifest missing number `{key}`"))
        };
        let opt_num = |key: &str| doc.get(key).and_then(|v| v.as_num());
        let env = match doc.get("env") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect(),
            _ => Vec::new(),
        };
        // A non-finite number serializes as `null` and reads back as NaN.
        let num = |v: &Json| match v {
            Json::Null => Some(f64::NAN),
            v => v.as_num(),
        };
        let metric = |v: &Json| match v {
            Json::Arr(vs) => vs.iter().map(num).collect::<Option<_>>().map(Metric::Series),
            v => num(v).map(Metric::Scalar),
        };
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), metric(v)?)))
                .collect(),
            _ => Vec::new(),
        };
        let outcome_s = str_field("outcome")?;
        Ok(Manifest {
            run_id: str_field("run_id")?,
            task: str_field("task")?,
            seed: num_field("seed")? as u64,
            config: doc.get("config").cloned().unwrap_or(Json::Null),
            config_hash: str_field("config_hash")?,
            threads: num_field("threads")? as usize,
            simd: num_field("simd")? as usize,
            env,
            trace: str_field("trace").unwrap_or_default(),
            start_unix_ms: num_field("start_unix_ms")? as u64,
            end_unix_ms: opt_num("end_unix_ms").map(|v| v as u64),
            outcome: RunOutcome::parse(&outcome_s)
                .ok_or(format!("unknown outcome `{outcome_s}`"))?,
            epochs_planned: num_field("epochs_planned")? as usize,
            epochs_run: opt_num("epochs_run").map(|v| v as usize),
            final_loss: opt_num("final_loss"),
            final_error: opt_num("final_error"),
            metrics,
        })
    }
}

/// Per-layer gradient statistics for one log interval.
#[derive(Clone, Debug)]
pub struct LayerGrad {
    /// Parameter-tensor (layer) name.
    pub name: String,
    /// L2 norm of the layer's gradient (pre-clip).
    pub norm: f64,
    /// Population variance of the layer's gradient entries — the
    /// barren-plateau signal: variance collapsing toward zero across
    /// depth is the diagnostic the mitigation literature tracks.
    pub var: f64,
}

/// One `"epoch"` line of the series.
#[derive(Clone, Debug, Default)]
pub struct EpochPoint {
    /// Epoch index.
    pub epoch: usize,
    /// Total loss.
    pub loss: f64,
    /// Global gradient norm (pre-clip).
    pub grad_norm: f64,
    /// Learning rate.
    pub lr: f64,
    /// Measured milliseconds per epoch over the last interval (0 until
    /// a full interval has elapsed).
    pub epoch_ms: f64,
    /// The run's own unweighted named loss terms
    /// ([`crate::trainer::PinnTask::loss_terms`] of the interval's last
    /// loss build), in name order; empty for a task that names none.
    pub components: Vec<(String, f64)>,
    /// Per-layer gradient norm + variance.
    pub layers: Vec<LayerGrad>,
}

impl EpochPoint {
    /// Serialize as one frozen series line.
    pub fn to_json(&self) -> Json {
        let components = self
            .components
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let grad = self
            .layers
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    Json::obj(vec![("norm", Json::Num(l.norm)), ("var", Json::Num(l.var))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::Str("epoch".to_string())),
            ("epoch", Json::Num(self.epoch as f64)),
            ("loss", Json::Num(self.loss)),
            ("grad_norm", Json::Num(self.grad_norm)),
            ("lr", Json::Num(self.lr)),
            ("epoch_ms", Json::Num(self.epoch_ms)),
            ("components", Json::Obj(components)),
            ("grad", Json::Obj(grad)),
        ])
    }
}

/// FNV-1a 64-bit over a string — the config hash. Stable, zero-dep, and
/// good enough to answer "same configuration?" across runs.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Captured `QPINN_*` environment, sorted by name (manifest `env`).
pub fn captured_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("QPINN_"))
        .collect();
    vars.sort();
    vars
}

/// Atomically publish `doc` as `<run_dir>/manifest.json` via the
/// tmp+fsync+rename idiom. Failpoints: `fs.enospc` (nothing lands) and
/// `runs.manifest_torn` (half the payload reaches the tmp file, which is
/// never renamed — the previously published manifest stays intact).
fn write_manifest(run_dir: &Path, doc: &Json) -> io::Result<()> {
    let final_path = run_dir.join("manifest.json");
    let tmp_path = run_dir.join("manifest.json.tmp");
    qpinn_testkit::fail_io("fs.enospc")?;
    let bytes = doc.to_string();
    {
        let mut f = fs::File::create(&tmp_path)?;
        if qpinn_testkit::should_fail("runs.manifest_torn") {
            f.write_all(&bytes.as_bytes()[..bytes.len() / 2])?;
            let _ = f.sync_all();
            return Err(qpinn_testkit::injected_io_error("runs.manifest_torn"));
        }
        f.write_all(bytes.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = fs::File::open(run_dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Writes one run's record as training progresses. Opened by the trainer
/// from a [`RunConfig`]; I/O failures after a successful begin degrade
/// to warnings (a full disk must not kill training), leaving whatever
/// was durably published behind.
pub struct RunRecorder {
    run_dir: PathBuf,
    manifest: Manifest,
    series: Option<fs::File>,
    io_failed: bool,
}

impl RunRecorder {
    /// Create `<cfg.dir>/<run_id>/`, publish the start-of-run manifest
    /// (`outcome: "incomplete"`), and open the series stream.
    pub fn begin(cfg: &RunConfig, epochs_planned: usize, train: Json) -> io::Result<RunRecorder> {
        let run_id = cfg
            .run_id
            .clone()
            .unwrap_or_else(qpinn_telemetry::trace::fresh_id);
        let run_dir = cfg.dir.join(&run_id);
        fs::create_dir_all(&run_dir)?;
        // The hashed configuration couples the caller's task/arch block
        // with the trainer hyperparameters, so "identical config" means
        // identical end to end.
        let config = Json::obj(vec![("task", cfg.config.clone()), ("train", train)]);
        let config_hash = format!("{:016x}", fnv1a64(&config.to_string()));
        let manifest = Manifest {
            run_id: run_id.clone(),
            task: cfg.task.clone(),
            seed: cfg.seed,
            config,
            config_hash,
            threads: rayon::current_num_threads(),
            simd: qpinn_tensor::simd::width(),
            env: captured_env(),
            trace: cfg.trace.clone(),
            start_unix_ms: now_unix_ms(),
            end_unix_ms: None,
            outcome: RunOutcome::Incomplete,
            epochs_planned,
            epochs_run: None,
            final_loss: None,
            final_error: None,
            metrics: Vec::new(),
        };
        write_manifest(&run_dir, &manifest.to_json())?;
        let series = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(run_dir.join("series.jsonl"))?;
        register_session_run(&run_id);
        Ok(RunRecorder {
            run_dir,
            manifest,
            series: Some(series),
            io_failed: false,
        })
    }

    /// This run's id.
    pub fn run_id(&self) -> &str {
        &self.manifest.run_id
    }

    fn append_line(&mut self, doc: &Json) {
        let Some(f) = self.series.as_mut() else { return };
        let mut line = doc.to_string();
        line.push('\n');
        if let Err(e) = qpinn_testkit::fail_io("fs.enospc").and_then(|_| f.write_all(line.as_bytes()))
        {
            if !self.io_failed {
                self.io_failed = true;
                qpinn_telemetry::warn(
                    "run_series_write_failed",
                    format!("run {} series append failed: {e}", self.manifest.run_id),
                );
            }
        }
    }

    /// Append one `"epoch"` series line.
    pub fn epoch(&mut self, point: &EpochPoint) {
        self.append_line(&point.to_json());
    }

    /// Append a `"checkpoint"` event line.
    pub fn checkpoint(&mut self, epoch: usize, path: &Path) {
        self.append_line(&Json::obj(vec![
            ("kind", Json::Str("checkpoint".to_string())),
            ("epoch", Json::Num(epoch as f64)),
            ("path", Json::Str(path.display().to_string())),
        ]));
    }

    /// Append a `"diverged"` event line.
    pub fn diverged(&mut self, epoch: usize, loss: f64, min_loss: f64) {
        self.append_line(&Json::obj(vec![
            ("kind", Json::Str("diverged".to_string())),
            ("epoch", Json::Num(epoch as f64)),
            ("loss", Json::Num(loss)),
            ("min_loss", Json::Num(min_loss)),
        ]));
    }

    /// Publish the terminal manifest. On failure the start-of-run
    /// manifest (outcome `incomplete`) stays behind intact.
    pub fn finalize(
        &mut self,
        outcome: RunOutcome,
        epochs_run: usize,
        final_loss: f64,
        final_error: f64,
    ) -> io::Result<()> {
        if let Some(f) = self.series.take() {
            let _ = f.sync_all();
        }
        self.manifest.end_unix_ms = Some(now_unix_ms());
        self.manifest.outcome = outcome;
        self.manifest.epochs_run = Some(epochs_run);
        self.manifest.final_loss = Some(final_loss);
        self.manifest.final_error = Some(final_error);
        write_manifest(&self.run_dir, &self.manifest.to_json())
    }
}

/// Record an experiment's measurements in the finalized manifest of
/// `dir/<run_id>`: the manifest is rewritten with `metrics` as its
/// `metrics` block (replacing any earlier block) through the atomic
/// manifest write, so a failed write leaves the finalized manifest intact.
pub fn record_metrics<K: Into<String>>(
    dir: &Path,
    run_id: &str,
    metrics: Vec<(K, Metric)>,
) -> io::Result<()> {
    let run_dir = dir.join(run_id);
    let mut manifest = read_manifest(&run_dir)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("run {run_id}: {e}")))?;
    manifest.metrics = metrics.into_iter().map(|(k, m)| (k.into(), m)).collect();
    write_manifest(&run_dir, &manifest.to_json())
}

/// Run ids recorded by this process, in begin order — lets a bench binary
/// render the runs it recorded.
pub fn session_run_ids() -> Vec<String> {
    session_runs()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

fn register_session_run(id: &str) {
    session_runs()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(id.to_string());
}

fn session_runs() -> &'static std::sync::Mutex<Vec<String>> {
    static RUNS: std::sync::OnceLock<std::sync::Mutex<Vec<String>>> = std::sync::OnceLock::new();
    RUNS.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// One row of `runs list` / `GET /v1/runs`.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Run id (directory name).
    pub run_id: String,
    /// Task label ("?" when the manifest is missing or unreadable).
    pub task: String,
    /// Seed, when known.
    pub seed: Option<u64>,
    /// Final loss, when finalized.
    pub final_loss: Option<f64>,
    /// Outcome string; unreadable manifests report `incomplete`.
    pub outcome: String,
    /// Run start, unix ms (0 when unknown).
    pub start_unix_ms: u64,
}

/// List every run under `dir`, oldest first (by start time, then id).
/// A directory whose manifest is missing or unparseable still lists —
/// as `incomplete` — because a torn start is itself a signal.
pub fn list_runs(dir: &Path) -> io::Result<Vec<RunSummary>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        if !entry.path().is_dir() {
            continue;
        }
        let run_id = entry.file_name().to_string_lossy().to_string();
        let summary = match read_manifest(&entry.path()) {
            Ok(m) => RunSummary {
                run_id: m.run_id,
                task: m.task,
                seed: Some(m.seed),
                final_loss: m.final_loss,
                outcome: m.outcome.as_str().to_string(),
                start_unix_ms: m.start_unix_ms,
            },
            Err(_) => RunSummary {
                run_id,
                task: "?".to_string(),
                seed: None,
                final_loss: None,
                outcome: RunOutcome::Incomplete.as_str().to_string(),
                start_unix_ms: 0,
            },
        };
        out.push(summary);
    }
    out.sort_by(|a, b| {
        a.start_unix_ms
            .cmp(&b.start_unix_ms)
            .then_with(|| a.run_id.cmp(&b.run_id))
    });
    Ok(out)
}

/// Parse `<run_dir>/manifest.json`.
pub fn read_manifest(run_dir: &Path) -> Result<Manifest, String> {
    let text = fs::read_to_string(run_dir.join("manifest.json")).map_err(|e| e.to_string())?;
    Manifest::from_json(&Json::parse(&text)?)
}

/// A fully loaded run record.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The parsed manifest.
    pub manifest: Manifest,
    /// Parsed series lines, file order. A torn trailing line (crash mid
    /// append) is dropped rather than failing the load.
    pub series: Vec<Json>,
}

impl RunRecord {
    /// `(epoch, value)` pairs of a top-level numeric field over the
    /// `"epoch"` series lines (e.g. `"loss"`, `"grad_norm"`).
    pub fn series_of(&self, field: &str) -> Vec<(usize, f64)> {
        self.series
            .iter()
            .filter(|l| l.get("kind").and_then(|k| k.as_str()) == Some("epoch"))
            .filter_map(|l| {
                let e = l.get("epoch")?.as_num()? as usize;
                let v = l.get(field)?.as_num()?;
                Some((e, v))
            })
            .collect()
    }
}

/// Load one run's manifest + series from `dir/<run_id>/`.
pub fn load_run(dir: &Path, run_id: &str) -> io::Result<RunRecord> {
    let run_dir = dir.join(run_id);
    let manifest = read_manifest(&run_dir)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("run {run_id}: {e}")))?;
    let mut series = Vec::new();
    match fs::read_to_string(run_dir.join("series.jsonl")) {
        Ok(text) => {
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match Json::parse(line) {
                    Ok(doc) => series.push(doc),
                    // A torn trailing append is expected debris after a
                    // crash; anything else parseable was already kept.
                    Err(_) => break,
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(RunRecord { manifest, series })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qpinn-runs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_cfg(dir: &Path) -> RunConfig {
        RunConfig::new(dir, "demo", 7).config(Json::obj(vec![("width", Json::Num(8.0))]))
    }

    #[test]
    fn lifecycle_begin_append_finalize_roundtrips() {
        let dir = tmp_store("lifecycle");
        let mut rec = RunRecorder::begin(&demo_cfg(&dir), 100, Json::obj(vec![])).unwrap();
        let id = rec.run_id().to_string();
        assert_eq!(id.len(), 16);
        // Start-of-run manifest is already durable and incomplete.
        let listed = list_runs(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].outcome, "incomplete");
        rec.epoch(&EpochPoint {
            epoch: 0,
            loss: 1.5,
            grad_norm: 2.0,
            lr: 1e-3,
            epoch_ms: 0.0,
            components: vec![("ic".into(), 0.5)],
            layers: vec![LayerGrad {
                name: "w".into(),
                norm: 2.0,
                var: 0.25,
            }],
        });
        rec.checkpoint(50, Path::new("ckpt/epoch-50.qps"));
        rec.finalize(RunOutcome::Converged, 100, 1e-3, 1e-2).unwrap();
        let loaded = load_run(&dir, &id).unwrap();
        assert_eq!(loaded.manifest.outcome, RunOutcome::Converged);
        assert_eq!(loaded.manifest.epochs_run, Some(100));
        assert_eq!(loaded.manifest.final_loss, Some(1e-3));
        assert_eq!(loaded.series.len(), 2);
        assert_eq!(loaded.series_of("loss"), vec![(0, 1.5)]);
        assert!(session_run_ids().contains(&id));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_configs_hash_identically_and_lr_changes_hash() {
        let dir = tmp_store("hash");
        let cfg = demo_cfg(&dir);
        let train = Json::obj(vec![("lr0", Json::Num(1e-3))]);
        let a = RunRecorder::begin(&cfg, 10, train.clone()).unwrap();
        let b = RunRecorder::begin(&cfg, 10, train).unwrap();
        let c =
            RunRecorder::begin(&cfg, 10, Json::obj(vec![("lr0", Json::Num(1e-1))])).unwrap();
        assert_eq!(a.manifest.config_hash, b.manifest.config_hash);
        assert_ne!(a.manifest.config_hash, c.manifest.config_hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_finalize_leaves_intact_incomplete_manifest() {
        let dir = tmp_store("torn");
        let mut rec = RunRecorder::begin(&demo_cfg(&dir), 10, Json::obj(vec![])).unwrap();
        let id = rec.run_id().to_string();
        {
            let _fp = qpinn_testkit::arm("runs.manifest_torn", qpinn_testkit::Trigger::Always);
            assert!(rec.finalize(RunOutcome::Converged, 10, 0.1, 0.1).is_err());
        }
        // The published manifest is still valid JSON and still incomplete.
        let loaded = load_run(&dir, &id).unwrap();
        assert_eq!(loaded.manifest.outcome, RunOutcome::Incomplete);
        let listed = list_runs(&dir).unwrap();
        assert_eq!(listed[0].outcome, "incomplete");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a64_is_the_reference_function() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
