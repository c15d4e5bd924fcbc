//! # qpinn-bench
//!
//! The experiment harness — see `DESIGN.md` §5 for the experiment index.
//! The grid tables (T1, T3, T4, F3) are rows of one `tables` binary: it
//! records every run in the `qpinn-run-v1` store and prints the tables
//! `qpinn-obs runs table` renders from it. The other tables and figures
//! keep one binary each, beside the `kernels` tensor-kernel timings and
//! the `sweep` front door; each prints its table/series as aligned text
//! and writes a JSON record to `target/experiments/<id>.json`. Every
//! training run lands in the run store. Default settings are sized for a
//! quick laptop run; pass `--full` for paper-scale settings.

#![deny(missing_docs)]

use qpinn_core::model::CoordSpec;
use qpinn_core::report::Json;
use qpinn_core::{FieldNetConfig, ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_problems::{zoo, NlsProblem, PdeProblem};
use qpinn_qcircuit::QuantumLayer;
use qpinn_telemetry as telemetry;
use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};

/// Harness-wide run options parsed from the command line.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Paper-scale settings (`--full`).
    pub full: bool,
    /// Seed list length override (`--seeds N`).
    pub n_seeds: usize,
    /// Checkpoint root directory (`--ckpt DIR`). When set, experiments
    /// write crash-safe snapshots under it (one subdirectory per run) and
    /// resume-capable binaries pick up from the newest intact snapshot.
    pub ckpt: Option<PathBuf>,
    /// Telemetry JSONL output path (`--telemetry PATH`). When set,
    /// [`RunOpts::from_args`] installs a JSONL file sink (every span,
    /// metric flush, mark, and warning as one JSON object per line) plus a
    /// stderr sink for warnings, and [`finish_telemetry`] writes a final
    /// metrics snapshot under `target/experiments`.
    pub telemetry: Option<PathBuf>,
    /// Epoch budget override (`--epochs N`), applied by
    /// [`RunOpts::pick_epochs`] over both quick and full defaults. Sized
    /// for CI smoke runs that need a real binary to finish in seconds.
    pub epochs: Option<usize>,
    /// Live endpoint address (`--serve ADDR`, e.g. `127.0.0.1:0`; port 0
    /// picks a free port and prints it). When set, [`RunOpts::from_args`]
    /// starts a [`qpinn_serve::ServeServer`] with its model registry
    /// under `target/models` (or `--models DIR`) and the run store
    /// [`RunOpts::runs`], exposing `/metrics`, `/metrics.json`,
    /// `/progress`, `/healthz`, `/v1/runs`, `/v1/eval`, `/v1/train` and
    /// `/v1/models` for the lifetime of the process: the one way to watch
    /// a bench run live, and to drive load against a bench-built binary.
    pub serve: Option<String>,
    /// Access-log path for the inference server (`--access-log PATH`,
    /// only meaningful with `--serve`). Every request — including sheds
    /// and errors — is appended as one `qpinn-access-v1` JSON line with
    /// its trace id and queue/batch/compute/serialize latency split;
    /// feed the file to `qpinn-obs requests` / `qpinn-obs slo`.
    pub access_log: Option<PathBuf>,
    /// `qpinn-run-v1` run-record store directory: `--runs DIR`, default
    /// `target/runs` ([`qpinn_core::runs::default_dir`]). Every training
    /// run the experiment performs writes a durable manifest + epoch
    /// series under `DIR/<run_id>/` (via [`RunOpts::run_cfg`]), the
    /// experiment record lists the session's run ids, and `--serve` jobs
    /// record there too. Inspect with `qpinn-obs runs
    /// list/show/diff/regress/table`.
    pub runs: PathBuf,
}

/// Every `--name` flag a bench binary accepts: the [`RunOpts`] flags,
/// `--models` (with `--serve`), `tables`' `--table`, and `sweep`'s
/// `--problem`, `--ansatz`, `--list-problems` and `--list-ansatze`.
const KNOWN_FLAGS: &[&str] = &[
    "--full",
    "--seeds",
    "--ckpt",
    "--telemetry",
    "--epochs",
    "--serve",
    "--access-log",
    "--runs",
    "--models",
    "--table",
    "--problem",
    "--ansatz",
    "--list-problems",
    "--list-ansatze",
];

/// The first `--name` argument that is not in [`KNOWN_FLAGS`], if any.
/// Arguments that do not start with `--` (flag values) are not checked.
fn unknown_flag(args: &[String]) -> Option<&str> {
    args.iter()
        .skip(1)
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !KNOWN_FLAGS.contains(a))
}

impl RunOpts {
    /// Parse from `std::env::args`. An unknown `--name` flag is a usage
    /// error: it prints the known flags and exits with status 2. Installs
    /// telemetry sinks as a side effect when `--telemetry PATH` is
    /// present.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if let Some(bad) = unknown_flag(&args) {
            eprintln!(
                "unknown flag '{bad}'; known flags: {}",
                KNOWN_FLAGS.join(" ")
            );
            std::process::exit(2);
        }
        let flag = |name| flag_value(&args, name);
        let full = args.iter().any(|a| a == "--full");
        let telemetry_path = flag("--telemetry").map(PathBuf::from);
        let serve = flag("--serve");
        let access_log = flag("--access-log").map(PathBuf::from);
        let runs = flag("--runs").map_or_else(qpinn_core::runs::default_dir, PathBuf::from);
        if let Some(addr) = &serve {
            let models_dir =
                flag("--models").map_or_else(|| Path::new("target").join("models"), PathBuf::from);
            let mut cfg = qpinn_serve::ServeConfig::new(&models_dir);
            cfg.trace.access_log = access_log.clone();
            cfg.runs = Some(runs.clone());
            match qpinn_serve::ServeServer::start(addr.as_str(), cfg) {
                Ok(server) => {
                    println!(
                        "serving inference on http://{} (models: {})",
                        server.local_addr(),
                        models_dir.display()
                    );
                    // The server lives until process exit; leaking the
                    // handle keeps its threads alive without a shutdown
                    // path every binary would have to thread.
                    std::mem::forget(server);
                }
                Err(e) => eprintln!(
                    "warning: cannot bind inference server {addr}: {e}; continuing without"
                ),
            }
        }
        if let Some(path) = &telemetry_path {
            match telemetry::JsonlSink::create(path) {
                Ok(sink) => {
                    telemetry::install(std::sync::Arc::new(sink));
                    telemetry::install(std::sync::Arc::new(telemetry::StderrSink));
                }
                Err(e) => eprintln!(
                    "warning: cannot open telemetry sink {}: {e}; continuing without",
                    path.display()
                ),
            }
        }
        RunOpts {
            full,
            n_seeds: flag("--seeds")
                .and_then(|v| v.parse().ok())
                .unwrap_or(if full { 5 } else { 2 }),
            ckpt: flag("--ckpt").map(PathBuf::from),
            telemetry: telemetry_path,
            epochs: flag("--epochs").and_then(|v| v.parse().ok()),
            serve,
            access_log,
            runs,
        }
    }

    /// The [`qpinn_core::runs::RunConfig`] for one training run of this
    /// experiment. `task` is the `runs list` label (e.g. `t1/harmonic`),
    /// `config` the document hashed into the manifest's `config_hash`.
    pub fn run_cfg(&self, task: &str, seed: u64, config: Json) -> qpinn_core::runs::RunConfig {
        qpinn_core::runs::RunConfig::new(&self.runs, task, seed).config(config)
    }

    /// The seed list for multi-seed experiments.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.n_seeds as u64).map(|i| 100 + i).collect()
    }

    /// Pick between quick and full values.
    pub fn pick<T: Copy>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// Like [`RunOpts::pick`] for epoch budgets, but a `--epochs N`
    /// override wins over both.
    pub fn pick_epochs(&self, quick: usize, full: usize) -> usize {
        self.epochs.unwrap_or_else(|| self.pick(quick, full))
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, title: &str, opts: &RunOpts) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!(
        "mode: {} | seeds: {}",
        if opts.full { "full" } else { "quick" },
        opts.n_seeds
    );
    if let Some(p) = &opts.telemetry {
        println!("telemetry: {}", p.display());
    }
    println!("==========================================================");
}

/// The git revision the binary runs from, read straight from
/// `.git/HEAD` (resolving one level of `ref:` indirection) walking up
/// from the working directory — no `git` subprocess. `None` outside a
/// checkout or on an unborn branch.
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let rev = match text.strip_prefix("ref: ") {
                Some(refname) => std::fs::read_to_string(dir.join(".git").join(refname.trim()))
                    .ok()
                    .map(|s| s.trim().to_string())
                    // Packed refs: fall back to scanning .git/packed-refs.
                    .or_else(|| {
                        let packed =
                            std::fs::read_to_string(dir.join(".git").join("packed-refs")).ok()?;
                        packed.lines().find_map(|l| {
                            l.strip_suffix(refname.trim())
                                .map(|hash| hash.trim().to_string())
                        })
                    })?,
                None => text.to_string(),
            };
            return (!rev.is_empty()).then_some(rev);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Build-provenance stamp attached to every experiment record: git
/// revision, resolved SIMD dispatch width, and work-stealing pool
/// width — so a committed `BENCH_*.json` entry is attributable to the
/// code and machine shape that produced it. The keys deliberately
/// carry no perf-direction suffix, so `qpinn-obs check` never gates on
/// them.
pub fn provenance() -> Json {
    Json::obj(vec![
        (
            "git_rev",
            git_rev().map(Json::Str).unwrap_or(Json::Null),
        ),
        ("simd", Json::Num(qpinn_tensor::simd::width() as f64)),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
    ])
}

/// Persist the experiment record and report the path. Top-level object
/// records gain a `provenance` stamp ([`provenance`]) and the ids of the
/// `qpinn-run-v1` runs the process recorded (`run_ids`). Then
/// [`finish_telemetry`].
pub fn save(id: &str, value: &Json) {
    let stamped;
    let value = match value {
        Json::Obj(fields) => {
            let mut fields = fields.clone();
            if !fields.iter().any(|(k, _)| k == "provenance") {
                fields.push(("provenance".to_string(), provenance()));
            }
            let run_ids = qpinn_core::runs::session_run_ids();
            if !run_ids.is_empty() && !fields.iter().any(|(k, _)| k == "run_ids") {
                fields.push((
                    "run_ids".to_string(),
                    Json::Arr(run_ids.into_iter().map(Json::Str).collect()),
                ));
            }
            stamped = Json::Obj(fields);
            &stamped
        }
        other => other,
    };
    match qpinn_core::report::write_experiment_json(id, value) {
        Ok(p) => println!("\n[written {}]", p.display()),
        Err(e) => {
            let msg = telemetry::warn(
                "experiment_record_write_failed",
                format!("could not write record for {id}: {e}"),
            );
            eprintln!("\n[{msg}]");
        }
    }
    finish_telemetry(id);
}

/// With telemetry enabled (`--telemetry`), sample the pool counters into
/// the event stream, write the final metrics-registry snapshot to
/// `target/experiments/<id>.metrics.json` (noted on stderr), and flush
/// all sinks. A no-op otherwise.
pub fn finish_telemetry(id: &str) {
    if !telemetry::enabled() {
        return;
    }
    qpinn_core::obs::emit_pool_stats(id);
    qpinn_core::obs::emit_buffer_pool_stats(id);
    let snap = telemetry::global().snapshot();
    telemetry::emit(snap.to_event("final_metrics"));
    let dir = Path::new("target").join("experiments");
    let path = dir.join(format!("{id}.metrics.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, snap.to_json())) {
        Ok(()) => eprintln!("[metrics snapshot {}]", path.display()),
        Err(e) => {
            let msg = telemetry::warn(
                "metrics_snapshot_write_failed",
                format!("could not write {}: {e}", path.display()),
            );
            eprintln!("[{msg}]");
        }
    }
    telemetry::flush();
}

/// The harness-standard Adam schedule (step decay ×0.85) for a given epoch
/// budget.
pub fn standard_train(epochs: usize) -> qpinn_core::TrainConfig {
    qpinn_core::TrainConfig {
        epochs,
        schedule: qpinn_optim::LrSchedule::Step {
            lr0: 3e-3,
            factor: 0.85,
            every: (epochs / 8).max(1),
        },
        log_every: (epochs / 20).max(1),
        eval_every: 0,
        clip: Some(100.0),
        // L-BFGS polishing after Adam is the single most effective
        // convergence lever at fixed budget (see EXPERIMENTS.md).
        lbfgs_polish: Some((epochs / 10).clamp(50, 200)),
        checkpoint: None,
        // Bench runs are unattended: stop runs whose loss has exploded
        // rather than burning the rest of the budget.
        divergence: Some(qpinn_core::DivergenceGuard::default()),
        progress: None,
        run: None,
    }
}

/// Builds a table row's problem afresh for each seeded run (a boxed
/// problem is not `Clone`).
pub type ProblemFactory = fn() -> Box<dyn PdeProblem>;

/// The training setup the Schrödinger tables and figures share:
/// [`ZooTaskConfig::standard`] with `n_collocation` interior points and
/// both the causal curriculum and the norm-conservation loss on.
pub fn wave_config(n_collocation: usize) -> ZooTaskConfig {
    ZooTaskConfig {
        n_collocation,
        causal: true,
        conservation: true,
        ..ZooTaskConfig::standard()
    }
}

/// The standard wave architecture for an `(x, t)` problem
/// ([`FieldNetConfig::standard_wave`]: periodic `x`, learned-period `t`,
/// 64 random Fourier features, a `width × depth` tanh trunk).
pub fn wave_net(problem: &dyn PdeProblem, width: usize, depth: usize) -> FieldNetConfig {
    let c = problem.coords();
    FieldNetConfig::standard_wave(c[0].span(), c[1].span(), width, depth)
}

/// The settings of a [`FieldNetConfig`] run as its run record carries
/// them: the problem key, the trunk's width and depth, the collocation
/// count, and which convergence enhancements are on.
pub fn net_doc(problem: &str, net: &FieldNetConfig, task: &ZooTaskConfig) -> Json {
    Json::obj(vec![
        ("problem", Json::Str(problem.to_string())),
        ("width", Json::Num(net.hidden[0] as f64)),
        ("depth", Json::Num(net.hidden.len() as f64)),
        ("n_collocation", Json::Num(task.n_collocation as f64)),
        ("rff", Json::Bool(net.rff.is_some())),
        (
            "periodic",
            Json::Bool(matches!(net.coords[0], CoordSpec::Periodic { .. })),
        ),
        ("causal", Json::Bool(task.causal)),
        ("conservation", Json::Bool(task.conservation)),
    ])
}

/// The settings of a hybrid-network run as its run record carries them:
/// the circuit, the classical hidden width and the collocation count.
pub fn hybrid_doc(q: &QuantumLayer, hidden: usize, n_collocation: usize) -> Json {
    Json::obj(vec![
        ("ansatz", Json::Str(q.ansatz.name().to_string())),
        ("scaling", Json::Str(q.scaling.name().to_string())),
        ("reupload", Json::Bool(q.reupload)),
        ("n_qubits", Json::Num(q.n_qubits as f64)),
        ("layers", Json::Num(q.layers as f64)),
        ("hidden", Json::Num(hidden as f64)),
        ("n_collocation", Json::Num(n_collocation as f64)),
    ])
}

/// A [`ZooTask`] and its parameters, built from `seed` — the shape the
/// multi-seed runners take.
pub fn seeded_task(
    problem: Box<dyn PdeProblem>,
    net: &FieldNetConfig,
    cfg: &ZooTaskConfig,
    seed: u64,
) -> (ZooTask, ParamSet) {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let task = ZooTask::new(problem, net, cfg, &mut params, &mut rng);
    (task, params)
}

/// The Raissi et al. NLS benchmark (`h(0, x) = 2 sech x`). It has no
/// registry key: the registry requires a closed form or an independent
/// solver for every family, and this bound state has neither.
pub fn nls_raissi() -> Box<dyn PdeProblem> {
    zoo::nls(
        "nls-raissi",
        "focusing cubic NLS, Raissi 2-soliton bound state",
        NlsProblem::raissi_benchmark(),
    )
}

/// The value following `--NAME` in an argument list, if any. The shared
/// primitive behind the registry-facing flags (`--problem`, `--ansatz`)
/// so binaries and tests parse them identically.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Resolve a `--problem KEY` value against the problem registry. The
/// error message lists every registered key (it is shown verbatim to the
/// user before exiting with status 2).
pub fn resolve_problem(key: &str) -> Result<Box<dyn qpinn_problems::PdeProblem>, String> {
    qpinn_problems::lookup(key).map_err(|e| format!("--problem: {e}"))
}

/// Resolve an `--ansatz NAME` value against the named ansatz table. As
/// with [`resolve_problem`], the error lists the valid names.
pub fn resolve_ansatz(name: &str) -> Result<qpinn_qcircuit::Ansatz, String> {
    qpinn_qcircuit::Ansatz::from_name(name).ok_or_else(|| {
        format!(
            "--ansatz: unknown ansatz '{name}'; registered: {}",
            qpinn_qcircuit::Ansatz::names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(full: bool) -> RunOpts {
        RunOpts {
            full,
            n_seeds: if full { 5 } else { 2 },
            ckpt: None,
            telemetry: None,
            epochs: None,
            serve: None,
            access_log: None,
            runs: qpinn_core::runs::default_dir(),
        }
    }

    #[test]
    fn pick_switches_on_mode() {
        let (quick, full) = (opts(false), opts(true));
        assert_eq!(quick.pick(1, 10), 1);
        assert_eq!(full.pick(1, 10), 10);
        assert_eq!(quick.seeds(), vec![100, 101]);
    }

    #[test]
    fn epochs_override_beats_mode() {
        let mut opts = opts(false);
        assert_eq!(opts.pick_epochs(100, 1000), 100);
        opts.full = true;
        assert_eq!(opts.pick_epochs(100, 1000), 1000);
        opts.epochs = Some(7);
        assert_eq!(opts.pick_epochs(100, 1000), 7);
    }

    #[test]
    fn flag_value_parses_pairs_and_ignores_missing() {
        let args: Vec<String> = ["sweep", "--problem", "helmholtz", "--ansatz", "layered"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--problem").as_deref(), Some("helmholtz"));
        assert_eq!(flag_value(&args, "--ansatz").as_deref(), Some("layered"));
        assert_eq!(flag_value(&args, "--epochs"), None);
        // trailing flag with no value
        let args = vec!["sweep".to_string(), "--problem".to_string()];
        assert_eq!(flag_value(&args, "--problem"), None);
    }

    #[test]
    fn unknown_flags_are_named_and_flag_values_pass() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let every_flag: Vec<&str> = std::iter::once("tables")
            .chain(KNOWN_FLAGS.iter().copied())
            .collect();
        assert_eq!(unknown_flag(&args(&every_flag)), None);
        let ok = ["tables", "--table", "t1", "--serve", "127.0.0.1:0"];
        assert_eq!(unknown_flag(&args(&ok)), None);
        let removed = ["tables", "--epochs", "5", "--serve-metrics", "127.0.0.1:0"];
        assert_eq!(unknown_flag(&args(&removed)), Some("--serve-metrics"));
        assert_eq!(unknown_flag(&args(&["t6_hybrid", "--epoch", "5"])), Some("--epoch"));
        // The program name is never a flag, whatever it is called.
        assert_eq!(unknown_flag(&args(&["--odd-name", "--full"])), None);
    }

    #[test]
    fn every_registry_key_round_trips_through_the_problem_flag() {
        for key in qpinn_problems::keys() {
            let p = resolve_problem(key).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(p.key(), key);
        }
    }

    #[test]
    fn every_ansatz_name_round_trips_through_the_ansatz_flag() {
        for name in qpinn_qcircuit::Ansatz::names() {
            let a = resolve_ansatz(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a.name(), name);
        }
    }

    #[test]
    fn unknown_flag_values_error_and_list_the_registry() {
        let err = match resolve_problem("not-a-problem") {
            Ok(p) => panic!("resolved unknown key to {}", p.key()),
            Err(e) => e,
        };
        assert!(err.contains("helmholtz"), "should list keys: {err}");
        assert!(err.contains("gray-scott"), "should list keys: {err}");
        let err = resolve_ansatz("not-an-ansatz").unwrap_err();
        assert!(err.contains("layered"), "should list names: {err}");
    }
}
