//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare A.out B.out
//! ```
//!
//! A run prints one `metric` line per figure (value, unit, sample count),
//! any `note` lines, a `provenance` line, and as its last line a JSON
//! object `{"correct","attempted","failed","metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set of [`E2E`]; with `--trace 1` they
//! are the per-layer set of [`PER_LAYER`], where a layer the workload does
//! not exercise reads 0. The exit code is 1 when a correctness check
//! failed. `compare` reads two saved outputs and refuses (exit 2) when
//! their provenance differs in anything but the git revision.

mod check;
mod loadgen;
mod serve;
mod stats;
mod trace;
mod train;

use qpinn_core::report::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, measured on every workload with tracing off.
/// `op` is one Adam epoch on the train workloads and one eval request on
/// serve-eval; `best` is the fastest of the run's measurement windows
/// (see `perfbench/README.md`).
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50_best", "ms"),
    ("ops_per_s_best", "1/s"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trainer.time_to_target_s", "s"),
    ("trainer.epochs_to_target", "count"),
    ("trainer.final_error", "ratio"),
    ("trainer.epoch_ms_p50", "ms"),
    ("trainer.epoch_ms_p90", "ms"),
    ("trainer.loss_ms", "ms"),
    ("trainer.backward_ms", "ms"),
    ("trainer.step_ms", "ms"),
    ("trainer.eval_ms", "ms"),
    ("autodiff.tape_nodes", "count"),
    ("tensor.pool.alloc_per_epoch", "count"),
    ("tensor.pool.reuse_frac", "ratio"),
    ("rayon.sets_per_epoch", "count"),
    ("rayon.steal_frac", "ratio"),
    ("rayon.epoch_ms_w1", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("model.forward_jet_ms", "ms"),
    ("problems.residual_ms", "ms"),
    ("problems.reference_s", "s"),
    ("sampling.lhs_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_gflop_per_epoch", "GFLOP"),
    ("tensor.matmul_share", "ratio"),
    ("tensor.elementwise_gbps", "GB/s"),
    ("tensor.elementwise_flop_per_byte", "FLOP/B"),
    ("qcircuit.forward_us", "us"),
    ("qcircuit.jvp_us", "us"),
    ("qcircuit.jacobians_us", "us"),
    ("qcircuit.jvp_grads_us", "us"),
    ("qcircuit.backward_share", "ratio"),
    ("model.predict_us_per_point.n16", "us"),
    ("model.predict_us_per_point.n256", "us"),
    ("model.predict_us_per_point.n1024", "us"),
    ("serve.publish_ms", "ms"),
    ("serve.resolve_cold_ms", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.serialize_ms_p50", "ms"),
    ("serve.http_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.eval_ms_p50", "ms"),
    ("serve.eval_ms_p90", "ms"),
    ("serve.eval_ms_p99", "ms"),
    ("serve.eval_ms_p50.n16", "ms"),
    ("serve.eval_ms_p50.n256", "ms"),
    ("serve.eval_ms_p50.n1024", "ms"),
    ("serve.eval_ms_p99.r150", "ms"),
    ("serve.eval_ms_p99.r250", "ms"),
    ("serve.eval_ms_p99.r350", "ms"),
    ("serve.eval_ms_p99.r450", "ms"),
    ("serve.eval_max_rps", "1/s"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("loadgen.late_ms_p99", "ms"),
];

/// Named figures of one run, with units and sample counts.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str, usize)>,
    notes: Vec<String>,
}

impl Report {
    /// Record `name` = `value` `unit`, measured over `n` samples.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.insert(name, (value, unit, n));
    }

    /// Record a human-readable remark (a failed check, a censored value).
    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }
}

/// A finished workload run.
pub struct Outcome {
    pub report: Report,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn print_outcome(out: &Outcome, trace: bool) -> bool {
    let rep = &out.report;
    for (name, (v, unit, n)) in &rep.metrics {
        println!("metric {name} = {v} {unit} (n={n})");
    }
    for msg in &rep.notes {
        println!("note: {msg}");
    }
    let prov = check::provenance();
    let prov_json = Json::Obj(prov.into_iter().map(|(k, v)| (k, Json::Str(v))).collect());
    println!("provenance {}", prov_json.to_string());
    let wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        E2E.to_vec()
    };
    let mut correct = out.correct;
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match rep.metrics.get(name) {
            Some(&(v, _, _)) => v,
            // A layer this workload never calls did no work.
            None if trace => 0.0,
            None => {
                eprintln!("end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            correct = false;
        }
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                (
                    "value",
                    Json::Num(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", doc.to_string());
    correct
}

/// `compare A B`: refuse differing provenance, else print each metric of
/// both results side by side.
fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| -> Result<(check::Provenance, Json), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let prov_line = text
            .lines()
            .find_map(|l| l.strip_prefix("provenance "))
            .ok_or_else(|| format!("{path}: no provenance line"))?;
        let prov = match Json::parse(prov_line)? {
            Json::Obj(pairs) => pairs
                .into_iter()
                .map(|(k, v)| (k, v.as_str().unwrap_or_default().to_string()))
                .collect(),
            _ => return Err(format!("{path}: provenance is not an object")),
        };
        let last = text
            .lines()
            .last()
            .ok_or_else(|| format!("{path}: empty"))?;
        Ok((prov, Json::parse(last)?))
    };
    let ((pa, ra), (pb, rb)) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Err(diffs) = check::comparable(&pa, &pb) {
        eprintln!("refusing to compare: the results were measured on different set-ups");
        for d in diffs {
            eprintln!("  {d}");
        }
        return 2;
    }
    let metrics = |r: &Json| -> BTreeMap<String, f64> {
        match r.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let (ma, mb) = (metrics(&ra), metrics(&rb));
    for (name, a) in &ma {
        if let Some(b) = mb.get(name) {
            println!("{name}\t{a}\t{b}\t{:+.2}%", 100.0 * (b / a - 1.0));
        }
    }
    0
}

fn main() {
    let t_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => std::process::exit(compare(a, b)),
            _ => {
                eprintln!("usage: perfbench compare A.out B.out");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let kind = match args.workload.as_str() {
        "train-classical" => Some(train::Kind::Classical),
        "train-hybrid" => Some(train::Kind::Hybrid),
        "serve-eval" => None,
        other => {
            eprintln!("unknown workload `{other}` (train-classical, train-hybrid, serve-eval)");
            std::process::exit(2);
        }
    };
    let out = match (kind, args.trace) {
        (Some(k), false) => train::run(k, args.seed, args.seconds, t_start),
        (Some(k), true) => train::run_traced(k, args.seed, t_start),
        (None, trace) => serve::run(args.seed, trace, t_start),
    };
    if !print_outcome(&out, args.trace) {
        std::process::exit(1);
    }
}
