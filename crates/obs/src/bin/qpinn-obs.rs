//! Trace analysis and regression-gate CLI over qpinn telemetry artifacts
//! and run records.
//!
//! ```text
//! qpinn-obs trace RUN.jsonl [-o OUT.json]   # Chrome trace for Perfetto
//! qpinn-obs flame RUN.jsonl [--top N]       # per-phase self/total time
//! qpinn-obs pool  RUN.jsonl                 # work-stealing balance
//! qpinn-obs requests ACCESS.jsonl           # per-route RED table
//! qpinn-obs slo ACCESS.jsonl --objective '/v1/eval p99_ms<=50'
//! qpinn-obs runs list [--dir DIR]           # run-record table
//! qpinn-obs runs diff A B [--dir DIR]       # config + metric delta
//! qpinn-obs runs regress RUN --baseline ID  # the regression gate
//! qpinn-obs runs table [--dir DIR]          # experiment tables from the store
//! ```
//!
//! Exit codes: 0 success, 1 regression / SLO violation / corrupt
//! snapshot, 2 usage or I/O/parse error, or runs not comparable.

use qpinn_core::report::Json;
use std::process::ExitCode;

const USAGE: &str = "\
qpinn-obs: telemetry trace analysis and run-regression gate

USAGE:
    qpinn-obs trace RUN.jsonl [-o OUT.json]
        Convert a telemetry JSONL stream to Chrome trace_event JSON
        (load in ui.perfetto.dev or chrome://tracing). Writes to
        stdout unless -o is given.

    qpinn-obs flame RUN.jsonl [--top N]
        Per-phase time table: self time, share, total, ms/epoch.
        Default --top 20.

    qpinn-obs pool RUN.jsonl
        Work-stealing pool balance from the last pool_stats sample.

    qpinn-obs snapshots DIR [--recursive]
        List the .qps snapshots in a checkpoint or model-registry
        directory: version, run id, epoch, bytes, eval error, CRC
        status — without decoding tensor payloads. --recursive also
        walks one level of subdirectories (a qpinn-serve models dir).
        Exit 1 when any file fails its CRC.

    qpinn-obs requests ACCESS.jsonl
        Per-route RED table over a qpinn-access-v1 access log (written
        by qpinn-serve or fetched from /v1/traces): request count,
        rate, error %, shed %, and exact p50/p99/max latency computed
        from the recorded samples.

    qpinn-obs slo ACCESS.jsonl --objective 'ROUTE METRIC<=VALUE' ...
        Evaluate latency / error-budget objectives against an access
        log. ROUTE is a path or `*`; METRIC is one of p50_ms, p99_ms,
        max_ms, error_pct, shed_pct. Repeat --objective, or load one
        objective per line from a file with --objectives FILE (blank
        lines and `#` comments skipped). Exit 1 if any objective is
        violated or has no matching records.

    qpinn-obs runs list [--dir DIR]
        Table of recorded training runs under the qpinn-run-v1 store
        (default target/runs): id, task, seed, final loss, outcome.

    qpinn-obs runs show ID [--dir DIR]
        Manifest, loss/gradient trajectories, the metrics block, last
        per-layer gradient norm/variance, and checkpoint/divergence
        events of one run.

    qpinn-obs runs diff A B [--dir DIR]
        Configuration delta and metric delta between two runs. Two
        runs with identical config hash and seed are expected to match
        bit-for-bit; a nonzero metric delta there is flagged as a
        determinism violation.

    qpinn-obs runs regress RUN --baseline ID [--dir DIR] [--threshold PCT]
        Gate RUN against a baseline run: final loss / final error must
        not grow beyond the threshold (default 20%), and a run whose
        baseline converged must itself converge. Every metric both runs
        record whose name has a performance direction (higher is better:
        *gflops*, *per_s*, *speedup*; lower: ms, *_ms, s_per_epoch,
        *wall*, *_ns) must not move against it by more than the
        threshold, arrays element by element; zero baselines are
        skipped. Exit 1 on regression, exit 2 (refuse) when such a
        metric would be compared between runs whose pool width
        (threads) or SIMD width (simd) differ.

    qpinn-obs runs table [--dir DIR]
        The experiment tables (T1, T2, ..., F4, sweep) rendered from the
        store: one table per label prefix (`t1/...`), one row per task
        label and config hash, the final error's mean ± std over the
        newest finalized run of each seed, with best, params, epochs,
        s/run and the seed count, then one column per scalar in the
        runs' metrics blocks. Incomplete runs are left out.

EXIT CODES:
    0  success / no regression
    1  regression (runs regress), corrupt snapshot (snapshots), or SLO
       violation (slo)
    2  usage, I/O, or parse error; runs regress refusing runs measured
       at different pool or SIMD widths
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("qpinn-obs: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "trace" => cmd_trace(&args[1..]),
        "flame" => cmd_flame(&args[1..]),
        "pool" => cmd_pool(&args[1..]),
        "snapshots" => cmd_snapshots(&args[1..]),
        "requests" => cmd_requests(&args[1..]),
        "slo" => cmd_slo(&args[1..]),
        "runs" => cmd_runs(&args[1..]),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`; see `qpinn-obs --help`")),
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => {
                output = Some(it.next().ok_or("-o needs a path")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if input.replace(path).is_some() {
                    return Err("trace takes exactly one input file".into());
                }
            }
        }
    }
    let input = input.ok_or("trace needs a RUN.jsonl input")?;
    let doc = qpinn_obs::trace::chrome_trace(&read_file(input)?)?;
    let text = doc.to_string();
    match output {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            let n = match doc.get("traceEvents") {
                Some(Json::Arr(v)) => v.len(),
                _ => 0,
            };
            eprintln!("wrote {n} trace event(s) to {path}");
        }
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_flame(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<&str> = None;
    let mut top = 20usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a number")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if input.replace(path).is_some() {
                    return Err("flame takes exactly one input file".into());
                }
            }
        }
    }
    let input = input.ok_or("flame needs a RUN.jsonl input")?;
    print!("{}", qpinn_obs::flame::report(&read_file(input)?, top)?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_pool(args: &[String]) -> Result<ExitCode, String> {
    let [input] = args else {
        return Err("pool takes exactly one RUN.jsonl input".into());
    };
    print!("{}", qpinn_obs::pool::report(&read_file(input)?)?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_snapshots(args: &[String]) -> Result<ExitCode, String> {
    let mut dir: Option<&str> = None;
    let mut recursive = false;
    for a in args {
        match a.as_str() {
            "--recursive" | "-r" => recursive = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if dir.replace(path).is_some() {
                    return Err("snapshots takes exactly one directory".into());
                }
            }
        }
    }
    let dir = dir.ok_or("snapshots needs a checkpoint directory")?;
    let (text, corrupt) =
        qpinn_obs::snapshots::report_tree(std::path::Path::new(dir), recursive)?;
    print!("{text}");
    Ok(if corrupt == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("qpinn-obs: {corrupt} corrupt snapshot file(s)");
        ExitCode::from(1)
    })
}

fn cmd_requests(args: &[String]) -> Result<ExitCode, String> {
    let [input] = args else {
        return Err("requests takes exactly one ACCESS.jsonl input".into());
    };
    print!("{}", qpinn_obs::requests::report(&read_file(input)?)?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_slo(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<&str> = None;
    let mut objectives = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--objective" => {
                objectives.push(qpinn_obs::slo::parse_objective(
                    it.next().ok_or("--objective needs `ROUTE METRIC<=VALUE`")?,
                )?);
            }
            "--objectives" => {
                let path = it.next().ok_or("--objectives needs a file path")?;
                for line in read_file(path)?.lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    objectives.push(qpinn_obs::slo::parse_objective(line)?);
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if input.replace(path).is_some() {
                    return Err("slo takes exactly one ACCESS.jsonl input".into());
                }
            }
        }
    }
    let input = input.ok_or("slo needs an ACCESS.jsonl input")?;
    let report = qpinn_obs::slo::evaluate(&read_file(input)?, &objectives)?;
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_runs(args: &[String]) -> Result<ExitCode, String> {
    let Some(sub) = args.first() else {
        return Err("runs needs a subcommand: list | show | diff | regress | table".into());
    };
    // Every subcommand takes --dir DIR (default target/runs); positional
    // arguments are run ids; --baseline and --threshold belong to regress.
    let mut dir = qpinn_core::runs::default_dir();
    let mut ids: Vec<&str> = Vec::new();
    let mut baseline: Option<&str> = None;
    let mut threshold: Option<f64> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = it.next().ok_or("--dir needs a path")?.into(),
            "--baseline" => baseline = Some(it.next().ok_or("--baseline needs a run id")?),
            "--threshold" => {
                let pct: f64 = it
                    .next()
                    .ok_or("--threshold needs a percentage")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--threshold must be a non-negative percentage".into());
                }
                threshold = Some(pct);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            id => ids.push(id),
        }
    }
    if sub != "regress" && (baseline.is_some() || threshold.is_some()) {
        return Err(format!("runs {sub} takes no --baseline or --threshold"));
    }
    let load = |id: &str| {
        qpinn_core::runs::load_run(&dir, id)
            .map_err(|e| format!("loading run {id} from {}: {e}", dir.display()))
    };
    match sub.as_str() {
        "list" => {
            if !ids.is_empty() {
                return Err("runs list takes no run ids".into());
            }
            let text = qpinn_obs::runs::list_report(&dir)
                .map_err(|e| format!("listing {}: {e}", dir.display()))?;
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        "show" => {
            let [id] = ids[..] else {
                return Err("runs show takes exactly one run id".into());
            };
            print!("{}", qpinn_obs::runs::show_report(&load(id)?));
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let [a, b] = ids[..] else {
                return Err("runs diff takes exactly two run ids".into());
            };
            let report = qpinn_obs::runs::diff(&load(a)?, &load(b)?);
            print!("{}", report.render());
            Ok(ExitCode::SUCCESS)
        }
        "regress" => {
            let [id] = ids[..] else {
                return Err("runs regress takes exactly one run id".into());
            };
            let baseline = baseline.ok_or("runs regress needs --baseline ID")?;
            let report =
                qpinn_obs::runs::regress(&load(id)?, &load(baseline)?, threshold.unwrap_or(20.0));
            if !report.refused.is_empty() {
                eprintln!("refusing to compare: the runs were measured on different set-ups");
                for r in &report.refused {
                    eprintln!("  {r}");
                }
                return Ok(ExitCode::from(2));
            }
            print!("{}", report.render());
            Ok(if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "table" => {
            if !ids.is_empty() {
                return Err("runs table takes no run ids".into());
            }
            let text = qpinn_obs::runs::table_report(&dir, None)
                .map_err(|e| format!("reading {}: {e}", dir.display()))?;
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown runs subcommand `{other}`")),
    }
}
