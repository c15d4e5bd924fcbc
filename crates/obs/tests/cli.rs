//! End-to-end tests of the `qpinn-obs` binary: real process spawns, real
//! files, real exit codes — the same contract CI relies on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qpinn-obs"))
}

fn tmp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qpinn-obs-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const BASELINE: &str = r#"{"id":"F5_SCALING","host_cpus":4,"threads":[1,2],
  "s_per_epoch":[0.138,0.116],"speedup":[1.0,1.19],
  "matmul_gflops":[7.66,7.41],"circuits_per_s":[1504534.9,525605.9]}"#;

#[test]
fn check_exits_zero_when_within_threshold() {
    let base = tmp("base-ok.json", BASELINE);
    let cur = tmp(
        "cur-ok.json",
        &BASELINE.replace("7.66", "7.40"), // −3.4%, inside 10%
    );
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("PASS"), "{}", stdout(&out));
}

#[test]
fn check_exits_nonzero_on_injected_regression() {
    let base = tmp("base-reg.json", BASELINE);
    // Halve matmul throughput: an unambiguous regression.
    let cur = tmp("cur-reg.json", &BASELINE.replace("7.66", "3.83"));
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .args(["--threshold", "10"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("matmul_gflops[0]"), "{text}");
    assert!(text.contains("FAIL"), "{text}");
}

#[test]
fn usage_and_io_errors_exit_two() {
    // No arguments → usage on stderr, exit 2.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
    // Missing file → exit 2.
    let out = bin()
        .args(["flame", "/nonexistent/run.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Unknown command → exit 2.
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_exits_two_on_empty_record_files() {
    // An empty file is a parse error, not a silent pass: exit 2.
    let empty = tmp("empty.json", "");
    let base = tmp("base-vs-empty.json", BASELINE);
    for (b, c) in [(&empty, &base), (&base, &empty)] {
        let out = bin()
            .args(["check", "--baseline"])
            .arg(b)
            .arg("--current")
            .arg(c)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "empty input must exit 2");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    }
}

#[test]
fn check_with_disjoint_keys_reports_nothing_comparable_and_passes() {
    // No key appears in both records: nothing regressed, nothing proven —
    // the gate passes (exit 0) but says so explicitly.
    let base = tmp("base-disjoint.json", r#"{"alpha_gflops":[5.0]}"#);
    let cur = tmp("cur-disjoint.json", r#"{"beta_gflops":[9.0]}"#);
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("no comparable perf metrics"), "{text}");
    assert!(!text.contains("REGRESSED"), "{text}");
}

#[test]
fn check_skips_zero_baseline_metrics_instead_of_dividing() {
    // A 0.0 baseline would make the relative delta infinite; the gate must
    // skip that entry (no division by zero) and judge only the rest.
    let base = tmp(
        "base-zero.json",
        r#"{"warm_gflops":[0.0],"matmul_gflops":[8.0]}"#,
    );
    let cur = tmp(
        "cur-zero.json",
        r#"{"warm_gflops":[4.0],"matmul_gflops":[7.9]}"#,
    );
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(!text.contains("inf"), "zero baseline leaked a division: {text}");
    assert!(text.contains("PASS"), "{text}");

    // Same zero baseline, but the surviving metric genuinely regressed:
    // the skip must not mask a real regression elsewhere.
    let cur_bad = tmp(
        "cur-zero-bad.json",
        r#"{"warm_gflops":[4.0],"matmul_gflops":[2.0]}"#,
    );
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(&cur_bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
}

#[test]
fn check_usage_errors_exit_two() {
    // Missing --current.
    let base = tmp("base-lonely.json", BASELINE);
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Malformed threshold.
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(&base)
        .args(["--threshold", "-5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_refuses_records_from_different_hosts() {
    // Same perf numbers, different provenance: no delta is meaningful, so
    // the gate refuses with exit 2 and names the field instead of printing
    // a table.
    let base = tmp("base-host.json", &BASELINE.replace(r#""host_cpus":4"#, r#""host_cpus":1,"simd_width":8"#));
    for (name, field, cur) in [
        ("cpus", "host_cpus", BASELINE.replace(r#""host_cpus":4"#, r#""host_cpus":2,"simd_width":8"#)),
        ("simd", "simd_width", BASELINE.replace(r#""host_cpus":4"#, r#""host_cpus":1,"simd_width":4"#)),
    ] {
        let cur = tmp(&format!("cur-host-{name}.json"), &cur);
        let out = bin()
            .args(["check", "--baseline"])
            .arg(&base)
            .arg("--current")
            .arg(&cur)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("refusing to compare") && err.contains(field), "{err}");
        assert!(!stdout(&out).contains("PASS"), "{}", stdout(&out));
    }
    // A field only one record carries is not a mismatch.
    let out = bin()
        .args(["check", "--baseline"])
        .arg(&base)
        .arg("--current")
        .arg(tmp("cur-host-bare.json", &BASELINE.replace(r#""host_cpus":4,"#, "")))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn trace_flame_pool_run_over_one_stream() {
    let jsonl = concat!(
        r#"{"v":1,"ts_ns":5000,"kind":"span","name":"forward","thread":"main","fields":{"path":"epoch/loss/forward","dur_ns":3000}}"#,
        "\n",
        r#"{"v":1,"ts_ns":9000,"kind":"span","name":"epoch","thread":"main","fields":{"path":"epoch","dur_ns":8000}}"#,
        "\n",
        r#"{"v":1,"ts_ns":9500,"kind":"mark","name":"pool_stats","thread":"main","fields":{"context":"t","workers":1,"launcher_tasks":3,"launcher_steals":0,"sets_launched":2,"worker0.tasks":5,"worker0.steals":1,"worker0.idle_waits":0}}"#,
        "\n",
    );
    let run = tmp("run.jsonl", jsonl);
    let trace_out = std::env::temp_dir().join(format!(
        "qpinn-obs-cli-{}-trace-out.json",
        std::process::id()
    ));

    let out = bin().arg("trace").arg(&run).arg("-o").arg(&trace_out).output().unwrap();
    assert!(out.status.success());
    let written = std::fs::read_to_string(&trace_out).unwrap();
    assert!(written.contains("\"traceEvents\""), "{written}");
    assert!(written.contains("\"ph\":\"X\""), "{written}");

    let out = bin().args(["flame"]).arg(&run).args(["--top", "5"]).output().unwrap();
    assert!(out.status.success());
    assert!(stdout(&out).contains("epoch/loss/forward"), "{}", stdout(&out));

    let out = bin().arg("pool").arg(&run).output().unwrap();
    assert!(out.status.success());
    assert!(stdout(&out).contains("steal ratio"), "{}", stdout(&out));
}

/// Build a synthetic two-run `qpinn-run-v1` store on disk: a converged
/// baseline and a worse, differently-configured current run.
fn run_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-obs-cli-{}-{tag}-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = |id: &str, lr: f64, hash: &str, final_loss: f64| {
        format!(
            concat!(
                r#"{{"schema":"qpinn-run-v1","run_id":"{id}","task":"t1/demo","seed":7,"#,
                r#""config":{{"train":{{"lr0":{lr}}}}},"config_hash":"{hash}","threads":1,"simd":1,"#,
                r#""env":{{}},"trace":"","start_unix_ms":1000,"end_unix_ms":2000,"#,
                r#""outcome":"converged","epochs_planned":20,"epochs_run":20,"#,
                r#""final_loss":{fl},"final_error":{fe}}}"#
            ),
            id = id,
            lr = lr,
            hash = hash,
            fl = final_loss,
            fe = final_loss * 0.5,
        )
    };
    let series = |l0: f64, l1: f64| {
        format!(
            "{{\"kind\":\"epoch\",\"epoch\":0,\"loss\":{l0},\"grad_norm\":1.0,\"lr\":0.001,\"epoch_ms\":2.0,\"components\":{{}},\"grad\":{{\"w\":{{\"norm\":1.0,\"var\":0.1}}}}}}\n\
             {{\"kind\":\"epoch\",\"epoch\":10,\"loss\":{l1},\"grad_norm\":0.5,\"lr\":0.001,\"epoch_ms\":2.0,\"components\":{{}},\"grad\":{{\"w\":{{\"norm\":0.5,\"var\":0.05}}}}}}\n"
        )
    };
    for (id, lr, hash, fl) in [
        ("aaaaaaaaaaaaaaaa", 1e-3, "0000000000000001", 1e-4),
        ("bbbbbbbbbbbbbbbb", 1e-1, "0000000000000002", 5e-2),
    ] {
        let run_dir = dir.join(id);
        std::fs::create_dir_all(&run_dir).unwrap();
        std::fs::write(run_dir.join("manifest.json"), manifest(id, lr, hash, fl)).unwrap();
        std::fs::write(run_dir.join("series.jsonl"), series(1.0, fl * 2.0)).unwrap();
    }
    dir
}

#[test]
fn runs_list_show_and_diff_over_a_store() {
    let dir = run_store("lsd");
    let out = bin().args(["runs", "list", "--dir"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("aaaaaaaaaaaaaaaa"), "{text}");
    assert!(text.contains("bbbbbbbbbbbbbbbb"), "{text}");
    assert!(text.contains("t1/demo"), "{text}");
    assert!(text.contains("converged"), "{text}");

    let out = bin()
        .args(["runs", "show", "aaaaaaaaaaaaaaaa", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("t1/demo"), "{text}");
    assert!(text.contains("loss"), "{text}");
    assert!(text.contains("grad var"), "{text}");

    let out = bin()
        .args(["runs", "diff", "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("lr0"), "config delta missing lr0: {text}");
    assert!(text.contains("final_loss"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_regress_exit_codes_follow_the_check_contract() {
    let dir = run_store("regress");
    // Baseline against itself: exit 0.
    let out = bin()
        .args(["runs", "regress", "aaaaaaaaaaaaaaaa", "--baseline", "aaaaaaaaaaaaaaaa", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("PASS"), "{}", stdout(&out));

    // The 500x-worse run against the baseline: exit 1.
    let out = bin()
        .args(["runs", "regress", "bbbbbbbbbbbbbbbb", "--baseline", "aaaaaaaaaaaaaaaa", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("REGRESSED"), "{}", stdout(&out));

    // Unknown run id / missing --baseline: usage errors, exit 2.
    let out = bin()
        .args(["runs", "regress", "cccccccccccccccc", "--baseline", "aaaaaaaaaaaaaaaa", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let out = bin().args(["runs", "regress", "aaaaaaaaaaaaaaaa", "--dir"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["runs", "bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // The gate's flags are a usage error anywhere else.
    let out = bin()
        .args(["runs", "list", "--baseline", "aaaaaaaaaaaaaaaa", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_table_renders_every_row_of_a_store() {
    let dir = run_store("table");
    let table = |extra: &[&str]| {
        let mut cmd = bin();
        cmd.args(["runs", "table"])
            .args(extra)
            .arg("--dir")
            .arg(&dir);
        cmd.output().unwrap()
    };
    let out = table(&[]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    // Both runs carry the label t1/demo under different config hashes:
    // one t1 table, two rows, one seed each, and no metric columns.
    assert!(text.starts_with("t1\nrow"), "{text}");
    let header: Vec<&str> = text.lines().nth(1).unwrap().split('|').map(str::trim).collect();
    assert_eq!(
        header,
        ["row", "final error (mean±std)", "best", "params", "epochs", "s/run", "seeds"],
        "{text}"
    );
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("demo ")).collect();
    assert_eq!(rows.len(), 2, "{text}");
    assert!(rows[0].contains("5.000e-5"), "{text}");
    assert!(rows[1].contains("2.500e-2"), "{text}");
    for row in &rows {
        assert!(row.contains("| 1.0 "), "s/run from the timestamps: {text}");
        assert!(row.trim_end().ends_with("| 1"), "one seed: {text}");
    }
    // A second call over the same store prints the same bytes.
    assert_eq!(table(&[]).stdout, out.stdout);

    // A run id or any flag but --dir is a usage error: exit 2.
    for extra in [
        &["aaaaaaaaaaaaaaaa"][..],
        &["--metric", "final_error"],
        &["--threshold", "5"],
    ] {
        let out = table(extra);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {}", stdout(&out));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_listing_leaves_a_publish_in_flight_alone() {
    // A `*.tmp` beside the snapshots belongs to a writer that has not
    // renamed it yet; listing the directory must not sweep it.
    let dir = std::env::temp_dir().join(format!("qpinn-obs-cli-{}-snaps", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let in_flight = dir.join("snap-0000000003.tmp");
    std::fs::write(&in_flight, b"half-written by a live publisher").unwrap();
    let out = bin().arg("snapshots").arg(&dir).output().unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 snapshot(s)"), "{}", stdout(&out));
    assert!(in_flight.exists(), "the listing swept a live temp file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshots_of_a_missing_directory_is_an_error_not_a_new_directory() {
    let dir = std::env::temp_dir().join(format!("qpinn-obs-cli-{}-no-such-dir", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin().arg("snapshots").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no such directory"));
    assert!(!dir.exists(), "the listing created the directory");
}
