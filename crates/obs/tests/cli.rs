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
    // Unknown command → exit 2; `check` is gone (`runs regress` gates
    // benchmark records now).
    for cmd in ["frobnicate", "check"] {
        let out = bin()
            .args([cmd, "--baseline", "a.json", "--current", "b.json"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown command"),
            "{cmd}"
        );
    }
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

    // Measurement runs (no epochs, numbers in the metrics block) gate on
    // every performance metric both carry.
    let regress = |cur: &str, base: &str, extra: &[&str]| {
        bin()
            .args(["runs", "regress", cur, "--baseline", base])
            .args(extra)
            .arg("--dir")
            .arg(&dir)
            .output()
            .unwrap()
    };
    let kernel = |id: &str, threads: usize, simd: usize, ms: f64, gflops: f64| {
        measurement_run(
            &dir,
            id,
            threads,
            simd,
            &format!(r#"{{"ms":{ms},"gflops":{gflops},"gflops_w1":0,"order":{ms}}}"#),
        );
    };
    kernel("k000000000000000", 2, 8, 1.0, 8.0);
    kernel("k000000000000001", 2, 8, 1.05, 7.7); // within 10%
    kernel("k000000000000002", 2, 8, 1.0, 4.0); // GFLOP/s −50%
    kernel("k000000000000003", 2, 8, 1.5, 8.0); // ms +50%
    kernel("k000000000000004", 2, 8, 0.5, 8.0); // faster
    kernel("k000000000000005", 4, 8, 1.0, 8.0); // another pool width
    kernel("k000000000000006", 2, 1, 1.0, 8.0); // another SIMD width
    for (cur, code, regressed) in [
        ("k000000000000001", 0, None),
        ("k000000000000002", 1, Some("gflops ")),
        ("k000000000000003", 1, Some("ms ")),
        ("k000000000000004", 0, None),
    ] {
        let out = regress(cur, "k000000000000000", &["--threshold", "10"]);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(code), "{cur}: {text}");
        // The zero `gflops_w1` baseline is skipped, `order` has no
        // direction, and no run records a final loss.
        for absent in ["gflops_w1", "order", "final_loss"] {
            assert!(!text.contains(absent), "{cur}: {text}");
        }
        let bad: Vec<&str> = text.lines().filter(|l| l.contains("REGRESSED")).collect();
        match regressed {
            None => assert!(bad.is_empty() && text.contains("PASS"), "{cur}: {text}"),
            Some(metric) => assert!(
                bad.len() == 1 && bad[0].starts_with(metric),
                "{cur}: {text}"
            ),
        }
    }
    for (cur, field) in [
        ("k000000000000005", "threads"),
        ("k000000000000006", "simd"),
    ] {
        let out = regress(cur, "k000000000000000", &[]);
        assert_eq!(out.status.code(), Some(2), "{cur}: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("refusing to compare") && err.contains(field),
            "{err}"
        );
        assert!(!stdout(&out).contains("PASS"), "{}", stdout(&out));
    }
    // A malformed threshold, or a manifest that does not parse: exit 2.
    let out = regress(
        "k000000000000001",
        "k000000000000000",
        &["--threshold", "-5"],
    );
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    std::fs::create_dir_all(dir.join("e000000000000000")).unwrap();
    std::fs::write(dir.join("e000000000000000/manifest.json"), "").unwrap();
    for (cur, base) in [
        ("e000000000000000", "k000000000000000"),
        ("k000000000000000", "e000000000000000"),
    ] {
        let out = regress(cur, base, &[]);
        assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
        assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a finalized run with no epochs under `dir/id`, as a benchmark
/// that trains nothing records it: no final loss or error, the given
/// pool and SIMD widths, and `metrics` (a JSON object) as its metrics
/// block.
fn measurement_run(dir: &std::path::Path, id: &str, threads: usize, simd: usize, metrics: &str) {
    let run_dir = dir.join(id);
    std::fs::create_dir_all(&run_dir).unwrap();
    let manifest = format!(
        concat!(
            r#"{{"schema":"qpinn-run-v1","run_id":"{id}","task":"kernels/matmul","seed":0,"#,
            r#""config":{{"task":{{"full":false}},"train":null}},"config_hash":"00000000000000aa","#,
            r#""threads":{threads},"simd":{simd},"env":{{}},"trace":"","start_unix_ms":1000,"#,
            r#""end_unix_ms":1000,"outcome":"converged","epochs_planned":0,"epochs_run":0,"#,
            r#""final_loss":null,"final_error":null,"metrics":{metrics}}}"#
        ),
        id = id,
        threads = threads,
        simd = simd,
        metrics = metrics,
    );
    std::fs::write(run_dir.join("manifest.json"), manifest).unwrap();
    std::fs::write(run_dir.join("series.jsonl"), "").unwrap();
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
