//! Chaos suite: drive the persistence, telemetry, and pool layers through
//! their failure paths *on purpose* via the `qpinn-testkit` fail plane,
//! and assert the recovery invariants the stack advertises:
//!
//! - a crash at any injected persist point never loses the last durable
//!   checkpoint;
//! - `Trainer::resume` stays bit-exact even when the latest snapshot is
//!   silently corrupted and the store falls back;
//! - sink write failures surface as `telemetry.write_errors` + a
//!   `TrainLog::warnings` entry without panicking training;
//! - a stalled pool worker neither deadlocks a parallel operation nor
//!   changes ordered-reduction results by a single bit.
//!
//! The fail plane is process-global, so every test here serializes on one
//! mutex (this file is its own test binary; it only contends with
//! itself). CI runs the suite twice with a fixed `QPINN_FAILPOINTS` spec
//! and `--test-threads=1` and diffs the output to pin determinism.

use qpinn::autodiff::Var;
use qpinn::core::report::Json;
use qpinn::core::trainer::{CheckpointConfig, PinnTask, TrainConfig, Trainer};
use qpinn::nn::{GraphCtx, ParamSet};
use qpinn::optim::LrSchedule;
use qpinn::persist::{PersistError, RetentionPolicy, Snapshot, SnapshotStore};
use qpinn::tensor::Tensor;
use qpinn::testkit::{self, Trigger};
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serialize every test in this binary: the fail plane and the telemetry
/// registry are process-global.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    testkit::disarm_all();
    // Clear process-global telemetry residue (installed sinks, the pending
    // write-error side channel) left by whichever test ran before.
    qpinn::telemetry::shutdown();
    let _ = qpinn::telemetry::take_write_error();
    guard
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpinn-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic single-parameter quadratic task: no RNG anywhere, so two
/// runs from the same initial state have bit-identical trajectories.
struct Quad {
    id: qpinn::nn::ParamId,
    target: f64,
}

fn quad_fixture() -> (Quad, ParamSet) {
    let mut params = ParamSet::new();
    let id = params.add("w", Tensor::from_vec([1, 1], vec![0.25]));
    (Quad { id, target: 3.0 }, params)
}

impl PinnTask for Quad {
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
        let w = ctx.param(self.id);
        let d = ctx.g.add_scalar(w, -self.target);
        ctx.g.mse(d)
    }
    fn eval_error(&self, params: &ParamSet) -> f64 {
        (params.tensors()[0].item() - self.target).abs()
    }
}

fn quad_cfg(epochs: usize, ckpt: Option<CheckpointConfig>) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: LrSchedule::Constant { lr: 0.05 },
        log_every: 5,
        eval_every: 0,
        clip: None,
        lbfgs_polish: None,
        checkpoint: ckpt,
        divergence: None,
        progress: None,
        run: None,
    }
}

fn sample_snap(epoch: u64) -> Snapshot {
    let (task, params) = quad_fixture();
    Snapshot {
        meta: qpinn::persist::RunMeta {
            run_id: "chaos".into(),
            next_epoch: epoch,
            planned_epochs: 1000,
            eval_error: 0.5,
        },
        params: params.clone(),
        optim: qpinn::optim::Adam::new(1e-3).export_state(),
        log: Default::default(),
        task_state: task.export_state(),
    }
}

fn bits(params: &ParamSet) -> Vec<u64> {
    params.flatten().iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// Invariant 1: no injected persist fault loses the last durable checkpoint.
// ---------------------------------------------------------------------------

#[test]
fn no_injected_persist_fault_loses_the_last_durable_checkpoint() {
    let _g = serial();
    let erroring_points = ["fs.enospc", "persist.write_short", "persist.rename_torn"];
    for point in erroring_points {
        let dir = test_dir(&format!("durable-{}", point.replace('.', "-")));
        let store = SnapshotStore::open(&dir).unwrap();
        let keep = RetentionPolicy::keep_all();
        store.save(&sample_snap(100), &keep).unwrap();

        {
            let _arm = testkit::arm(point, Trigger::Always);
            let err = store
                .save(&sample_snap(200), &keep)
                .expect_err("armed fault must surface as an error");
            assert!(
                err.to_string().contains(point),
                "{point}: error must name the injection point, got {err}"
            );
            assert_eq!(testkit::fired(point), 1, "{point} must have fired once");
        }

        // The durable epoch-100 snapshot must still load, whatever debris
        // the fault left behind.
        let (snap, _) = store.load_latest().unwrap();
        assert_eq!(snap.meta.next_epoch, 100, "{point} lost the durable checkpoint");

        // And a re-opened store (the crash-recovery path) sweeps tmp
        // debris and still serves the same snapshot.
        let reopened = SnapshotStore::open(&dir).unwrap();
        let (snap, _) = reopened.load_latest().unwrap();
        assert_eq!(snap.meta.next_epoch, 100);
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .all(|e| e.path().extension().and_then(|x| x.to_str()) != Some("tmp")),
            "{point}: reopen must sweep tmp debris"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Silent post-publish corruption: save reports Ok, yet load must fall
    // back to the previous intact snapshot.
    let dir = test_dir("durable-bitflip");
    let store = SnapshotStore::open(&dir).unwrap();
    let keep = RetentionPolicy::keep_all();
    store.save(&sample_snap(100), &keep).unwrap();
    {
        let _arm = testkit::arm("persist.bitflip", Trigger::Once);
        store
            .save(&sample_snap(200), &keep)
            .expect("bitflip is silent: save must report success");
    }
    let (snap, _) = store.load_latest().unwrap();
    assert_eq!(
        snap.meta.next_epoch, 100,
        "CRC check must reject the rotted epoch-200 snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trainer_survives_checkpoint_faults_with_identical_trajectory() {
    let _g = serial();

    // Reference: fault-free run.
    let (mut task_a, mut params_a) = quad_fixture();
    let log_a = Trainer::new(quad_cfg(40, None)).train(&mut task_a, &mut params_a);
    assert!(log_a.warnings.is_empty(), "{:?}", log_a.warnings);

    // Same run, but the second checkpoint save hits a full disk.
    let dir = test_dir("trainer-enospc");
    let (mut task_b, mut params_b) = quad_fixture();
    let ckpt = CheckpointConfig::new(&dir)
        .every(10)
        .retention(RetentionPolicy::keep_all());
    let log_b = {
        let _arm = testkit::arm("fs.enospc", Trigger::Nth(2));
        Trainer::new(quad_cfg(40, Some(ckpt))).train(&mut task_b, &mut params_b)
    };

    // Training must finish, warn, and stay on the exact same trajectory.
    assert!(
        log_b.warnings.iter().any(|w| w.contains("checkpoint save failed")),
        "missing checkpoint_save_failed warning: {:?}",
        log_b.warnings
    );
    assert_eq!(bits(&params_a), bits(&params_b), "faults must not perturb training");
    assert_eq!(log_a.final_loss.to_bits(), log_b.final_loss.to_bits());

    // Saves 1, 3, 4 landed; save 2 (epoch 20) was eaten by the fault.
    let store = SnapshotStore::open(&dir).unwrap();
    let epochs: Vec<u64> = store.list().into_iter().map(|(e, _)| e).collect();
    assert_eq!(epochs, vec![10, 30, 40]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Invariant 1b: a torn run-record finalize degrades to `incomplete`,
// never to corrupt JSON or a crashed trainer.
// ---------------------------------------------------------------------------

/// Tear the `qpinn-run-v1` manifest rewrite at finalize (the atomic
/// tmp+rename is interrupted mid-tmp-write): training still completes,
/// warns, and leaves behind the *intact* begin-time manifest — so
/// `runs list` reports the run as `incomplete` and every JSON artifact
/// on disk still parses.
#[test]
fn torn_run_manifest_finalize_lists_as_incomplete() {
    use qpinn::core::runs::{list_runs, load_run, RunConfig};
    let _g = serial();
    let dir = test_dir("runs-torn");

    let (mut task, mut params) = quad_fixture();
    let mut cfg = quad_cfg(20, None);
    cfg.run = Some(RunConfig::new(&dir, "chaos/quad", 0));
    let log = {
        // Hit 1 is begin's manifest write (must land intact); hit 2 is
        // the finalize rewrite, torn halfway through the tmp file.
        let _arm = testkit::arm("runs.manifest_torn", Trigger::Nth(2));
        Trainer::new(cfg).train(&mut task, &mut params)
    };

    // Training itself is unharmed and the failure is surfaced.
    assert!(log.final_loss.is_finite());
    assert!(
        log.warnings.iter().any(|w| w.contains("finalize failed")),
        "missing finalize-failed warning: {:?}",
        log.warnings
    );
    let run_id = log.run_id.clone().expect("run id assigned at begin");

    // The store still lists the run — as incomplete, from the intact
    // begin-time manifest.
    let listed = list_runs(&dir).unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].run_id, run_id);
    assert_eq!(listed[0].outcome, "incomplete");
    assert_eq!(listed[0].final_loss, None);

    // Every byte on disk is still valid: the manifest parses (schema
    // intact, no finals), and the epoch series has no torn lines.
    let rec = load_run(&dir, &run_id).unwrap();
    assert_eq!(rec.manifest.task, "chaos/quad");
    assert_eq!(rec.manifest.end_unix_ms, None);
    assert!(!rec.series.is_empty(), "epoch series should have landed");
    let manifest_text =
        std::fs::read_to_string(dir.join(&run_id).join("manifest.json")).unwrap();
    Json::parse(&manifest_text).expect("manifest must never be torn");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Invariant 2: resume stays bit-exact under corrupted-latest fallback.
// ---------------------------------------------------------------------------

#[test]
fn resume_is_bit_exact_under_corrupted_latest_fallback() {
    let _g = serial();

    // Reference: one uninterrupted 40-epoch run.
    let (mut task_ref, mut params_ref) = quad_fixture();
    let log_ref = Trainer::new(quad_cfg(40, None)).train(&mut task_ref, &mut params_ref);

    // Interrupted run checkpointing at 10 and 20 — with silent bit rot
    // injected into the *second* (latest) snapshot as it is published.
    let dir = test_dir("resume-bitflip");
    let ckpt = CheckpointConfig::new(&dir)
        .every(10)
        .retention(RetentionPolicy::keep_all());
    let (mut task_b, mut params_b) = quad_fixture();
    {
        let _arm = testkit::arm("persist.bitflip", Trigger::Nth(2));
        let _ = Trainer::new(quad_cfg(20, Some(ckpt))).train(&mut task_b, &mut params_b);
        assert_eq!(testkit::fired("persist.bitflip"), 1);
    }

    // Resume in a fresh-process equivalent: the corrupt epoch-20 snapshot
    // must be skipped, training restarts from the intact epoch-10 state,
    // and the final parameters match the uninterrupted run bit for bit.
    let (mut task_c, _) = quad_fixture();
    let mut params_c = ParamSet::new();
    let log_c = Trainer::new(quad_cfg(40, None))
        .resume(&dir, &mut task_c, &mut params_c)
        .expect("fallback resume must succeed");

    assert_eq!(bits(&params_ref), bits(&params_c), "fallback resume must be bit-exact");
    assert_eq!(log_ref.final_loss.to_bits(), log_c.final_loss.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_all_snapshots_corrupt_fails_cleanly() {
    let _g = serial();
    let dir = test_dir("resume-allbad");
    let store = SnapshotStore::open(&dir).unwrap();
    {
        let _arm = testkit::arm("persist.bitflip", Trigger::Always);
        store.save(&sample_snap(10), &RetentionPolicy::keep_all()).unwrap();
        store.save(&sample_snap(20), &RetentionPolicy::keep_all()).unwrap();
    }
    match store.load_latest() {
        Err(PersistError::NoIntactSnapshot { corrupt_skipped, .. }) => {
            assert_eq!(corrupt_skipped, 2)
        }
        other => panic!("expected NoIntactSnapshot, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Invariant 3: sink failures surface without panicking training.
// ---------------------------------------------------------------------------

#[test]
fn sink_failures_surface_as_write_errors_without_panicking_training() {
    let _g = serial();
    let path = std::env::temp_dir().join(format!(
        "qpinn-chaos-sink-{}.jsonl",
        std::process::id()
    ));
    let before = qpinn::telemetry::counter("telemetry.write_errors").get();
    let _ = qpinn::telemetry::take_write_error(); // clear residue

    let log = {
        let _arm = testkit::arm("telemetry.sink_err", Trigger::Always);
        let sink = qpinn::telemetry::JsonlSink::create(&path).unwrap();
        qpinn::telemetry::install(std::sync::Arc::new(sink));
        let (mut task, mut params) = quad_fixture();
        let log = Trainer::new(quad_cfg(20, None)).train(&mut task, &mut params);
        qpinn::telemetry::shutdown();
        log
    };

    let after = qpinn::telemetry::counter("telemetry.write_errors").get();
    assert!(after > before, "every failed write must bump telemetry.write_errors");
    assert!(
        log.warnings.iter().any(|w| w.contains("telemetry sink writes failed")),
        "trainer must surface the sink failure: {:?}",
        log.warnings
    );
    // Every event write failed, so only nothing-or-header can be on disk.
    let written = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(written.is_empty(), "failed writes must not reach the file: {written:?}");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Invariant 4: pool stalls never deadlock or change ordered reductions.
// ---------------------------------------------------------------------------

#[test]
fn pool_stall_neither_deadlocks_nor_changes_ordered_reductions() {
    let _g = serial();
    let n = 200_000usize;
    let reduce = || {
        (0..n)
            .into_par_iter()
            .map(|i| ((i as f64) * 1e-3).sin() / ((i + 1) as f64).sqrt())
            .sum::<f64>()
    };

    // Width-1 reference (sequential fast path) and an unstalled parallel run.
    let seq = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(reduce);
    let par = reduce();
    assert_eq!(seq.to_bits(), par.to_bits(), "ordered reduction must be width-invariant");

    // Stall workers on half their ticket pops: the set must still drain
    // (launcher + unstalled workers absorb the tail) with identical bits.
    let stalled = {
        let _arm = testkit::arm("pool.steal_stall", Trigger::Every(2));
        reduce()
    };
    assert_eq!(
        par.to_bits(),
        stalled.to_bits(),
        "a stalled worker must not change ordered-reduction results"
    );

    // And a stall armed during nested join/install traffic must not
    // deadlock either (completion of this call is the assertion).
    let nested = {
        let _arm = testkit::arm("pool.steal_stall", Trigger::Always);
        rayon::join(reduce, reduce)
    };
    assert_eq!(nested.0.to_bits(), par.to_bits());
    assert_eq!(nested.1.to_bits(), par.to_bits());
}

// ---------------------------------------------------------------------------
// Invariant 5: a stalled serve flush is visible in the latency split but
// never loses, duplicates, or perturbs a response — and admission control
// keeps shedding with Retry-After while the dispatcher is stuck.
// ---------------------------------------------------------------------------

#[test]
fn serve_flush_stall_shows_in_queue_latency_without_losing_requests() {
    use qpinn::serve::{ServeConfig, ServeServer};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let _g = serial();

    fn http(addr: std::net::SocketAddr, body: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(120))).unwrap();
        write!(
            s,
            "POST /v1/eval HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn publish(server: &ServeServer) {
        let spec = qpinn::serve::ModelSpec {
            name: "tdse".into(),
            seed: 3,
            problem: String::new(),
            net: qpinn::core::model::FieldNetConfig::standard_wave(12.0, 1.0, 8, 1),
        };
        let mut params = ParamSet::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(spec.seed);
        let _ = qpinn::core::model::FieldNet::new(&mut params, &mut rng, &spec.net, &spec.name);
        server
            .registry()
            .publish("stall", &spec, &params, Default::default(), 1, 0.0)
            .unwrap();
    }

    let dir = test_dir("flush-stall");
    let mut cfg = ServeConfig::new(dir.join("models"));
    cfg.workers = 8;
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    publish(&server);

    // Unstalled solo references, one per payload.
    let payloads: Vec<String> = (0..6)
        .map(|i| format!(r#"{{"model":"stall","points":[[{}.5,0.1],[-1.0,0.2]]}}"#, i))
        .collect();
    let solo: Vec<String> = payloads
        .iter()
        .map(|p| {
            let (head, body) = http(addr, p);
            assert!(head.contains("200 OK"), "{head}");
            body
        })
        .collect();

    let before = qpinn::telemetry::histogram(qpinn::telemetry::names::SERVE_LAT_QUEUE_NS).snapshot();

    // Stall every flush, then stagger the clients: the first request's
    // batch stalls 25 ms inside dispatch, so the rest pile up in the
    // queue and their recorded queue wait absorbs the stall.
    let stalled: Vec<String> = {
        let _arm = testkit::arm("serve.flush_stall", Trigger::Always);
        let first = {
            let p = payloads[0].clone();
            std::thread::spawn(move || http(addr, &p))
        };
        std::thread::sleep(std::time::Duration::from_millis(8));
        let rest: Vec<_> = payloads[1..]
            .iter()
            .cloned()
            .map(|p| std::thread::spawn(move || http(addr, &p)))
            .collect();
        let mut out = vec![first.join().unwrap()];
        out.extend(rest.into_iter().map(|c| c.join().unwrap()));
        assert!(testkit::fired("serve.flush_stall") >= 1, "stall never fired");
        out.into_iter()
            .map(|(head, body)| {
                assert!(head.contains("200 OK"), "{head}");
                body
            })
            .collect()
    };

    // No request lost, none double-answered, every byte identical to
    // the unstalled solo answer.
    assert_eq!(stalled.len(), payloads.len());
    for (got, want) in stalled.iter().zip(&solo) {
        assert_eq!(got, want, "stalled flush changed a response");
    }

    // The stall is visible where the design says: queue wait. At least
    // one of the piled-up requests waited ≈ the 25 ms stall.
    let after = qpinn::telemetry::histogram(qpinn::telemetry::names::SERVE_LAT_QUEUE_NS).snapshot();
    assert!(after.count > before.count, "no queue-wait samples recorded");
    assert!(
        after.max >= 10_000_000,
        "queue-wait max {} ns does not show the 25 ms stall",
        after.max
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // Admission control is untouched by a stalled dispatcher: a
    // zero-slot queue still sheds immediately with Retry-After.
    let dir2 = test_dir("flush-stall-shed");
    let mut cfg = ServeConfig::new(dir2.join("models"));
    cfg.batch = qpinn::serve::BatchConfig { queue_cap: 0 };
    let server = ServeServer::start("127.0.0.1:0", cfg).unwrap();
    publish(&server);
    {
        let _arm = testkit::arm("serve.flush_stall", Trigger::Always);
        let (head, _) = http(
            server.local_addr(),
            r#"{"model":"stall","points":[[0.5,0.1]]}"#,
        );
        assert!(head.contains("429"), "{head}");
        assert!(head.contains("Retry-After:"), "shed lost Retry-After under stall:\n{head}");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir2);
}

// ---------------------------------------------------------------------------
// Determinism of the plane itself, through the public spec syntax.
// ---------------------------------------------------------------------------

#[test]
fn spec_armed_schedules_replay_identically() {
    let _g = serial();
    let spec = "chaos.a=prob(0.3,seed=42);chaos.b=every(3);chaos.c=times(4)";
    let run = || -> Vec<(bool, bool, bool)> {
        let _arm = testkit::arm_spec(spec).unwrap();
        (0..100)
            .map(|_| {
                (
                    testkit::should_fail("chaos.a"),
                    testkit::should_fail("chaos.b"),
                    testkit::should_fail("chaos.c"),
                )
            })
            .collect()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "identical spec must replay identically");
    assert!(first.iter().any(|t| t.0), "prob(0.3) over 100 draws should fire");
    let b_fires: Vec<usize> = first
        .iter()
        .enumerate()
        .filter(|(_, t)| t.1)
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(b_fires, vec![3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90, 93, 96, 99]);
    assert_eq!(first.iter().filter(|t| t.2).count(), 4, "times(4) fires exactly 4x");
}

// ---------------------------------------------------------------------------
// Env-var activation: exercised in a subprocess so the lazy one-shot
// QPINN_FAILPOINTS parse runs from a clean plane.
// ---------------------------------------------------------------------------

/// Helper executed in the child process (skipped when run normally).
#[test]
fn env_probe_subprocess() {
    if std::env::var("QPINN_CHAOS_ENV_PROBE").is_err() {
        return;
    }
    let trace: String = (0..12)
        .map(|_| {
            if testkit::should_fail("chaos.env.probe") {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    println!("env probe trace {trace}");
}

#[test]
fn env_var_arms_points_lazily_and_deterministically() {
    let _g = serial();
    let exe = std::env::current_exe().unwrap();
    let run = || {
        let out = std::process::Command::new(&exe)
            .args(["env_probe_subprocess", "--exact", "--nocapture", "--test-threads=1"])
            .env("QPINN_FAILPOINTS", "chaos.env.probe=every(2)")
            .env("QPINN_CHAOS_ENV_PROBE", "1")
            .output()
            .expect("child test process");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    assert!(
        first.contains("env probe trace 010101010101"),
        "every(2) via QPINN_FAILPOINTS must fire on exactly the even hits:\n{first}"
    );
    // Identical spec ⇒ identical trigger sequence across runs.
    let second = run();
    let trace = |s: &str| {
        s.lines()
            .find(|l| l.contains("env probe trace"))
            .map(|l| l.to_string())
    };
    assert_eq!(trace(&first), trace(&second));
}
