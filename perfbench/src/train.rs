//! The training workloads: time to accuracy for a classical PINN
//! (`train-classical`) and for a circuit-carrying hybrid net
//! (`train-hybrid`).
//!
//! Untraced passes go through the public `Trainer::train`, with the task
//! wrapped so that each `build_loss` and `eval_error` call is timestamped
//! from outside. The traced pass drives the same public calls in the
//! trainer's order (set_lr, build_loss, backward, collect_grads, clip,
//! eval, step) with a span around each, and must reproduce the untraced
//! result bit for bit.

use crate::check::{first_bit_mismatch, first_reaching, EvalPoint};
use crate::stats;
use crate::trace::Tracer;
use crate::{Outcome, Report};
use qpinn_autodiff::{Graph, Var};
use qpinn_core::hybrid::{HybridEigenTask, HybridNet};
use qpinn_core::model::CoordSpec;
use qpinn_core::residual::split_fields;
use qpinn_core::task::net_config_for;
use qpinn_core::trainer::{PinnTask, TrainConfig, Trainer};
use qpinn_core::{ZooTask, ZooTaskConfig};
use qpinn_nn::{GraphCtx, ParamSet};
use qpinn_optim::{clip, Adam, LrSchedule, Optimizer};
use qpinn_problems::{EigenProblem, Fidelity};
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use qpinn_sampling::{latin_hypercube, Domain};
use qpinn_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which training workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Raissi's NLS soliton through the problem registry.
    Classical,
    /// Harmonic ground state with a 4-qubit circuit layer.
    Hybrid,
}

/// Per-workload calibration. The derivations are in `perfbench/README.md`.
struct Plan {
    /// Adam epochs of the traced run's passes, long enough to reach the
    /// target near mid-run.
    epochs: usize,
    /// Adam epochs of each untraced pass.
    pass_epochs: usize,
    /// Nominal seconds of one untraced pass on the reference host. The
    /// pass count is `--seconds` divided by it, a fixed amount of work
    /// for a given `--seconds` whatever the speed of the code measured.
    pass_s: f64,
    /// Eval error that counts as reaching the target.
    target: f64,

    /// Epochs timed inside a one-thread pool.
    w1_epochs: usize,
}

impl Kind {
    fn plan(self) -> Plan {
        match self {
            Kind::Classical => Plan {
                epochs: 300,
                pass_epochs: 25,
                pass_s: 0.9,
                target: 0.15,
                w1_epochs: 20,
            },
            Kind::Hybrid => Plan {
                epochs: 200,
                pass_epochs: 50,
                pass_s: 2.8,
                target: 0.05,
                w1_epochs: 10,
            },
        }
    }
}

const EVAL_EVERY: usize = 25;
/// A finished pass must have cut its first eval error by at least this
/// factor. Relative, because the starting error moves with the seed.
const FLOOR_FRACTION: f64 = 0.5;
const CLIP: f64 = 100.0;
/// Collocation points of the classical task.
const N_COLLOCATION: usize = 1024;
/// Width of the classical trunk.
const WIDTH: usize = 32;
/// Rows the hybrid net pushes through its circuit per epoch: 128
/// collocation points plus the two boundary points.
const HYBRID_ROWS: usize = 128 + 2;

fn schedule() -> LrSchedule {
    LrSchedule::Step {
        lr0: 3e-3,
        factor: 0.85,
        every: 75,
    }
}

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        schedule: schedule(),
        log_every: epochs,
        eval_every: EVAL_EVERY,
        clip: Some(CLIP),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    }
}

fn classical_config() -> ZooTaskConfig {
    ZooTaskConfig {
        width: WIDTH,
        n_collocation: N_COLLOCATION,
        ..ZooTaskConfig::standard()
    }
}

fn quantum_layer() -> QuantumLayer {
    QuantumLayer {
        n_qubits: 4,
        layers: 3,
        ansatz: Ansatz::StronglyEntangling,
        scaling: InputScaling::Acos,
        reupload: false,
    }
}

enum Task {
    Classical(ZooTask),
    Hybrid(HybridEigenTask),
}

impl Task {
    fn pinn(&mut self) -> &mut dyn PinnTask {
        match self {
            Task::Classical(t) => t,
            Task::Hybrid(t) => t,
        }
    }
}

struct Setup {
    task: Task,
    params: ParamSet,
    /// Seconds from `t_start` to the first timed epoch.
    setup_s: f64,
}

/// Build the task from the seed and run one untimed warm-up loss and
/// backward (no optimizer step, so the trajectory is unchanged).
fn set_up(kind: Kind, seed: u64, t_start: Instant) -> Setup {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut task = match kind {
        Kind::Classical => Task::Classical(
            ZooTask::from_key("nls-soliton", &classical_config(), &mut params, &mut rng)
                .expect("nls-soliton is a registered problem"),
        ),
        Kind::Hybrid => {
            let net = HybridNet::new(&mut params, &mut rng, 16, quantum_layer(), "hyb");
            Task::Hybrid(HybridEigenTask::new(
                EigenProblem::harmonic(1.0),
                net,
                128,
                401,
            ))
        }
    };
    {
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let loss = task.pinn().build_loss(&mut ctx);
        let mut grads = ctx.g.backward(loss);
        black_box(ctx.collect_grads(&mut grads));
    }
    Setup {
        task,
        params,
        setup_s: t_start.elapsed().as_secs_f64(),
    }
}

/// Timestamps every `build_loss` (one per epoch) and `eval_error` call
/// the trainer makes.
struct Timed<'a> {
    inner: &'a mut dyn PinnTask,
    starts: Vec<Instant>,
    evals: RefCell<Vec<(Instant, Instant, f64)>>,
}

impl PinnTask for Timed<'_> {
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
        self.starts.push(Instant::now());
        self.inner.build_loss(ctx)
    }

    fn eval_error(&self, params: &ParamSet) -> f64 {
        let t = Instant::now();
        let e = self.inner.eval_error(params);
        self.evals.borrow_mut().push((t, Instant::now(), e));
        e
    }
}

/// What one training pass produced.
struct Pass {
    /// Wall time of each epoch, periodic eval excluded.
    epoch_ms: Vec<f64>,
    /// Wall time of each periodic eval.
    eval_ms: Vec<f64>,
    evals: Vec<EvalPoint>,
    final_error: f64,
    /// First epoch start to last epoch end, evals included.
    train_s: f64,
}

impl Pass {
    /// Whether the pass ended finite and at most [`FLOOR_FRACTION`] of its
    /// first eval error.
    fn learned(&self) -> bool {
        let first = self.evals.first().map_or(f64::NAN, |e| e.error);
        self.final_error.is_finite() && self.final_error <= FLOOR_FRACTION * first
    }

    fn reached(&self, target: f64) -> Option<EvalPoint> {
        first_reaching(&self.evals, target)
    }

    /// The values two same-seed passes must reproduce bit for bit.
    fn fingerprint(&self, target: f64) -> [f64; 2] {
        let epochs = self.reached(target).map_or(-1.0, |e| e.epoch as f64);
        [self.final_error, epochs]
    }
}

fn untraced_pass(s: &mut Setup, epochs: usize) -> Pass {
    let mut timed = Timed {
        inner: s.task.pinn(),
        starts: Vec::with_capacity(epochs),
        evals: RefCell::new(Vec::new()),
    };
    let log = Trainer::new(train_config(epochs)).train(&mut timed, &mut s.params);
    let starts = timed.starts;
    let evals = timed.evals.into_inner();
    let (final_eval, loop_evals) = evals
        .split_last()
        .expect("the trainer always evaluates at the end");
    let t0 = starts[0];
    let mut epoch_ms = Vec::with_capacity(epochs);
    for (k, &start) in starts.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(final_eval.0);
        let mut d: Duration = end - start;
        if k % EVAL_EVERY == 0 {
            let (a, b, _) = loop_evals[k / EVAL_EVERY];
            d = d.saturating_sub(b - a);
        }
        epoch_ms.push(d.as_secs_f64() * 1e3);
    }
    Pass {
        epoch_ms,
        eval_ms: loop_evals
            .iter()
            .map(|(a, b, _)| (*b - *a).as_secs_f64() * 1e3)
            .collect(),
        evals: loop_evals
            .iter()
            .enumerate()
            .map(|(i, &(_, b, error))| EvalPoint {
                epoch: i * EVAL_EVERY,
                error,
                at_s: (b - t0).as_secs_f64(),
            })
            .collect(),
        final_error: log.final_error,
        train_s: (final_eval.0 - t0).as_secs_f64(),
    }
}

/// Per-epoch layer timings of the self-driven loop.
#[derive(Default)]
struct LoopTimes {
    backward_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    tape_nodes: usize,
}

/// The trainer's epoch loop, driven through the same public calls in the
/// same order, with a span around each call.
fn driven_loop(s: &mut Setup, epochs: usize, tracer: &mut Tracer) -> (Pass, LoopTimes) {
    let sched = schedule();
    let mut opt = Adam::new(sched.at(0));
    let task = s.task.pinn();
    let params = &mut s.params;
    let mut times = LoopTimes::default();
    let mut evals = Vec::new();
    let t0 = Instant::now();
    for epoch in 0..epochs {
        let run = epoch as u64;
        let e0 = Instant::now();
        let mut eval_d = Duration::ZERO;
        tracer.span("epoch", run, |tr| {
            opt.set_lr(sched.at(epoch));
            let mut g = Graph::new();
            let mut grads = {
                let mut ctx = GraphCtx::new(&mut g, params);
                let loss = tr.span("loss", run, |_| {
                    let loss = task.build_loss(&mut ctx);
                    black_box(ctx.g.value(loss).item());
                    loss
                });
                times.tape_nodes = ctx.g.len();
                let b0 = Instant::now();
                let grads = tr.span("backward", run, |_| {
                    let mut raw = ctx.g.backward(loss);
                    ctx.collect_grads(&mut raw)
                });
                times.backward_ms.push(b0.elapsed().as_secs_f64() * 1e3);
                grads
            };
            drop(g);
            tr.span("clip", run, |_| clip::clip_global_norm(&mut grads, CLIP));
            if epoch % EVAL_EVERY == 0 {
                let v0 = Instant::now();
                let error = tr.span("eval", run, |_| task.eval_error(params));
                eval_d = v0.elapsed();
                evals.push(EvalPoint {
                    epoch,
                    error,
                    at_s: t0.elapsed().as_secs_f64(),
                });
            }
            tr.span("step", run, |_| opt.step(params.tensors_mut(), &grads));
        });
        times
            .epoch_ms
            .push(e0.elapsed().saturating_sub(eval_d).as_secs_f64() * 1e3);
    }
    let train_s = t0.elapsed().as_secs_f64();
    let final_error = task.eval_error(params);
    let eval_ms = values(&tracer.self_ms("eval"));
    let pass = Pass {
        epoch_ms: times.epoch_ms.clone(),
        eval_ms,
        evals,
        final_error,
        train_s,
    };
    (pass, times)
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(f64::NAN)
}

fn values(runs: &[(u64, f64)]) -> Vec<f64> {
    runs.iter().map(|&(_, v)| v).collect()
}

/// VmHWM of this process in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Untraced run: `--seconds / pass_s` training passes (at least two),
/// each rebuilt from the seed, which must agree bit for bit.
pub fn run(kind: Kind, seed: u64, seconds: f64, t_start: Instant) -> Outcome {
    assert!(
        !qpinn_telemetry::enabled(),
        "a telemetry sink is installed: spans would be dispatched inside timed epochs"
    );
    let plan = kind.plan();
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let n_passes = ((seconds / plan.pass_s).round() as usize).max(2);
    for i in 0..n_passes {
        // The first set-up is timed from process start.
        let mut s = set_up(kind, seed, if i == 0 { t_start } else { Instant::now() });
        setups.push(s.setup_s);
        passes.push(untraced_pass(&mut s, plan.pass_epochs));
    }
    // Each pass is one measurement window; the host's speed changes from
    // window to window, so the end-to-end figures come from the fastest.
    let best_p50 = passes
        .iter()
        .map(|p| median(&p.epoch_ms))
        .fold(f64::INFINITY, f64::min);
    let best_rate = passes
        .iter()
        .map(|p| plan.pass_epochs as f64 / p.train_s)
        .fold(0.0, f64::max);
    let epoch_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.epoch_ms.iter().copied())
        .collect();
    let p90 = stats::tail(&epoch_ms, 90.0, &[]).expect("two passes time at least 100 epochs");
    rep.put("setup_s", median(&setups), "s", setups.len());
    rep.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.put("op_ms_p50_best", best_p50, "ms", passes.len());
    rep.put("ops_per_s_best", best_rate, "1/s", passes.len());
    rep.put(
        "trainer.epoch_ms_p50",
        median(&epoch_ms),
        "ms",
        epoch_ms.len(),
    );
    rep.put("trainer.epoch_ms_p90", p90.value, "ms", p90.n);
    let (ok, failed) = verdict(&passes, &plan, &mut rep);
    Outcome {
        report: rep,
        correct: ok,
        attempted: passes.len() as u64,
        failed,
    }
}

/// Floor and same-seed bit-identity checks over every pass.
fn verdict(passes: &[Pass], plan: &Plan, rep: &mut Report) -> (bool, u64) {
    let want = passes[0].fingerprint(plan.target);
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        let floor_ok = p.learned();
        let same = first_bit_mismatch(&want, &p.fingerprint(plan.target)).is_none();
        if !floor_ok {
            rep.note(format!(
                "pass {i}: final_error {:e} is not under {FLOOR_FRACTION} x the first eval error",
                p.final_error
            ));
        }
        if !same {
            rep.note(format!(
                "pass {i}: (final_error, epochs_to_target) = {:?} differs in bits from pass 0's {:?}",
                p.fingerprint(plan.target),
                want
            ));
        }
        if !(floor_ok && same) {
            failed += 1;
        }
    }
    (failed == 0, failed)
}

/// Time-to-accuracy figures of one pass (reported, not bounded: they
/// move with the seed).
fn report_quality(p: &Pass, plan: &Plan, rep: &mut Report) {
    let (t, e) = match p.reached(plan.target) {
        Some(hit) => (hit.at_s, hit.epoch as f64),
        None => {
            rep.note(format!(
                "target {:e} not reached in {} epochs; time/epochs to target report the whole pass",
                plan.target, plan.epochs
            ));
            (p.train_s, plan.epochs as f64)
        }
    };
    let trajectory: Vec<String> = p
        .evals
        .iter()
        .map(|e| format!("{}:{:.4}", e.epoch, e.error))
        .collect();
    rep.note(format!(
        "eval trajectory (epoch:error) {}",
        trajectory.join(" ")
    ));
    rep.put("trainer.time_to_target_s", t, "s", 1);
    rep.put("trainer.epochs_to_target", e, "count", 1);
    rep.put("trainer.final_error", p.final_error, "ratio", 1);
}

fn time_median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&xs)
}

/// Traced run: one untraced pass for reference, the same pass again with
/// spans, a one-thread pass, and the per-layer probes.
pub fn run_traced(kind: Kind, seed: u64, t_start: Instant) -> Outcome {
    assert!(
        !qpinn_telemetry::enabled(),
        "a telemetry sink is installed: spans would be dispatched inside timed epochs"
    );
    let plan = kind.plan();
    let mut rep = Report::default();

    let mut s = set_up(kind, seed, t_start);
    let plain = untraced_pass(&mut s, plan.epochs);

    let mut s = set_up(kind, seed, Instant::now());
    let mut tracer = Tracer::default();
    let pool0 = qpinn_tensor::pool::stats();
    let ray0 = rayon::pool_stats();
    let (traced, times) = driven_loop(&mut s, plan.epochs, &mut tracer);
    let pool1 = qpinn_tensor::pool::stats();
    let ray1 = rayon::pool_stats();

    let mut failed = 0;
    let want = plain.fingerprint(plan.target);
    if let Some(i) = first_bit_mismatch(&want, &traced.fingerprint(plan.target)) {
        rep.note(format!(
            "traced run differs from the untraced run in {}: {:?} vs {:?}",
            ["final_error", "epochs_to_target"][i],
            traced.fingerprint(plan.target),
            want
        ));
        failed += 1;
    }
    if !plain.learned() {
        rep.note(format!(
            "final_error {:e} is not under {FLOOR_FRACTION} x the first eval error",
            plain.final_error
        ));
        failed += 1;
    }
    report_quality(&plain, &plan, &mut rep);

    let epochs = plan.epochs as f64;
    // The optimizer layer: clip plus step of the same epoch.
    let mut step_by_epoch = std::collections::BTreeMap::new();
    for (run, ms) in tracer
        .self_ms("clip")
        .into_iter()
        .chain(tracer.self_ms("step"))
    {
        *step_by_epoch.entry(run).or_insert(0.0) += ms;
    }
    let step_ms: Vec<f64> = step_by_epoch.into_values().collect();
    let plain_p50 = median(&plain.epoch_ms);
    let traced_p50 = median(&traced.epoch_ms);
    let p90 =
        stats::tail(&plain.epoch_ms, 90.0, &[]).expect("a traced pass times at least 100 epochs");
    rep.put(
        "trainer.epoch_ms_p50",
        plain_p50,
        "ms",
        plain.epoch_ms.len(),
    );
    rep.put("trainer.epoch_ms_p90", p90.value, "ms", p90.n);
    rep.put(
        "trainer.loss_ms",
        median(&values(&tracer.self_ms("loss"))),
        "ms",
        plan.epochs,
    );
    rep.put(
        "trainer.backward_ms",
        median(&values(&tracer.self_ms("backward"))),
        "ms",
        plan.epochs,
    );
    rep.put("trainer.step_ms", median(&step_ms), "ms", step_ms.len());
    rep.put(
        "trainer.eval_ms",
        median(&plain.eval_ms),
        "ms",
        plain.eval_ms.len(),
    );
    rep.put("autodiff.tape_nodes", times.tape_nodes as f64, "count", 1);
    let allocated = (pool1.allocated - pool0.allocated) as f64;
    let reused = (pool1.reused - pool0.reused) as f64;
    rep.put(
        "tensor.pool.alloc_per_epoch",
        allocated / epochs,
        "count",
        plan.epochs,
    );
    rep.put(
        "tensor.pool.reuse_frac",
        reused / (reused + allocated).max(1.0),
        "ratio",
        plan.epochs,
    );
    let sets = (ray1.sets_launched - ray0.sets_launched) as f64;
    let total = ray1.total_tasks().saturating_sub(ray0.total_tasks()) as f64;
    let moved = total - (ray1.launcher_tasks - ray0.launcher_tasks) as f64;
    rep.put("rayon.sets_per_epoch", sets / epochs, "count", plan.epochs);
    rep.put(
        "rayon.steal_frac",
        moved / total.max(1.0),
        "ratio",
        plan.epochs,
    );
    rep.put(
        "bench.trace_overhead_pct",
        100.0 * (traced_p50 / plain_p50 - 1.0),
        "%",
        plan.epochs,
    );

    // The plain single-threaded baseline: same epochs, pool width 1.
    let w1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool builds");
    let w1_times = w1.install(|| {
        let mut s = set_up(kind, seed, Instant::now());
        driven_loop(&mut s, plan.w1_epochs, &mut Tracer::default()).1
    });
    let w1_epoch = median(&w1_times.epoch_ms);
    rep.put("rayon.epoch_ms_w1", w1_epoch, "ms", plan.w1_epochs);

    // The circuit layer is probed on both workloads, so that it stays
    // measured when only train-classical runs; its backward share needs the
    // hybrid task's backward at pool width 1.
    let hybrid_backward_w1 = match kind {
        Kind::Classical => {
            classical_probes(seed, plain_p50, &mut rep);
            let times = w1.install(|| {
                let mut s = set_up(Kind::Hybrid, seed, Instant::now());
                driven_loop(
                    &mut s,
                    Kind::Hybrid.plan().w1_epochs,
                    &mut Tracer::default(),
                )
                .1
            });
            median(&times.backward_ms)
        }
        Kind::Hybrid => median(&w1_times.backward_ms),
    };
    w1.install(|| hybrid_probes(seed, hybrid_backward_w1, &mut rep));
    rep.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    Outcome {
        report: rep,
        correct: failed == 0,
        attempted: 2,
        failed,
    }
}

/// Matmul work of one epoch's collocation forward and backward, computed
/// from the layer shapes: every jet component (value, first and second
/// derivative per coordinate) passes through every layer, and each
/// forward matmul costs two more in the backward pass.
fn matmul_gflop_per_epoch(kind_cfg: &ZooTaskConfig, net: &qpinn_core::FieldNetConfig) -> f64 {
    let embed: usize = net
        .coords
        .iter()
        .map(|c| match c {
            CoordSpec::Raw => 1,
            CoordSpec::Periodic { .. } | CoordSpec::LearnedPeriod { .. } => 2,
        })
        .sum();
    // The RFF projection maps the embedding to `n_features` angles and
    // emits their sine and cosine.
    let (mut macs, mut width_in) = match net.rff.as_ref() {
        Some(rff) => (embed * rff.n_features, 2 * rff.n_features),
        None => (0, embed),
    };
    for &h in net.hidden.iter().chain(std::iter::once(&net.n_fields)) {
        macs += width_in * h;
        width_in = h;
    }
    let components = 1 + 2 * net.coords.len();
    3.0 * 2.0 * (kind_cfg.n_collocation * components * macs) as f64 / 1e9
}

fn classical_probes(seed: u64, epoch_ms_p50: f64, rep: &mut Report) {
    let cfg = classical_config();
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let task = ZooTask::from_key("nls-soliton", &cfg, &mut params, &mut rng)
        .expect("nls-soliton is a registered problem");
    let problem = task.problem();
    let net = task.net();
    let ranges: Vec<(f64, f64)> = problem.coords().iter().map(|c| (c.lo, c.hi)).collect();
    let domain = Domain::new(&ranges);
    let mut prng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let lhs_us = time_median_us(20, || {
        black_box(latin_hypercube(&domain, N_COLLOCATION, &mut prng));
    });
    rep.put("sampling.lhs_ms", lhs_us / 1e3, "ms", 20);
    let t = Instant::now();
    black_box(problem.reference(Fidelity::Full));
    rep.put("problems.reference_s", t.elapsed().as_secs_f64(), "s", 1);

    let points = latin_hypercube(&domain, N_COLLOCATION, &mut prng);
    let cols: Vec<Tensor> = (0..ranges.len())
        .map(|c| Tensor::column(&points.iter().map(|p| p[c]).collect::<Vec<_>>()))
        .collect();
    let mut fwd = Vec::new();
    let mut res = Vec::new();
    for _ in 0..10 {
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let vars: Vec<Var> = cols.iter().map(|t| ctx.g.constant(t.clone())).collect();
        let t = Instant::now();
        let out = net.forward_jet(&mut ctx, &vars);
        fwd.push(t.elapsed().as_secs_f64() * 1e3);
        let fields = split_fields(ctx.g, &out, net.n_fields());
        let t = Instant::now();
        black_box(problem.residuals(ctx.g, &fields, &points));
        res.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.put("model.forward_jet_ms", median(&fwd), "ms", fwd.len());
    rep.put("problems.residual_ms", median(&res), "ms", res.len());

    let mut krng = StdRng::seed_from_u64(seed ^ 0x6e7);
    let a = Tensor::randn([N_COLLOCATION, WIDTH], 1.0, &mut krng);
    let b = Tensor::randn([WIDTH, WIDTH], 1.0, &mut krng);
    let mm_us = time_median_us(200, || {
        black_box(a.matmul(&b));
    });
    let mm_gflops = 2.0 * (N_COLLOCATION * WIDTH * WIDTH) as f64 / (mm_us * 1e3);
    rep.put("tensor.matmul_gflops", mm_gflops, "GFLOP/s", 200);
    let per_epoch = matmul_gflop_per_epoch(&cfg, &net_config_for(problem, &cfg));
    rep.put("tensor.matmul_gflop_per_epoch", per_epoch, "GFLOP", 1);
    rep.put(
        "tensor.matmul_share",
        per_epoch / mm_gflops / (epoch_ms_p50 / 1e3),
        "ratio",
        1,
    );
    let y = Tensor::randn([N_COLLOCATION, WIDTH], 1.0, &mut krng);
    let ew_us = time_median_us(200, || {
        black_box(a.tanh().mul(&y));
    });
    // tanh reads and writes n values, mul reads two and writes one.
    let n = (N_COLLOCATION * WIDTH) as f64;
    let bytes = 5.0 * 8.0 * n;
    rep.put(
        "tensor.elementwise_gbps",
        bytes / (ew_us * 1e3),
        "GB/s",
        200,
    );
    rep.put(
        "tensor.elementwise_flop_per_byte",
        2.0 * n / bytes,
        "FLOP/B",
        1,
    );

    predict_probes(net, &params, &ranges, seed, rep);
}

/// In-process `predict_batch` cost per point at the served request sizes.
pub(crate) fn predict_probes(
    net: &qpinn_core::FieldNet,
    params: &ParamSet,
    ranges: &[(f64, f64)],
    seed: u64,
    rep: &mut Report,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e7);
    for (n, name) in [
        (16, "model.predict_us_per_point.n16"),
        (256, "model.predict_us_per_point.n256"),
        (1024, "model.predict_us_per_point.n1024"),
    ] {
        let coords: Vec<f64> = (0..n)
            .flat_map(|_| {
                ranges
                    .iter()
                    .map(|&(lo, hi)| lo + (hi - lo) * rng.gen_range(0.0..1.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let reps = (20_000 / n).max(20);
        let us = time_median_us(reps, || {
            black_box(net.predict_batch(params, &coords));
        });
        rep.put(name, us / n as f64, "us", reps);
    }
}

fn hybrid_probes(seed: u64, backward_ms_w1: f64, rep: &mut Report) {
    let q = quantum_layer();
    let nq = q.n_qubits;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9c1);
    let theta = q.init_params(&mut rng);
    let rows = 128;
    let a: Vec<f64> = (0..rows * nq).map(|_| rng.gen_range(-0.9..0.9)).collect();
    let t: Vec<f64> = (0..rows * nq).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let cot: Vec<f64> = (0..nq).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let reps = 15;
    let per_row = |us: f64| us / rows as f64;
    let fwd = per_row(time_median_us(reps, || {
        black_box(q.forward_batch(&a, rows, &theta));
    }));
    let jvp = per_row(time_median_us(reps, || {
        for r in 0..rows {
            black_box(q.jvp_sample(&a[r * nq..][..nq], &t[r * nq..][..nq], &theta));
        }
    }));
    let jac = per_row(time_median_us(reps, || {
        for r in 0..rows {
            black_box(q.jacobians_sample(&a[r * nq..][..nq], &theta));
        }
    }));
    let jvpg = per_row(time_median_us(reps, || {
        for r in 0..rows {
            black_box(q.jvp_grads_sample(&a[r * nq..][..nq], &t[r * nq..][..nq], &theta, &cot));
        }
    }));
    rep.put("qcircuit.forward_us", fwd, "us", reps * rows);
    rep.put("qcircuit.jvp_us", jvp, "us", reps * rows);
    rep.put("qcircuit.jacobians_us", jac, "us", reps * rows);
    rep.put("qcircuit.jvp_grads_us", jvpg, "us", reps * rows);
    rep.put(
        "qcircuit.backward_share",
        HYBRID_ROWS as f64 * (jac + jvpg) / (backward_ms_w1 * 1e3),
        "ratio",
        1,
    );
}
