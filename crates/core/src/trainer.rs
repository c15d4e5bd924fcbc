//! The training loop: Adam with a learning-rate schedule, optional global
//! gradient clipping, trajectory logging, optional L-BFGS polishing,
//! periodic crash-safe checkpointing with bit-exact resume, and a
//! divergence guard that stops hopeless runs early.
//!
//! # Observability
//!
//! Every epoch runs under a telemetry `epoch` span with nested phase
//! spans — `loss` (the task may nest `sample`/`forward`/`residual`
//! inside), `backward`, `step`, `eval`, `checkpoint` — so a JSONL sink
//! reconstructs exactly where each epoch's time went. Progress marks at
//! `log_every` intervals carry loss/grad-norm/lr, `pool_stats` events
//! report work-stealing balance, and anything that would previously have
//! been a bare `eprintln!` (unwritable checkpoint dir, failed save,
//! non-finite loss) is both emitted as a `warn` event and surfaced in
//! [`TrainLog::warnings`]. All of it is dormant (one atomic load per
//! span) unless a sink is installed.

use crate::report::Json;
use crate::runs::{EpochPoint, LayerGrad, RunOutcome, RunRecorder};
use qpinn_autodiff::Graph;
use qpinn_nn::{GraphCtx, ParamSet};
use qpinn_optim::{clip, Adam, Lbfgs, LbfgsConfig, LrSchedule, Optimizer};
use qpinn_persist::{RetentionPolicy, RunMeta, Snapshot, SnapshotStore, TrainLogRecord};
use qpinn_telemetry as telemetry;
use std::path::PathBuf;
use std::time::Instant;

/// A trainable physics-informed task.
pub trait PinnTask {
    /// Build the scalar total loss for the current parameters on a fresh
    /// tape. May update internal curriculum state (causal weights).
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> qpinn_autodiff::Var;

    /// Evaluation error of the current parameters (e.g. relative L2
    /// against the reference solution).
    fn eval_error(&self, params: &ParamSet) -> f64;

    /// Serialize task-internal training state (e.g. causal-curriculum
    /// weights) into an opaque blob stored in checkpoints. Stateless tasks
    /// keep the default empty blob.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state previously produced by [`PinnTask::export_state`].
    /// The default ignores the blob, matching the default export.
    fn import_state(&mut self, _bytes: &[u8]) {}

    /// The unweighted named terms (`pde`, `ic`, `conservation`, …) of the
    /// last [`PinnTask::build_loss`], which a run record's series lines
    /// carry as their `components`. Tasks that name no terms keep the
    /// default empty list.
    fn loss_terms(&self) -> &[(&'static str, f64)] {
        &[]
    }
}

/// Where, how often, and how durably to checkpoint a training run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory the snapshots live in (created on first save).
    pub dir: PathBuf,
    /// Save every this many epochs (a final save at the last epoch always
    /// happens regardless). Values of 0 are treated as 1.
    pub every: usize,
    /// Run identifier recorded in each snapshot's metadata.
    pub run_id: String,
    /// Which snapshots survive pruning after each save.
    pub retention: RetentionPolicy,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every 500 epochs with the default retention
    /// (last 3 plus best-by-eval-error).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 500,
            run_id: "run".into(),
            retention: RetentionPolicy::default(),
        }
    }

    /// Set the save interval.
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Set the run identifier recorded in snapshot metadata.
    pub fn run_id(mut self, id: impl Into<String>) -> Self {
        self.run_id = id.into();
        self
    }

    /// Set the retention policy.
    pub fn retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }
}

/// Early-stop guard against diverging runs: rather than burning the full
/// epoch budget on a run whose loss has exploded, stop once the loss has
/// been non-finite or more than `factor` × its running minimum for
/// `patience` consecutive log intervals.
///
/// Off by default in [`TrainConfig`] (library users may want the full
/// trajectory); the bench harness turns it on.
#[derive(Clone, Copy, Debug)]
pub struct DivergenceGuard {
    /// Loss divergence threshold relative to the running minimum.
    pub factor: f64,
    /// Consecutive bad log intervals tolerated before stopping (values of
    /// 0 are treated as 1).
    pub patience: usize,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        DivergenceGuard {
            factor: 1e3,
            patience: 3,
        }
    }
}

/// A point-in-time view of training progress, delivered to
/// [`TrainConfig::progress`] hooks at every `log_every` interval and
/// mirrored into the `train.progress.*` telemetry gauges (which both
/// servers' `/progress` routes render).
#[derive(Clone, Copy, Debug, Default)]
pub struct Progress {
    /// Current epoch index.
    pub epoch: usize,
    /// Planned total epochs for this run.
    pub epochs_total: usize,
    /// Loss at this epoch.
    pub loss: f64,
    /// Global gradient norm at this epoch.
    pub grad_norm: f64,
    /// Learning rate at this epoch.
    pub lr: f64,
    /// Measured seconds per epoch over the last log interval (0 until a
    /// full interval has elapsed).
    pub s_per_epoch: f64,
    /// Estimated seconds to completion (`s_per_epoch` × remaining
    /// epochs; 0 until `s_per_epoch` is known).
    pub eta_s: f64,
    /// Wall-clock seconds elapsed in this run so far (including time
    /// accumulated before a resume).
    pub wall_s: f64,
}

/// A shareable callback receiving [`Progress`] updates; wraps the
/// closure in an `Arc` so [`TrainConfig`] stays `Clone`.
#[derive(Clone)]
pub struct ProgressHook(pub std::sync::Arc<dyn Fn(&Progress) + Send + Sync>);

impl ProgressHook {
    /// Wrap a closure.
    pub fn new(f: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        ProgressHook(std::sync::Arc::new(f))
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of Adam epochs (full-batch steps).
    pub epochs: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Record loss/gradient-norm every this many epochs.
    pub log_every: usize,
    /// Record the evaluation error every this many epochs (0 = only at the
    /// end).
    pub eval_every: usize,
    /// Optional global gradient-norm clip.
    pub clip: Option<f64>,
    /// Optional L-BFGS polishing iterations after Adam.
    pub lbfgs_polish: Option<usize>,
    /// Optional periodic checkpointing. `None` trains without artifacts.
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional early stop on divergence (checked at `log_every`
    /// intervals). `None` always runs the full budget.
    pub divergence: Option<DivergenceGuard>,
    /// Optional callback invoked with a [`Progress`] snapshot at every
    /// `log_every` interval, for a caller that tracks one run itself
    /// (each serve job's `/v1/jobs/<id>/progress`). The process-wide
    /// `/progress` route needs no hook: it reads the `train.progress.*`
    /// gauges the trainer sets at the same interval. Independent of
    /// telemetry sinks: the hook fires even when the event layer is
    /// dormant.
    pub progress: Option<ProgressHook>,
    /// Optional durable `qpinn-run-v1` run record (see [`crate::runs`]):
    /// an atomic manifest plus an append-only epoch series under
    /// `<dir>/<run_id>/`. `None` leaves no record behind.
    pub run: Option<crate::runs::RunConfig>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 2000,
            schedule: LrSchedule::Step {
                lr0: 1e-3,
                factor: 0.85,
                // Must divide into the default epoch budget so the decay
                // actually fires: every=500 gives three decays over 2000
                // epochs (the old value of 2000 never fired once).
                every: 500,
            },
            log_every: 50,
            eval_every: 0,
            clip: Some(1e3),
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        }
    }
}

/// Trajectories recorded during training.
#[derive(Clone, Debug, Default)]
pub struct TrainLog {
    /// Epoch indices of the loss records.
    pub epochs: Vec<usize>,
    /// Total loss at those epochs.
    pub loss: Vec<f64>,
    /// Global gradient norm at those epochs.
    pub grad_norm: Vec<f64>,
    /// Epoch indices of the error records.
    pub eval_epochs: Vec<usize>,
    /// Evaluation error at those epochs.
    pub error: Vec<f64>,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Final loss.
    pub final_loss: f64,
    /// Final evaluation error.
    pub final_error: f64,
    /// True when the divergence guard stopped the run early.
    pub diverged: bool,
    /// Epoch the run stopped at, when it stopped before `cfg.epochs`.
    pub stop_epoch: Option<usize>,
    /// Human-readable warnings raised during this run (unwritable
    /// checkpoint directory, failed snapshot saves, non-finite losses).
    /// Run-transient: not persisted into checkpoints.
    pub warnings: Vec<String>,
    /// Id of the durable `qpinn-run-v1` record this run wrote, when
    /// [`TrainConfig::run`] was set and the record opened successfully.
    pub run_id: Option<String>,
}

/// Drives a [`PinnTask`] to convergence.
pub struct Trainer {
    /// Hyperparameters.
    pub cfg: TrainConfig,
}

impl Trainer {
    /// With the given configuration.
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer { cfg }
    }

    /// One full-batch loss+gradient evaluation (used by both Adam steps and
    /// the L-BFGS closure).
    fn loss_and_grads(
        task: &mut dyn PinnTask,
        params: &ParamSet,
    ) -> (f64, Vec<qpinn_tensor::Tensor>) {
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, params);
        let (loss, loss_val) = {
            // Tasks nest their own sample/forward/residual spans here.
            let _span = telemetry::span("loss");
            let loss = task.build_loss(&mut ctx);
            let loss_val = ctx.g.value(loss).item();
            (loss, loss_val)
        };
        let collected = {
            let _span = telemetry::span("backward");
            let mut grads = ctx.g.backward(loss);
            ctx.collect_grads(&mut grads)
        };
        grad_evals().inc();
        (loss_val, collected)
    }

    /// Run Adam (+ optional L-BFGS polish) from scratch and return the log.
    pub fn train(&self, task: &mut dyn PinnTask, params: &mut ParamSet) -> TrainLog {
        let opt = Adam::new(self.cfg.schedule.at(0));
        self.train_segment(task, params, 0, opt, TrainLog::default())
    }

    /// Resume training from the newest intact snapshot in `dir`.
    ///
    /// Restores parameters, Adam state (step count and moment buffers),
    /// epoch position, task state, and the accumulated log, then continues
    /// until `cfg.epochs`. The continuation is bit-exact: training 2N
    /// epochs in one run produces the same `f64` parameters as training N,
    /// checkpointing, and resuming for N more (as long as L-BFGS polishing
    /// is off — the polish runs after the final snapshot is written, so its
    /// effect is not captured in checkpoints).
    ///
    /// Corrupt or truncated snapshots are skipped in favor of the newest
    /// intact one; the error reports when none survives.
    pub fn resume(
        &self,
        dir: impl Into<PathBuf>,
        task: &mut dyn PinnTask,
        params: &mut ParamSet,
    ) -> qpinn_persist::Result<TrainLog> {
        let store = SnapshotStore::open(dir)?;
        let (snap, path) = store.load_latest()?;
        *params = snap.params;
        task.import_state(&snap.task_state);
        let opt = Adam::from_state(snap.optim);
        let start_epoch = usize::try_from(snap.meta.next_epoch).map_err(|_| {
            qpinn_persist::PersistError::Malformed(format!(
                "snapshot epoch {} overflows usize",
                snap.meta.next_epoch
            ))
        })?;
        let log = record_to_log(&snap.log);
        telemetry::mark("resumed", |e| {
            e.field("start_epoch", start_epoch)
                .field("path", path.display().to_string())
        });
        Ok(self.train_segment(task, params, start_epoch, opt, log))
    }

    /// The shared epoch loop: runs `[start_epoch, cfg.epochs)`, appending to
    /// an already-populated `log` so resumed runs report one continuous
    /// trajectory with accumulated wall time.
    fn train_segment(
        &self,
        task: &mut dyn PinnTask,
        params: &mut ParamSet,
        start_epoch: usize,
        mut opt: Adam,
        mut log: TrainLog,
    ) -> TrainLog {
        let start = Instant::now();
        let prior_wall = log.wall_s;
        let store = self.cfg.checkpoint.as_ref().and_then(|c| {
            match SnapshotStore::open(&c.dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    // The run continues without checkpoints; make that
                    // impossible to miss: a warn event for sinks, a line
                    // on stderr, and a record in the returned log.
                    let msg = telemetry::warn(
                        "checkpoint_dir_unavailable",
                        format!(
                            "cannot open checkpoint dir {}: {e}; continuing WITHOUT checkpoints",
                            c.dir.display()
                        ),
                    );
                    eprintln!("warning: {msg}");
                    log.warnings.push(msg);
                    None
                }
            }
        });
        // Durable run record: opened here so its manifest reflects the
        // actual pool/SIMD widths of the executing segment. An unopenable
        // record degrades to a warning — same policy as checkpoints.
        let mut recorder = self.cfg.run.as_ref().and_then(|rc| {
            let train = Json::obj(vec![
                ("epochs", Json::Num(self.cfg.epochs as f64)),
                ("lr0", Json::Num(self.cfg.schedule.at(0))),
                ("log_every", Json::Num(self.cfg.log_every as f64)),
                (
                    "clip",
                    self.cfg.clip.map(Json::Num).unwrap_or(Json::Null),
                ),
                (
                    "lbfgs_polish",
                    self.cfg
                        .lbfgs_polish
                        .map(|n| Json::Num(n as f64))
                        .unwrap_or(Json::Null),
                ),
                // Read back by `qpinn-obs runs table` as the params column.
                ("n_params", Json::Num(params.n_scalars() as f64)),
            ]);
            match RunRecorder::begin(rc, self.cfg.epochs, train) {
                Ok(r) => Some(r),
                Err(e) => {
                    let msg = telemetry::warn(
                        "run_record_unavailable",
                        format!(
                            "cannot open run record under {}: {e}; continuing WITHOUT a run record",
                            rc.dir.display()
                        ),
                    );
                    eprintln!("warning: {msg}");
                    log.warnings.push(msg);
                    None
                }
            }
        });
        log.run_id = recorder.as_ref().map(|r| r.run_id().to_string());
        // A resumed segment that has nothing left to do must still report
        // the loss the run ended on.
        let mut last_loss = if start_epoch == 0 {
            f64::NAN
        } else {
            log.final_loss
        };
        // Divergence-guard state: running finite minimum of the loss and
        // the number of consecutive bad log intervals.
        let mut min_loss = f64::INFINITY;
        let mut bad_intervals = 0usize;
        let mut warned_non_finite = false;
        // Throughput estimate for progress reporting: epoch/time of the
        // previous log mark, so s/epoch reflects the latest interval.
        let mut last_mark: Option<(Instant, usize)> = None;
        for epoch in start_epoch..self.cfg.epochs {
            let mut epoch_span = telemetry::span("epoch");
            epoch_span.field("epoch", epoch);
            let lr = self.cfg.schedule.at(epoch);
            opt.set_lr(lr);
            let (loss_val, mut grads) = Self::loss_and_grads(task, params);
            last_loss = loss_val;
            if loss_val.is_finite() {
                min_loss = min_loss.min(loss_val);
            } else if !warned_non_finite {
                warned_non_finite = true;
                let msg = telemetry::warn(
                    "non_finite_loss",
                    format!("loss became non-finite at epoch {epoch}"),
                );
                log.warnings.push(msg);
            }
            // Per-layer gradient norm + variance, recorded *pre-clip* (the
            // raw optimization signal, like `log.grad_norm`) and only at
            // log intervals so the hot loop stays flat.
            let mut layer_stats = Vec::new();
            if epoch % self.cfg.log_every.max(1) == 0 {
                layer_stats = layer_grad_stats(params, &grads);
            }
            let gnorm = match self.cfg.clip {
                Some(c) => clip::clip_global_norm(&mut grads, c),
                None => clip::global_norm(&grads),
            };
            if epoch % self.cfg.log_every.max(1) == 0 {
                log.epochs.push(epoch);
                log.loss.push(loss_val);
                log.grad_norm.push(gnorm);
                let now = Instant::now();
                let s_per_epoch = match last_mark {
                    Some((t0, e0)) if epoch > e0 => {
                        (now - t0).as_secs_f64() / (epoch - e0) as f64
                    }
                    _ => 0.0,
                };
                last_mark = Some((now, epoch));
                let progress = Progress {
                    epoch,
                    epochs_total: self.cfg.epochs,
                    loss: loss_val,
                    grad_norm: gnorm,
                    lr,
                    s_per_epoch,
                    eta_s: s_per_epoch * (self.cfg.epochs - epoch) as f64,
                    wall_s: prior_wall + start.elapsed().as_secs_f64(),
                };
                publish_progress(&progress);
                if let Some(hook) = &self.cfg.progress {
                    (hook.0)(&progress);
                }
                telemetry::mark("train_progress", |e| {
                    e.field("epoch", epoch)
                        .field("epochs_total", self.cfg.epochs)
                        .field("loss", loss_val)
                        .field("grad_norm", gnorm)
                        .field("lr", lr)
                        .field("s_per_epoch", progress.s_per_epoch)
                        .field("eta_s", progress.eta_s)
                });
                if let Some(rec) = recorder.as_mut() {
                    rec.epoch(&EpochPoint {
                        epoch,
                        loss: loss_val,
                        grad_norm: gnorm,
                        lr,
                        epoch_ms: progress.s_per_epoch * 1e3,
                        components: sorted_terms(task.loss_terms()),
                        layers: std::mem::take(&mut layer_stats),
                    });
                }
                if let Some(guard) = &self.cfg.divergence {
                    let bad = !loss_val.is_finite()
                        || (min_loss.is_finite() && loss_val > guard.factor * min_loss);
                    bad_intervals = if bad { bad_intervals + 1 } else { 0 };
                    if bad_intervals >= guard.patience.max(1) {
                        telemetry::mark("diverged", |e| {
                            e.field("epoch", epoch)
                                .field("loss", loss_val)
                                .field("min_loss", min_loss)
                                .field("bad_intervals", bad_intervals)
                        });
                        let msg = format!(
                            "diverged at epoch {epoch}: loss {loss_val:.3e} vs min {min_loss:.3e} \
                             for {bad_intervals} consecutive log intervals; stopping early"
                        );
                        eprintln!("warning: {msg}");
                        log.warnings.push(msg);
                        log.diverged = true;
                        log.stop_epoch = Some(epoch);
                        if let Some(rec) = recorder.as_mut() {
                            rec.diverged(epoch, loss_val, min_loss);
                        }
                        break;
                    }
                }
            }
            if self.cfg.eval_every > 0 && epoch % self.cfg.eval_every == 0 {
                let _span = telemetry::span("eval");
                log.eval_epochs.push(epoch);
                log.error.push(task.eval_error(params));
            }
            {
                let _span = telemetry::span("step");
                opt.step(params.tensors_mut(), &grads);
            }
            if let (Some(ckpt), Some(store)) = (&self.cfg.checkpoint, &store) {
                let next_epoch = epoch + 1;
                if next_epoch % ckpt.every.max(1) == 0 || next_epoch == self.cfg.epochs {
                    let _span = telemetry::span("checkpoint");
                    let mut saved_log = log.clone();
                    saved_log.wall_s = prior_wall + start.elapsed().as_secs_f64();
                    saved_log.final_loss = last_loss;
                    saved_log.final_error = task.eval_error(params);
                    let snap = Snapshot {
                        meta: RunMeta {
                            run_id: ckpt.run_id.clone(),
                            next_epoch: next_epoch as u64,
                            planned_epochs: self.cfg.epochs as u64,
                            eval_error: saved_log.final_error,
                        },
                        params: params.clone(),
                        optim: opt.export_state(),
                        log: TrainLogRecord::from(&saved_log),
                        task_state: task.export_state(),
                    };
                    match store.save(&snap, &ckpt.retention) {
                        Ok(path) => {
                            if let Some(rec) = recorder.as_mut() {
                                rec.checkpoint(next_epoch, &path);
                            }
                        }
                        Err(e) => {
                            let msg = telemetry::warn(
                                "checkpoint_save_failed",
                                format!("checkpoint save failed: {e}"),
                            );
                            eprintln!("warning: {msg}");
                            log.warnings.push(msg);
                        }
                    }
                }
            }
        }
        crate::obs::emit_pool_stats("train_segment");
        crate::obs::emit_buffer_pool_stats("train_segment");

        if let Some(max_iters) = self.cfg.lbfgs_polish {
            let x0 = params.flatten();
            let mut scratch = params.clone();
            let res = Lbfgs::new(LbfgsConfig {
                max_iters,
                ..Default::default()
            })
            .minimize(
                |x| {
                    scratch.assign_flat(x);
                    let (f, grads) = Self::loss_and_grads(task, &scratch);
                    let mut flat = Vec::with_capacity(x.len());
                    for t in &grads {
                        flat.extend_from_slice(t.data());
                    }
                    (f, flat)
                },
                x0,
            );
            // Keep the polish only if it actually improved the loss.
            if res.f.is_finite() && res.f < last_loss {
                params.assign_flat(&res.x);
                last_loss = res.f;
            }
        }

        log.final_loss = last_loss;
        log.final_error = task.eval_error(params);
        log.wall_s = prior_wall + start.elapsed().as_secs_f64();
        // Publish the terminal manifest. A failed finalize leaves the
        // intact start-of-run manifest behind (outcome `incomplete`),
        // which is exactly what a crash would have left.
        if let Some(mut rec) = recorder.take() {
            let outcome = if log.diverged {
                RunOutcome::Diverged
            } else if !log.final_loss.is_finite() {
                RunOutcome::Error
            } else {
                RunOutcome::Converged
            };
            let epochs_run = log.stop_epoch.unwrap_or(self.cfg.epochs);
            if let Err(e) = rec.finalize(outcome, epochs_run, log.final_loss, log.final_error) {
                let msg = telemetry::warn(
                    "run_finalize_failed",
                    format!("run {} finalize failed: {e}", rec.run_id()),
                );
                eprintln!("warning: {msg}");
                log.warnings.push(msg);
            }
        }
        // Telemetry sinks swallow I/O errors on the dispatch path (a full
        // disk must not kill training); surface any accumulated failure
        // here, where emitting a warn event is re-entrancy-safe.
        if let Some(err) = telemetry::take_write_error() {
            let lost = telemetry::counter("telemetry.write_errors").get();
            let msg = telemetry::warn(
                "telemetry_write_failed",
                format!("telemetry sink writes failed ({lost} so far): {err}"),
            );
            eprintln!("warning: {msg}");
            log.warnings.push(msg);
        }
        log
    }
}

/// Mirror a [`Progress`] snapshot into the always-on metrics registry:
/// these gauges are the only feed of the `/progress` route, and they
/// reach `/metrics` and final metric snapshots without any sink
/// installed.
fn publish_progress(p: &Progress) {
    telemetry::gauge("train.progress.epoch").set(p.epoch as f64);
    telemetry::gauge("train.progress.epochs_total").set(p.epochs_total as f64);
    telemetry::gauge("train.progress.loss").set(p.loss);
    telemetry::gauge("train.progress.grad_norm").set(p.grad_norm);
    telemetry::gauge("train.progress.lr").set(p.lr);
    telemetry::gauge("train.progress.s_per_epoch").set(p.s_per_epoch);
    telemetry::gauge("train.progress.eta_s").set(p.eta_s);
    telemetry::gauge("train.progress.wall_s").set(p.wall_s);
}

/// Per-layer gradient norm + variance: one `train.grad.norm.<layer>`
/// and one `train.grad.var.<layer>` histogram sample per parameter
/// tensor, returned as [`LayerGrad`] rows for the run-record series.
/// `grads` is the [`ParamSet`]-ordered vector from `collect_grads`, so
/// zipping with [`ParamSet::iter`] pairs each stat with its layer name.
/// Values go through [`telemetry::Histogram::record_f64`] (nano-unit
/// scaling), so the log2 buckets resolve magnitudes down to 1e-9. The
/// variance is the population variance of the layer's gradient *entries*
/// — the barren-plateau signal: it collapsing toward zero across depth
/// is what the mitigation literature tracks.
fn layer_grad_stats(params: &ParamSet, grads: &[qpinn_tensor::Tensor]) -> Vec<LayerGrad> {
    params
        .iter()
        .zip(grads)
        .map(|((_, name, _), g)| {
            let data = g.data();
            let n = data.len().max(1) as f64;
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for v in data {
                sum += v;
                sum_sq += v * v;
            }
            let norm = sum_sq.sqrt();
            let mean = sum / n;
            let var = (sum_sq / n - mean * mean).max(0.0);
            telemetry::histogram(&format!("train.grad.norm.{name}")).record_f64(norm);
            telemetry::histogram(&format!("train.grad.var.{name}")).record_f64(var);
            LayerGrad {
                name: name.to_string(),
                norm,
                var,
            }
        })
        .collect()
}

/// A task's named loss terms in name order, for the run-record series.
fn sorted_terms(terms: &[(&'static str, f64)]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = terms.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Cached handle for the `train.grad_evals` counter so the per-epoch hot
/// path pays one relaxed atomic add, not a registry map lookup.
fn grad_evals() -> &'static std::sync::Arc<telemetry::Counter> {
    static CTR: std::sync::OnceLock<std::sync::Arc<telemetry::Counter>> =
        std::sync::OnceLock::new();
    CTR.get_or_init(|| telemetry::counter("train.grad_evals"))
}

/// Lossless conversion into the persist crate's plain-data log mirror,
/// the form checkpoints and published models store.
impl From<&TrainLog> for TrainLogRecord {
    fn from(log: &TrainLog) -> Self {
        TrainLogRecord {
            epochs: log.epochs.iter().map(|&e| e as u64).collect(),
            loss: log.loss.clone(),
            grad_norm: log.grad_norm.clone(),
            eval_epochs: log.eval_epochs.iter().map(|&e| e as u64).collect(),
            error: log.error.clone(),
            wall_s: log.wall_s,
            final_loss: log.final_loss,
            final_error: log.final_error,
        }
    }
}

/// Inverse of the `From<&TrainLog>` conversion above.
fn record_to_log(rec: &TrainLogRecord) -> TrainLog {
    TrainLog {
        epochs: rec.epochs.iter().map(|&e| e as usize).collect(),
        loss: rec.loss.clone(),
        grad_norm: rec.grad_norm.clone(),
        eval_epochs: rec.eval_epochs.iter().map(|&e| e as usize).collect(),
        error: rec.error.clone(),
        wall_s: rec.wall_s,
        final_loss: rec.final_loss,
        final_error: rec.final_error,
        // Run-transient fields are deliberately not persisted; a resumed
        // run starts with a clean slate for them.
        diverged: false,
        stop_epoch: None,
        warnings: Vec::new(),
        run_id: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_autodiff::Var;
    use qpinn_tensor::Tensor;

    /// A toy task: fit a scalar parameter to minimize (w − 3)².
    struct Quadratic {
        target: f64,
        id: qpinn_nn::ParamId,
    }

    impl PinnTask for Quadratic {
        fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
            let w = ctx.param(self.id);
            let d = ctx.g.add_scalar(w, -self.target);
            ctx.g.mse(d)
        }
        fn eval_error(&self, params: &ParamSet) -> f64 {
            (params.tensors()[0].item() - self.target).abs()
        }
    }

    fn make_task() -> (Quadratic, ParamSet) {
        let mut params = ParamSet::new();
        let id = params.add("w", Tensor::from_vec([1, 1], vec![0.0]));
        (Quadratic { target: 3.0, id }, params)
    }

    #[test]
    fn default_schedule_fires_within_default_epochs() {
        // Regression guard: the default used to pair `epochs: 2000` with a
        // Step schedule of `every: 2000`, so the decay never fired inside a
        // default-length run. The schedule must now decay several times.
        let cfg = TrainConfig::default();
        let lr0 = cfg.schedule.at(0);
        let lr_end = cfg.schedule.at(cfg.epochs - 1);
        assert!(
            lr_end < lr0,
            "default schedule never decays within the default epoch budget"
        );
        // Pin the exact staircase: 0.85^(epoch/500) for the default Step.
        for (epoch, decays) in [(0, 0), (499, 0), (500, 1), (999, 1), (1500, 3), (1999, 3)] {
            let expect = 1e-3 * 0.85f64.powi(decays);
            assert!(
                (cfg.schedule.at(epoch) - expect).abs() < 1e-15,
                "epoch {epoch}: {} != {expect}",
                cfg.schedule.at(epoch)
            );
        }
    }

    #[test]
    fn adam_fits_quadratic() {
        let (mut task, mut params) = make_task();
        let trainer = Trainer::new(TrainConfig {
            epochs: 3000,
            schedule: LrSchedule::Constant { lr: 0.01 },
            log_every: 100,
            eval_every: 500,
            clip: None,
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        });
        let log = trainer.train(&mut task, &mut params);
        assert!(log.final_error < 1e-3, "err {}", log.final_error);
        assert!(!log.loss.is_empty() && !log.error.is_empty());
        assert!(log.loss.last().unwrap() < &log.loss[0]);
    }

    #[test]
    fn lbfgs_polish_reaches_machine_precision() {
        let (mut task, mut params) = make_task();
        let trainer = Trainer::new(TrainConfig {
            epochs: 200,
            schedule: LrSchedule::Constant { lr: 0.05 },
            log_every: 50,
            eval_every: 0,
            clip: None,
            lbfgs_polish: Some(50),
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        });
        let log = trainer.train(&mut task, &mut params);
        assert!(log.final_error < 1e-8, "err {}", log.final_error);
    }

    #[test]
    fn clipping_bounds_recorded_gradients() {
        let (mut task, mut params) = make_task();
        params.tensors_mut()[0].data_mut()[0] = 1e6; // huge initial gradient
        let trainer = Trainer::new(TrainConfig {
            epochs: 5,
            schedule: LrSchedule::Constant { lr: 0.1 },
            log_every: 1,
            eval_every: 0,
            clip: Some(1.0),
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        });
        let log = trainer.train(&mut task, &mut params);
        // pre-clip norms are recorded; the *updates* were clipped, so the
        // parameter cannot have moved more than lr per step.
        assert!(log.grad_norm[0] > 1.0);
        assert!((params.tensors()[0].item() - 1e6).abs() < 0.1 * 5.0 + 1e-9);
    }

    #[test]
    fn per_layer_grad_norm_histograms_are_recorded() {
        let (mut task, mut params) = make_task();
        let trainer = Trainer::new(TrainConfig {
            epochs: 4,
            schedule: LrSchedule::Constant { lr: 0.01 },
            log_every: 2,
            eval_every: 0,
            clip: None,
            lbfgs_polish: None,
            checkpoint: None,
            divergence: None,
            progress: None,
            run: None,
        });
        trainer.train(&mut task, &mut params);
        let snap = telemetry::global().snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "train.grad.norm.w")
            .map(|(_, h)| h)
            .expect("per-layer gradient histogram missing");
        // Epochs 0 and 2 hit the log interval → at least 2 samples (the
        // registry is process-global, so other tests may add more).
        assert!(hist.count >= 2, "count {}", hist.count);
        assert!(hist.max > 0, "gradient norms must be non-zero");
    }
}
