//! Train-job submission: `POST /v1/train` queues a job, one runner
//! thread trains the queued jobs one at a time in submit order, and
//! `GET /v1/jobs/<id>/progress` streams live epoch/loss/ETA read from
//! the existing [`ProgressHook`] plumbing.
//!
//! On success the trained parameters are published to the
//! [`ModelRegistry`] as the next version of the requested model id; the
//! job's terminal state carries that version so a client can go
//! straight from polling to `POST /v1/eval`. A failed *publish* (e.g.
//! the chaos suite arming `fs.enospc` under the registry) marks the job
//! failed — surfaced as `503` by the server — while already-published
//! versions stay intact and servable, because registry writes are the
//! same atomic tmp+fsync+rename path the checkpoint store uses.

use crate::registry::{ModelRegistry, RegistryError};
use crate::spec::ModelSpec;
use qpinn_core::report::Json;
use qpinn_core::task::{net_config_for, ZooTask, ZooTaskConfig};
use qpinn_core::trainer::{Progress, ProgressHook, TrainConfig, Trainer};
use qpinn_nn::ParamSet;
use qpinn_optim::LrSchedule;
use qpinn_persist::TrainLogRecord;
use qpinn_problems::{zoo, PdeProblem, TdseProblem};
use qpinn_telemetry::{names, TraceCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// A parsed `POST /v1/train` body.
#[derive(Clone, Debug)]
pub struct TrainRequest {
    /// Registry id to publish under (required).
    pub model_id: String,
    /// Problem: a legacy TDSE preset name (`free`, `harmonic`,
    /// `mild-harmonic`, `barrier`) or any key from the `qpinn-problems`
    /// registry (`helmholtz`, `gray-scott`, …); see [`job_problem`].
    pub problem: String,
    /// Hidden-layer width.
    pub width: usize,
    /// Hidden-layer count.
    pub depth: usize,
    /// Adam epochs.
    pub epochs: usize,
    /// Construction + sampling seed (drives deterministic rebuild).
    pub seed: u64,
    /// Interior collocation points.
    pub n_collocation: usize,
    /// Constant learning rate.
    pub lr: f64,
}

impl TrainRequest {
    /// Parse from a JSON body; everything except `model_id` has serving
    /// defaults sized so a smoke-test job finishes in seconds. The model id
    /// must pass the registry's id rule, and the sizes must stay within
    /// the serving limits (depth at most 16), so a request the job could
    /// not publish, or whose network would not fit in memory, is refused
    /// before it is queued.
    pub fn from_json(body: &Json) -> Result<TrainRequest, String> {
        let model_id = body
            .get("model_id")
            .and_then(|v| v.as_str())
            .ok_or("missing required string field `model_id`")?
            .to_string();
        crate::registry::check_id(&model_id).map_err(|e| e.to_string())?;
        let num = |key: &str, default: f64| -> Result<f64, String> {
            match body.get(key) {
                None => Ok(default),
                Some(v) => v.as_num().ok_or(format!("field `{key}` must be a number")),
            }
        };
        let unat = |key: &str, default: usize| -> Result<usize, String> {
            let x = num(key, default as f64)?;
            if x.fract() == 0.0 && x >= 0.0 && x <= u32::MAX as f64 {
                Ok(x as usize)
            } else {
                Err(format!("field `{key}` must be a non-negative integer"))
            }
        };
        let req = TrainRequest {
            model_id,
            problem: body
                .get("problem")
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or("field `problem` must be a string".to_string())
                })
                .transpose()?
                .unwrap_or_else(|| "harmonic".to_string()),
            width: unat("width", 16)?,
            depth: unat("depth", 2)?,
            epochs: unat("epochs", 60)?,
            seed: unat("seed", 0)? as u64,
            n_collocation: unat("n_collocation", 256)?,
            lr: num("lr", 2e-3)?,
        };
        if req.epochs == 0 || req.width == 0 || req.depth == 0 || req.n_collocation == 0 {
            return Err("epochs, width, depth, n_collocation must be positive".into());
        }
        if req.epochs > 100_000 || req.width > 512 || req.depth > 16 || req.n_collocation > 65_536 {
            return Err("train request exceeds serving limits".into());
        }
        if !(req.lr.is_finite() && req.lr > 0.0) {
            return Err("field `lr` must be a positive finite number".into());
        }
        job_problem(&req.problem)?;
        Ok(req)
    }
}

/// Resolve a problem name to what a job trains. The legacy TDSE preset
/// names map onto the Schrödinger adapters: `free` and `harmonic` to the
/// `tdse-free` and `tdse-harmonic` registry keys, `mild-harmonic` and
/// `barrier` to unregistered presets. Any other name is a registry key.
pub fn job_problem(name: &str) -> Result<Box<dyn PdeProblem>, String> {
    let key = match name {
        "free" => "tdse-free",
        "harmonic" => "tdse-harmonic",
        "mild-harmonic" => {
            return Ok(zoo::tdse(
                "tdse-mild-harmonic",
                "1D TDSE, displaced packet in a soft harmonic trap",
                TdseProblem::mild_harmonic(),
            ))
        }
        "barrier" => {
            return Ok(zoo::tdse(
                "tdse-barrier",
                "1D TDSE, moving packet scattering off a smooth barrier",
                TdseProblem::barrier_scattering(),
            ))
        }
        other => other,
    };
    qpinn_problems::lookup(key)
        .map_err(|e| format!("{e} (or a legacy preset free|harmonic|mild-harmonic|barrier)"))
}

/// The [`ZooTaskConfig`] every serve job trains with: quick-fidelity
/// reference and the request's width/depth/collocation. Public for the
/// in-process bit-exactness tests.
pub fn job_zoo_config(req: &TrainRequest) -> ZooTaskConfig {
    let mut cfg = ZooTaskConfig::quick();
    cfg.width = req.width;
    cfg.depth = req.depth;
    cfg.n_collocation = req.n_collocation;
    cfg
}

/// The train config a serve job uses (constant LR, progress every
/// ~5% of the run). Public for the in-process equivalence tests.
pub fn job_train_config(req: &TrainRequest, hook: Option<ProgressHook>) -> TrainConfig {
    TrainConfig {
        epochs: req.epochs,
        schedule: LrSchedule::Constant { lr: req.lr },
        log_every: (req.epochs / 20).max(1),
        progress: hook,
        ..TrainConfig::default()
    }
}

/// Life stages of a submitted job.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// Accepted, waiting for the runner.
    Queued,
    /// Training.
    Running,
    /// Trained and published as `model_id@version`.
    Completed {
        /// The registry version the job published.
        version: u64,
        /// Final evaluation error.
        eval_error: f64,
    },
    /// Training or publishing failed; serving state is unchanged.
    Failed {
        /// What went wrong.
        error: String,
    },
}

/// Mutable state of one job, shared with the runner.
struct JobEntry {
    model_id: String,
    /// Trace id of the submitting HTTP request (empty when tracing was
    /// off); echoed in the progress document so a poller can join a job
    /// back to the access log.
    trace: String,
    /// `qpinn-run-v1` run id (pre-minted at submit when the manager
    /// records runs, so pollers can follow `/v1/runs/<id>` while the
    /// job is still training); empty when run recording is off.
    run_id: String,
    status: JobStatus,
    progress: Progress,
}

/// A submitted job waiting for the runner.
struct QueuedJob {
    id: String,
    entry: Arc<Mutex<JobEntry>>,
    req: TrainRequest,
    trace: String,
    run: Option<qpinn_core::runs::RunConfig>,
}

/// Owns job state and the queue the runner trains from.
pub struct JobManager {
    registry: Arc<ModelRegistry>,
    jobs: Mutex<HashMap<String, Arc<Mutex<JobEntry>>>>,
    /// The queue's sending end; `None` once closed.
    queue: Mutex<Option<mpsc::Sender<QueuedJob>>>,
    /// The queue's receiving end, held by the runner.
    queued: Mutex<mpsc::Receiver<QueuedJob>>,
    next_id: AtomicU64,
    runs: Option<std::path::PathBuf>,
}

impl JobManager {
    /// Manager publishing into `registry`. Jobs train once a thread runs
    /// [`JobManager::run`].
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        let (tx, rx) = mpsc::channel();
        JobManager {
            registry,
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(Some(tx)),
            queued: Mutex::new(rx),
            next_id: AtomicU64::new(1),
            runs: None,
        }
    }

    /// Record every submitted job into the `qpinn-run-v1` store under
    /// `dir` (manifest + epoch series, stamped with the submitting
    /// request's trace id).
    pub fn record_runs(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.runs = dir;
        self
    }

    /// Queue `req` for the runner; returns the job id to poll. The job
    /// reports `queued` until the runner takes it (for good, once the
    /// manager is closed). The submitting request's [`TraceCtx`] (if
    /// tracing is on) is stored on the job and stamped onto its
    /// `train_job` span.
    pub fn submit(&self, req: TrainRequest, ctx: &TraceCtx) -> String {
        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let trace = if ctx.on { ctx.id.clone() } else { String::new() };
        // Pre-mint the run id so the progress document can point at the
        // run record from the very first poll.
        let run = self.runs.as_ref().map(|dir| {
            let run_id = qpinn_telemetry::trace::fresh_id();
            qpinn_core::runs::RunConfig::new(dir, format!("serve/{}", req.problem), req.seed)
                .config(Json::obj(vec![
                    ("model_id", Json::Str(req.model_id.clone())),
                    ("problem", Json::Str(req.problem.clone())),
                    ("width", Json::Num(req.width as f64)),
                    ("depth", Json::Num(req.depth as f64)),
                    ("n_collocation", Json::Num(req.n_collocation as f64)),
                ]))
                .trace(trace.clone())
                .run_id(run_id)
        });
        let entry = Arc::new(Mutex::new(JobEntry {
            model_id: req.model_id.clone(),
            trace: trace.clone(),
            run_id: run
                .as_ref()
                .and_then(|r| r.run_id.clone())
                .unwrap_or_default(),
            status: JobStatus::Queued,
            progress: Progress::default(),
        }));
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id.clone(), entry.clone());
        qpinn_telemetry::counter(names::SERVE_JOBS_STARTED).inc();
        let job = QueuedJob {
            id: id.clone(),
            entry,
            req,
            trace,
            run,
        };
        if let Some(tx) = &*self.queue.lock().unwrap_or_else(|e| e.into_inner()) {
            let _ = tx.send(job);
        }
        id
    }

    /// The runner loop, run by one thread: train queued jobs one at a
    /// time in submit order, and return once [`JobManager::close`] was
    /// called and the queue is empty.
    pub fn run(&self) {
        let queued = self.queued.lock().unwrap_or_else(|e| e.into_inner());
        while let Ok(job) = queued.recv() {
            run_job(&self.registry, job);
        }
    }

    /// Let the runner return once the queued jobs have trained (clean
    /// server shutdown; jobs are not cancelled, they finish).
    pub fn close(&self) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).take();
    }

    /// Render a job's progress document, with the HTTP status it should
    /// be served under (`200` live/done, `503` failed, `None` unknown id).
    pub fn progress_json(&self, job_id: &str) -> Option<(Json, bool)> {
        let entry = self
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(job_id)?
            .clone();
        let e = entry.lock().unwrap_or_else(|p| p.into_inner());
        let mut fields = vec![
            ("job_id", Json::Str(job_id.to_string())),
            ("model_id", Json::Str(e.model_id.clone())),
            (
                "state",
                Json::Str(
                    match e.status {
                        JobStatus::Queued => "queued",
                        JobStatus::Running => "running",
                        JobStatus::Completed { .. } => "completed",
                        JobStatus::Failed { .. } => "failed",
                    }
                    .to_string(),
                ),
            ),
            ("epoch", Json::Num(e.progress.epoch as f64)),
            ("epochs_total", Json::Num(e.progress.epochs_total as f64)),
            ("loss", Json::Num(e.progress.loss)),
            ("lr", Json::Num(e.progress.lr)),
            ("eta_s", Json::Num(e.progress.eta_s)),
            ("wall_s", Json::Num(e.progress.wall_s)),
        ];
        if !e.trace.is_empty() {
            fields.push(("trace", Json::Str(e.trace.clone())));
        }
        if !e.run_id.is_empty() {
            fields.push(("run_id", Json::Str(e.run_id.clone())));
        }
        let mut failed = false;
        match &e.status {
            JobStatus::Completed {
                version,
                eval_error,
            } => {
                fields.push(("version", Json::Num(*version as f64)));
                fields.push(("eval_error", Json::Num(*eval_error)));
            }
            JobStatus::Failed { error } => {
                failed = true;
                fields.push(("error", Json::Str(error.clone())));
            }
            _ => {}
        }
        Some((Json::obj(fields), failed))
    }
}

fn fail(entry: &Arc<Mutex<JobEntry>>, error: String) {
    qpinn_telemetry::counter(names::SERVE_JOBS_FAILED).inc();
    entry.lock().unwrap_or_else(|e| e.into_inner()).status = JobStatus::Failed { error };
}

fn run_job(registry: &ModelRegistry, job: QueuedJob) {
    let QueuedJob { id, entry, req, trace, run } = job;
    // The whole job runs under one span: the trainer's epoch/step spans
    // nest inside it, and the trace id (when the submitting request was
    // traced) lets a timeline tie the training track to that request.
    let mut job_span = qpinn_telemetry::span("train_job");
    job_span.field("job", id).field("model", req.model_id.clone());
    if !trace.is_empty() {
        job_span.field("trace", trace);
    }
    entry.lock().unwrap_or_else(|e| e.into_inner()).status = JobStatus::Running;
    let hook_entry = entry.clone();
    let hook = ProgressHook::new(move |p: &Progress| {
        hook_entry.lock().unwrap_or_else(|e| e.into_inner()).progress = *p;
    });
    let trained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(req.seed);
        let mut train_cfg = job_train_config(&req, Some(hook));
        train_cfg.run = run;
        let problem = job_problem(&req.problem)?;
        let cfg = job_zoo_config(&req);
        let net = net_config_for(problem.as_ref(), &cfg);
        let spec = ModelSpec {
            // ZooTask registers parameters under the problem key, so a
            // spec rebuild with the same name replays it.
            name: problem.key().to_string(),
            seed: req.seed,
            net: net.clone(),
            problem: req.problem.clone(),
        };
        let mut task = ZooTask::new(problem, &net, &cfg, &mut params, &mut rng);
        let log = Trainer::new(train_cfg).train(&mut task, &mut params);
        Ok::<_, String>((spec, params, log))
    }));
    let (spec, params, log) = match trained {
        Ok(Ok(t)) => t,
        Ok(Err(msg)) => return fail(&entry, msg),
        Err(_) => return fail(&entry, "training panicked".into()),
    };
    match registry.publish(
        &req.model_id,
        &spec,
        &params,
        TrainLogRecord::from(&log),
        req.epochs as u64,
        log.final_error,
    ) {
        Ok(version) => {
            qpinn_telemetry::counter(names::SERVE_JOBS_COMPLETED).inc();
            entry.lock().unwrap_or_else(|e| e.into_inner()).status = JobStatus::Completed {
                version,
                eval_error: log.final_error,
            };
        }
        Err(e) => {
            let kind = match e {
                RegistryError::Storage(_) => "publish failed",
                _ => "publish rejected",
            };
            fail(&entry, format!("{kind}: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qpinn-serve-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_request(model_id: &str) -> TrainRequest {
        TrainRequest::from_json(
            &Json::parse(&format!(
                r#"{{"model_id":"{model_id}","problem":"harmonic","width":8,"depth":1,
                    "epochs":4,"seed":11,"n_collocation":32}}"#
            ))
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn request_parsing_applies_defaults_and_rejects_bad_input() {
        let req =
            TrainRequest::from_json(&Json::parse(r#"{"model_id":"m"}"#).unwrap()).unwrap();
        assert_eq!(req.problem, "harmonic");
        assert_eq!(req.width, 16);
        assert_eq!(req.epochs, 60);
        assert!(TrainRequest::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(TrainRequest::from_json(
            &Json::parse(r#"{"model_id":"m","problem":"nope"}"#).unwrap()
        )
        .is_err());
        assert!(TrainRequest::from_json(
            &Json::parse(r#"{"model_id":"m","epochs":0}"#).unwrap()
        )
        .is_err());
        assert!(TrainRequest::from_json(
            &Json::parse(r#"{"model_id":"m","width":1e9}"#).unwrap()
        )
        .is_err());
        // A learning rate must be positive and finite (1e999 parses to +inf).
        for lr in ["-1", "0", "1e999"] {
            let body = format!(r#"{{"model_id":"m","lr":{lr}}}"#);
            let err = TrainRequest::from_json(&Json::parse(&body).unwrap()).unwrap_err();
            assert!(err.contains("lr"), "lr {lr}: {err}");
        }
        let req = TrainRequest::from_json(&Json::parse(r#"{"model_id":"m","lr":0.01}"#).unwrap())
            .unwrap();
        assert_eq!(req.lr, 0.01);
    }

    #[test]
    fn registry_problem_job_trains_and_publishes_vector_output() {
        // The first vector-valued family through the serve plane: a
        // gray-scott job must train, publish, rebuild from its spec, and
        // serve 2-component predictions.
        let dir = tmp_dir("zoo");
        let registry = Arc::new(ModelRegistry::open(RegistryConfig::new(&dir)).unwrap());
        let jobs = JobManager::new(registry.clone());
        let req = TrainRequest::from_json(
            &Json::parse(
                r#"{"model_id":"gs","problem":"gray-scott","width":8,"depth":1,
                    "epochs":3,"seed":5,"n_collocation":32}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let id = jobs.submit(req, &TraceCtx::disabled());
        // Closed, the runner trains what is queued and returns.
        jobs.close();
        std::thread::scope(|s| {
            s.spawn(|| jobs.run());
            let deadline = std::time::Instant::now() + Duration::from_secs(180);
            loop {
                let (doc, failed) = jobs.progress_json(&id).unwrap();
                assert!(!failed, "zoo job failed: {}", doc);
                if doc.get("state").unwrap().as_str() == Some("completed") {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "zoo job did not finish");
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let model = registry.resolve("gs").unwrap();
        assert_eq!(model.spec.problem, "gray-scott");
        assert_eq!(model.net.n_fields(), 2);
        let out = model.net.predict(&model.params, &[vec![1.0, 0.5]]);
        assert_eq!(out.shape().dims(), &[1, 2]);
        assert!(out.all_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_problem_is_rejected_with_registry_listing() {
        let err = TrainRequest::from_json(
            &Json::parse(r#"{"model_id":"m","problem":"no-such-pde"}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("gray-scott"), "listing missing: {err}");
        assert!(err.contains("legacy preset"), "{err}");
    }

    #[test]
    fn job_trains_publishes_and_reports_progress() {
        let dir = tmp_dir("train");
        let registry =
            Arc::new(ModelRegistry::open(RegistryConfig::new(&dir)).unwrap());
        let jobs = JobManager::new(registry.clone());
        let id = jobs.submit(tiny_request("served"), &TraceCtx::disabled());
        jobs.close();
        std::thread::scope(|s| {
            s.spawn(|| jobs.run());
            // Poll to completion.
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            loop {
                let (doc, failed) = jobs.progress_json(&id).unwrap();
                let state = doc.get("state").unwrap().as_str().unwrap().to_string();
                assert!(!failed, "job failed: {}", doc);
                if state == "completed" {
                    assert_eq!(doc.get("version").unwrap().as_num(), Some(1.0));
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "job did not finish");
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        // The published model resolves and evaluates.
        let model = registry.resolve("served").unwrap();
        assert_eq!(model.version, 1);
        assert!(model
            .net
            .predict_batch(&model.params, &[0.1, 0.2])
            .all_finite());
        assert!(jobs.progress_json("job-999").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Jobs wait as `queued` until the runner takes them, and the runner
    /// trains them one at a time in submit order: two jobs for one model
    /// id publish versions 1 and 2 in the order they were submitted.
    #[test]
    fn queued_jobs_train_in_submit_order() {
        let dir = tmp_dir("order");
        let registry = Arc::new(ModelRegistry::open(RegistryConfig::new(&dir)).unwrap());
        let jobs = JobManager::new(registry.clone());
        let ids: Vec<String> = (0..2)
            .map(|_| jobs.submit(tiny_request("order"), &TraceCtx::disabled()))
            .collect();
        let state = |id: &str| {
            let (doc, _) = jobs.progress_json(id).unwrap();
            (doc.get("state").unwrap().as_str().unwrap().to_string(), doc)
        };
        for id in &ids {
            assert_eq!(state(id).0, "queued");
        }
        jobs.close();
        jobs.run();
        for (id, version) in ids.iter().zip([1.0, 2.0]) {
            let (state, doc) = state(id);
            assert_eq!(state, "completed", "{doc}");
            assert_eq!(doc.get("version").unwrap().as_num(), Some(version), "{id}");
        }
        assert_eq!(registry.resolve("order").unwrap().version, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
