//! Micro-batching: coalesce concurrent eval requests for the same model
//! version into one forward pass.
//!
//! One [`Batcher`] (and one dispatch thread) exists per resolved
//! `(model id, version)`. Requests enqueue an [`EvalJob`] and block on a
//! channel. The dispatcher is work-conserving: as soon as it is free it
//! drains whatever is queued, up to [`MAX_BATCH_REQUESTS`] requests and
//! [`MAX_BATCH_POINTS`] points, runs a
//! single [`FieldNet::predict_batch`] over the concatenated coordinates,
//! and scatters each request's rows back through its channel. Nothing
//! is held back to wait for companions; requests that arrive while a
//! flush computes coalesce into the next one, so batches grow exactly
//! when the model is busy.
//!
//! Batching is *transparent*: `predict_batch` evaluates each row with
//! the same fixed-order dot products regardless of what else shares the
//! batch (PR-2's determinism contract), so a coalesced response is
//! bit-identical to the same request evaluated alone — asserted by the
//! serve e2e suite.
//!
//! [`FieldNet::predict_batch`]: qpinn_core::model::FieldNet::predict_batch

use crate::registry::LoadedModel;
use qpinn_telemetry::event::now_ns;
use qpinn_telemetry::{names, Event, Kind, TraceCtx};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Max requests folded into one forward pass.
pub const MAX_BATCH_REQUESTS: usize = 64;

/// Max total points in one forward pass (a single oversized request
/// still runs, alone).
pub const MAX_BATCH_POINTS: usize = 16384;

/// Per-model admission settings.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Max requests queued (waiting, not yet dispatched) per model;
    /// beyond it, admission control sheds with `429`.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { queue_cap: 256 }
    }
}

/// One eval request in flight: row-major coordinates and the channel
/// its rows come back on.
struct EvalJob {
    /// Flattened coordinates, `n_points * n_coords` long.
    coords: Vec<f64>,
    n_points: usize,
    /// Trace id of the originating request (empty when tracing is off
    /// or the caller has no request scope).
    trace: String,
    /// [`now_ns`] when the job entered the queue; anchors `queue_ns`.
    enq_ns: u64,
    tx: mpsc::Sender<JobResult>,
}

/// What comes back on an [`EvalJob`]'s channel: its rows and timing, or
/// why the flush failed.
type JobResult = Result<(Vec<f64>, EvalTiming), String>;

/// Where one request's time went inside the batcher, in nanoseconds on
/// the process telemetry clock ([`now_ns`]). `compute_ns` is the wall
/// time of the shared forward pass, attributed whole to every request
/// in the batch (a request cannot finish before its batch does).
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalTiming {
    /// Wait from enqueue until the dispatcher began draining the batch,
    /// including any time spent behind a flush that was still running.
    pub queue_ns: u64,
    /// Forming and draining the batch: from the start of the drain to
    /// the hand-off to the forward pass. The same for every request in
    /// the batch.
    pub batch_ns: u64,
    /// Forward-pass wall time of the dispatched batch.
    pub compute_ns: u64,
    /// Requests coalesced into the batch that served this one.
    pub batch_size: u64,
    /// [`now_ns`] when the forward pass finished; the server anchors
    /// its serialization stage here.
    pub compute_end_ns: u64,
}

/// A successful evaluation: the request's output rows plus its latency
/// decomposition.
pub struct EvalOutput {
    /// Output rows, `n_points * n_fields` long.
    pub rows: Vec<f64>,
    /// Stage timings for this request.
    pub timing: EvalTiming,
}

/// Why a submission was refused without being queued.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The per-model queue is at capacity — shed (`429 Retry-After`).
    QueueFull,
    /// Coordinate count is not a multiple of the model's input arity.
    BadShape {
        /// The model's coordinate count per point.
        expected_arity: usize,
    },
    /// The batcher is shutting down.
    Closed,
}

struct Queue {
    jobs: VecDeque<EvalJob>,
    closed: bool,
}

/// Per-model-version batching front end. Cheap to clone via `Arc`.
pub struct Batcher {
    model: Arc<LoadedModel>,
    cfg: BatchConfig,
    queue: Mutex<Queue>,
    /// Signals the dispatch thread that jobs arrived (or shutdown).
    signal: Condvar,
}

impl Batcher {
    /// Spawn a batcher (and its dispatch thread) for `model`. Returns
    /// the handle plus the thread's `JoinHandle` for clean shutdown, or
    /// the error of a failed thread spawn (failpoint
    /// `serve.thread_spawn`).
    pub fn spawn(
        model: Arc<LoadedModel>,
        cfg: BatchConfig,
    ) -> std::io::Result<(Arc<Batcher>, std::thread::JoinHandle<()>)> {
        let batcher = Arc::new(Batcher {
            model,
            cfg,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            signal: Condvar::new(),
        });
        let worker = batcher.clone();
        qpinn_testkit::fail_io("serve.thread_spawn")?;
        let join = std::thread::Builder::new()
            .name(format!(
                "qpinn-batch-{}@{}",
                worker.model.id, worker.model.version
            ))
            .spawn(move || worker.run())?;
        Ok((batcher, join))
    }

    /// The model this batcher evaluates.
    pub fn model(&self) -> &Arc<LoadedModel> {
        &self.model
    }

    /// Submit `coords` (row-major, `n_points * arity`) for evaluation.
    /// Blocks the calling (connection-worker) thread until the batch
    /// containing this request is dispatched and returns this request's
    /// output rows, `n_points * n_fields` long.
    pub fn eval(&self, coords: Vec<f64>) -> Result<Vec<f64>, SubmitError> {
        self.eval_traced(coords, &TraceCtx::disabled())
            .map(|out| out.rows)
    }

    /// Like [`Batcher::eval`] but carries the request's [`TraceCtx`]
    /// into the queue and returns the latency decomposition alongside
    /// the rows. The trace id rides the job through the dispatcher
    /// flush, so the flush span event can name every request it served.
    pub fn eval_traced(
        &self,
        coords: Vec<f64>,
        trace: &TraceCtx,
    ) -> Result<EvalOutput, SubmitError> {
        match self.submit(coords, trace)?.recv() {
            Ok(Ok((rows, timing))) => Ok(EvalOutput { rows, timing }),
            // An eval failure surfaces as a 500 on this request only.
            Ok(Err(_msg)) => Err(SubmitError::Closed),
            Err(_) => Err(SubmitError::Closed),
        }
    }

    /// Queue `coords` and return the channel its result arrives on.
    fn submit(
        &self,
        coords: Vec<f64>,
        trace: &TraceCtx,
    ) -> Result<mpsc::Receiver<JobResult>, SubmitError> {
        let arity = self.model.net.n_coords();
        if arity == 0 || coords.len() % arity != 0 || coords.is_empty() {
            return Err(SubmitError::BadShape {
                expected_arity: arity,
            });
        }
        let n_points = coords.len() / arity;
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.closed {
                return Err(SubmitError::Closed);
            }
            if q.jobs.len() >= self.cfg.queue_cap {
                qpinn_telemetry::counter(names::SERVE_SHED).inc();
                return Err(SubmitError::QueueFull);
            }
            q.jobs.push_back(EvalJob {
                coords,
                n_points,
                trace: if trace.on { trace.id.clone() } else { String::new() },
                enq_ns: now_ns(),
                tx,
            });
            qpinn_telemetry::gauge(names::SERVE_QUEUE_DEPTH).set(q.jobs.len() as f64);
        }
        self.signal.notify_one();
        Ok(rx)
    }

    /// Stop the dispatch thread once the queue drains. Pending jobs are
    /// still dispatched; new submissions fail with [`SubmitError::Closed`].
    pub fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.signal.notify_all();
    }

    /// Dispatch loop: wait for work → drain → one forward pass →
    /// scatter. Never waits while jobs are queued.
    fn run(&self) {
        loop {
            let (batch, drain_start_ns, drain_ns) = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                while q.jobs.is_empty() {
                    if q.closed {
                        return;
                    }
                    q = self.signal.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                // Everything a queued job waited before this point, idle
                // wake-up or a previous flush, is its queue_ns.
                let drain_start_ns = now_ns();
                // Drain up to the caps (first job always ships).
                let mut batch: Vec<EvalJob> = Vec::new();
                let mut points = 0usize;
                while let Some(job) = q.jobs.front() {
                    if !batch.is_empty()
                        && (batch.len() >= MAX_BATCH_REQUESTS
                            || points + job.n_points > MAX_BATCH_POINTS)
                    {
                        break;
                    }
                    points += job.n_points;
                    batch.push(q.jobs.pop_front().unwrap());
                }
                qpinn_telemetry::gauge(names::SERVE_QUEUE_DEPTH).set(q.jobs.len() as f64);
                (batch, drain_start_ns, now_ns())
            };
            self.dispatch(batch, drain_start_ns, drain_ns);
        }
    }

    fn dispatch(&self, batch: Vec<EvalJob>, drain_start_ns: u64, drain_ns: u64) {
        if batch.is_empty() {
            return;
        }
        // Chaos hook: a stalled flush delays this batch's responses and
        // backs up the queue, which the next batch's `queue_ns` must
        // expose. The queue lock is NOT held here, so admission control
        // (and its 429/Retry-After sheds) keeps running during the
        // stall.
        if qpinn_testkit::should_fail("serve.flush_stall") {
            std::thread::sleep(Duration::from_millis(25));
        }
        let total_points: usize = batch.iter().map(|j| j.n_points).sum();
        qpinn_telemetry::histogram(names::SERVE_BATCH_SIZE).record(batch.len() as u64);
        qpinn_telemetry::histogram(names::SERVE_BATCH_POINTS).record(total_points as u64);
        qpinn_telemetry::counter(names::SERVE_BATCH_FLUSHES).inc();
        let arity = self.model.net.n_coords();
        let mut coords = Vec::with_capacity(total_points * arity);
        for job in &batch {
            coords.extend_from_slice(&job.coords);
        }
        let compute_start_ns = now_ns();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.model.net.predict_batch(&self.model.params, &coords)
        }));
        // Batch sizes vary from flush to flush, so a kept buffer free list
        // would pin the largest batch's buffers; hand them back instead.
        qpinn_tensor::pool::release();
        let compute_end_ns = now_ns();
        if qpinn_telemetry::enabled() {
            // One span event per flush, naming every traced request it
            // served so a timeline can join flushes back to requests.
            let mut e = Event::new(Kind::Span, "serve_flush")
                .field("path", "serve_flush")
                .field("dur_ns", compute_end_ns.saturating_sub(drain_start_ns))
                .field("model", self.model.qualified_name())
                .field("batch", batch.len() as u64)
                .field("points", total_points as u64);
            let traces: Vec<&str> = batch
                .iter()
                .filter(|j| !j.trace.is_empty())
                .map(|j| j.trace.as_str())
                .collect();
            if !traces.is_empty() {
                e = e.field("traces", traces.join(","));
            }
            qpinn_telemetry::emit(e);
        }
        let batch_size = batch.len() as u64;
        let timing_for = move |job: &EvalJob| EvalTiming {
            queue_ns: drain_start_ns.saturating_sub(job.enq_ns),
            batch_ns: drain_ns.saturating_sub(drain_start_ns),
            compute_ns: compute_end_ns.saturating_sub(compute_start_ns),
            batch_size,
            compute_end_ns,
        };
        match result {
            Ok(out) => {
                let n_fields = out.shape().dims()[1];
                let data = out.data();
                let mut row = 0usize;
                for job in batch {
                    let lo = row * n_fields;
                    let hi = (row + job.n_points) * n_fields;
                    row += job.n_points;
                    let timing = timing_for(&job);
                    let _ = job.tx.send(Ok((data[lo..hi].to_vec(), timing)));
                }
            }
            Err(_) => {
                qpinn_telemetry::counter(names::SERVE_ERRORS).inc();
                for job in batch {
                    let _ = job.tx.send(Err("forward pass panicked".into()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use crate::spec::ModelSpec;
    use qpinn_core::model::FieldNetConfig;
    use qpinn_nn::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn resident_model(tag: &str) -> (Arc<LoadedModel>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "qpinn-serve-batch-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = ModelRegistry::open(RegistryConfig::new(&dir)).unwrap();
        let spec = ModelSpec {
            name: "tdse".into(),
            seed: 7,
            problem: String::new(),
            net: FieldNetConfig::standard_wave(12.0, 1.0, 8, 1),
        };
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let _ = qpinn_core::model::FieldNet::new(&mut params, &mut rng, &spec.net, &spec.name);
        reg.publish(
            "m",
            &spec,
            &params,
            qpinn_persist::TrainLogRecord::default(),
            1,
            0.0,
        )
        .unwrap();
        (reg.resolve("m").unwrap(), dir)
    }

    #[test]
    fn coalesced_results_are_bit_identical_to_solo() {
        let (model, dir) = resident_model("coalesce");
        let (batcher, join) = Batcher::spawn(model.clone(), BatchConfig::default()).unwrap();
        // Solo reference for each request, straight through the net.
        let reqs: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                (0..6)
                    .flat_map(|j| {
                        let x = -5.0 + (i * 6 + j) as f64 * 0.31;
                        let t = 0.05 * (j as f64 + 1.0);
                        [x, t]
                    })
                    .collect()
            })
            .collect();
        let solo: Vec<Vec<f64>> = reqs
            .iter()
            .map(|c| model.net.predict_batch(&model.params, c).data().to_vec())
            .collect();
        // Keep the dispatcher busy: every flush stalls 25 ms with the
        // queue unlocked. Once it has drained the first request, the
        // four queued behind that flush coalesce into the next one.
        let off = TraceCtx::disabled();
        let _stall = qpinn_testkit::arm("serve.flush_stall", qpinn_testkit::Trigger::Always);
        let first = batcher.submit(vec![0.0, 0.1], &off).unwrap();
        while !batcher.queue.lock().unwrap().jobs.is_empty() {
            std::thread::yield_now();
        }
        let replies: Vec<_> = reqs
            .iter()
            .map(|c| batcher.submit(c.clone(), &off).unwrap())
            .collect();
        assert_eq!(first.recv().unwrap().unwrap().1.batch_size, 1);
        let mut largest = 0;
        for (reply, s) in replies.into_iter().zip(&solo) {
            let (got, timing) = reply.recv().unwrap().unwrap();
            largest = largest.max(timing.batch_size);
            assert_eq!(got.len(), s.len());
            for (a, b) in got.iter().zip(s) {
                assert_eq!(a.to_bits(), b.to_bits(), "batched row differs from solo");
            }
        }
        assert!(largest >= 2, "4 requests queued behind a busy flush did not coalesce");
        batcher.close();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_cap_sheds_and_shapes_are_checked() {
        let (model, dir) = resident_model("shed");
        let (batcher, join) = Batcher::spawn(model, BatchConfig { queue_cap: 1 }).unwrap();
        assert_eq!(
            batcher.eval(vec![1.0, 2.0, 3.0]).unwrap_err(),
            SubmitError::BadShape { expected_arity: 2 }
        );
        assert!(matches!(
            batcher.eval(vec![]).unwrap_err(),
            SubmitError::BadShape { .. }
        ));
        // A well-formed request still works (1 point × 2 fields).
        assert_eq!(batcher.eval(vec![0.1, 0.2]).unwrap().len(), 2);
        batcher.close();
        assert_eq!(batcher.eval(vec![0.1, 0.2]).unwrap_err(), SubmitError::Closed);
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
