//! Micro-batching: coalesce concurrent eval requests for the same model
//! version into one forward pass.
//!
//! One [`Batcher`] serves every model through one FIFO, drained by one
//! flush thread that the server starts with its other threads. Requests
//! enqueue an [`EvalJob`] carrying the model version they resolved to and
//! block on a channel. The flush thread is work-conserving: as soon as it
//! is free it takes the head job and the queued jobs of the same model
//! behind it, up to [`MAX_BATCH_REQUESTS`] requests and
//! [`MAX_BATCH_POINTS`] points, runs a single
//! [`FieldNet::predict_batch`] over the concatenated coordinates, and
//! scatters each request's rows back through its channel. Other models'
//! jobs keep their places, so a flush never mixes models. Nothing is
//! held back to wait for companions; requests that arrive while a flush
//! computes coalesce into a later one, so batches grow exactly when the
//! server is busy. Flushes of different models run one after another: a
//! request's queue wait includes any other model's flush ahead of it.
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
    /// Wait from enqueue until the flush thread began draining the
    /// batch, including any time spent behind a flush that was still
    /// running, of this model or another.
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
    /// The model's queued requests are at capacity — shed
    /// (`429 Retry-After`).
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
    /// Every model's queued jobs in arrival order, each beside the model
    /// it evaluates.
    jobs: VecDeque<(Arc<LoadedModel>, EvalJob)>,
    closed: bool,
}

/// The batching front end every model version shares: the flush thread
/// runs [`Batcher::run`], connection workers call [`Batcher::eval`].
pub struct Batcher {
    cfg: BatchConfig,
    queue: Mutex<Queue>,
    /// Signals the flush thread that jobs arrived (or shutdown).
    signal: Condvar,
}

impl Batcher {
    /// An open batcher with an empty queue. Nothing is flushed until a
    /// thread runs [`Batcher::run`].
    pub fn new(cfg: BatchConfig) -> Batcher {
        Batcher {
            cfg,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            signal: Condvar::new(),
        }
    }

    /// Evaluate `coords` (row-major, `n_points * arity`) on `model`.
    /// Blocks the calling (connection-worker) thread until the batch
    /// containing this request is dispatched and returns this request's
    /// output rows, `n_points * n_fields` long, with their latency
    /// decomposition. The request's [`TraceCtx`] id rides the job through
    /// the flush, so the flush span event can name every request it
    /// served.
    pub fn eval(
        &self,
        model: &Arc<LoadedModel>,
        coords: Vec<f64>,
        trace: &TraceCtx,
    ) -> Result<EvalOutput, SubmitError> {
        match self.submit(model, coords, trace)?.recv() {
            Ok(Ok((rows, timing))) => Ok(EvalOutput { rows, timing }),
            // An eval failure surfaces as a 500 on this request only.
            Ok(Err(_msg)) => Err(SubmitError::Closed),
            Err(_) => Err(SubmitError::Closed),
        }
    }

    /// Queue `coords` for `model` and return the channel its result
    /// arrives on.
    fn submit(
        &self,
        model: &Arc<LoadedModel>,
        coords: Vec<f64>,
        trace: &TraceCtx,
    ) -> Result<mpsc::Receiver<JobResult>, SubmitError> {
        let arity = model.net.n_coords();
        if arity == 0 || !coords.len().is_multiple_of(arity) || coords.is_empty() {
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
            let queued = q.jobs.iter().filter(|(m, _)| Arc::ptr_eq(m, model)).count();
            if queued >= self.cfg.queue_cap {
                qpinn_telemetry::counter(names::SERVE_SHED).inc();
                return Err(SubmitError::QueueFull);
            }
            let job = EvalJob {
                coords,
                n_points,
                trace: if trace.on { trace.id.clone() } else { String::new() },
                enq_ns: now_ns(),
                tx,
            };
            q.jobs.push_back((model.clone(), job));
            qpinn_telemetry::gauge(names::SERVE_QUEUE_DEPTH).set(q.jobs.len() as f64);
        }
        self.signal.notify_one();
        Ok(rx)
    }

    /// Stop the flush loop once the queue drains. Pending jobs are
    /// still dispatched; new submissions fail with [`SubmitError::Closed`].
    pub fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.signal.notify_all();
    }

    /// The flush loop, run by one thread until [`Batcher::close`]: wait
    /// for work → drain one model's batch → one forward pass → scatter.
    /// Never waits while jobs are queued.
    pub fn run(&self) {
        loop {
            let (model, batch, drain_start_ns, drain_ns) = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                let (model, first) = loop {
                    if let Some(head) = q.jobs.pop_front() {
                        break head;
                    }
                    if q.closed {
                        return;
                    }
                    q = self.signal.wait(q).unwrap_or_else(|e| e.into_inner());
                };
                // Everything a queued job waited before this point, idle
                // wake-up or an earlier flush, is its queue_ns.
                let drain_start_ns = now_ns();
                // The head job always ships; its model's later jobs join
                // it in arrival order up to the caps, and other models'
                // jobs stay queued.
                let mut points = first.n_points;
                let mut batch = vec![first];
                let mut i = 0;
                while let Some((m, job)) = q.jobs.get(i) {
                    if !Arc::ptr_eq(m, &model) {
                        i += 1;
                        continue;
                    }
                    if batch.len() >= MAX_BATCH_REQUESTS || points + job.n_points > MAX_BATCH_POINTS
                    {
                        break;
                    }
                    points += job.n_points;
                    batch.extend(q.jobs.remove(i).map(|(_, job)| job));
                }
                qpinn_telemetry::gauge(names::SERVE_QUEUE_DEPTH).set(q.jobs.len() as f64);
                (model, batch, drain_start_ns, now_ns())
            };
            Self::dispatch(model, batch, drain_start_ns, drain_ns);
        }
    }

    fn dispatch(model: Arc<LoadedModel>, batch: Vec<EvalJob>, drain_start_ns: u64, drain_ns: u64) {
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
        let arity = model.net.n_coords();
        let mut coords = Vec::with_capacity(total_points * arity);
        for job in &batch {
            coords.extend_from_slice(&job.coords);
        }
        let compute_start_ns = now_ns();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.net.predict_batch(&model.params, &coords)
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
                .field("model", model.qualified_name())
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
        // Let go of the model before the first reply: a caller holding its
        // answer never finds the flush pinning a version the registry evicted.
        drop(model);
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
    use std::collections::BTreeMap;

    /// The stall failpoint and the queue-depth gauge are process-global;
    /// keep the tests that arm or read them from overlapping.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn resident_model(tag: &str, net: FieldNetConfig) -> (Arc<LoadedModel>, std::path::PathBuf) {
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
            net,
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

    fn wave_model(tag: &str) -> (Arc<LoadedModel>, std::path::PathBuf) {
        resident_model(tag, FieldNetConfig::standard_wave(12.0, 1.0, 8, 1))
    }

    /// Run `batcher`'s flush thread.
    fn start(batcher: &Arc<Batcher>) -> std::thread::JoinHandle<()> {
        let flusher = batcher.clone();
        std::thread::spawn(move || flusher.run())
    }

    #[test]
    fn coalesced_results_are_bit_identical_to_solo() {
        let _serial = serial();
        let (model, dir) = wave_model("coalesce");
        let batcher = Arc::new(Batcher::new(BatchConfig::default()));
        let join = start(&batcher);
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
        // Keep the flush thread busy: every flush stalls 25 ms with the
        // queue unlocked. Once it has drained the first request, the
        // four queued behind that flush coalesce into the next one.
        let off = TraceCtx::disabled();
        let _stall = qpinn_testkit::arm("serve.flush_stall", qpinn_testkit::Trigger::Always);
        let first = batcher.submit(&model, vec![0.0, 0.1], &off).unwrap();
        while !batcher.queue.lock().unwrap().jobs.is_empty() {
            std::thread::yield_now();
        }
        let replies: Vec<_> = reqs
            .iter()
            .map(|c| batcher.submit(&model, c.clone(), &off).unwrap())
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

    /// Two models of different arity share the one queue. Queued
    /// interleaved while no flush runs, the queue-depth gauge counts both
    /// models' requests; drained, each flush serves one model, its
    /// requests coalesce past the other model's, and every reply equals
    /// the solo forward pass bit for bit.
    #[test]
    fn two_models_share_the_queue_but_never_a_flush() {
        let _serial = serial();
        let (wave, wave_dir) = wave_model("mix-wave");
        let (plain, plain_dir) = resident_model("mix-plain", FieldNetConfig::plain(3, 8, 1, 1));
        assert_ne!(wave.net.n_coords(), plain.net.n_coords());
        let reqs: Vec<(&Arc<LoadedModel>, Vec<f64>)> = (0..6)
            .map(|i| {
                let model = if i % 2 == 0 { &wave } else { &plain };
                let len = (i + 1) * model.net.n_coords();
                (
                    model,
                    (0..len).map(|j| -2.0 + 0.37 * (7 * i + j) as f64).collect(),
                )
            })
            .collect();
        // The flush thread starts only once every request is queued, so
        // the interleaving does not depend on scheduling.
        let batcher = Arc::new(Batcher::new(BatchConfig::default()));
        let off = TraceCtx::disabled();
        let replies: Vec<_> = reqs
            .iter()
            .map(|(model, coords)| batcher.submit(model, coords.clone(), &off).unwrap())
            .collect();
        let depth = qpinn_telemetry::gauge(names::SERVE_QUEUE_DEPTH).get();
        assert_eq!(
            depth,
            reqs.len() as f64,
            "queue depth is not both models' sum"
        );
        let join = start(&batcher);
        // Requests that shared a flush share its end stamp.
        let mut flushes: BTreeMap<u64, Vec<(*const LoadedModel, u64)>> = BTreeMap::new();
        for ((model, coords), reply) in reqs.iter().zip(replies) {
            let (got, timing) = reply
                .recv_timeout(Duration::from_secs(60))
                .expect("no reply: the flush thread is gone")
                .unwrap();
            let solo = model.net.predict_batch(&model.params, coords);
            assert_eq!(got.len(), solo.data().len());
            for (a, b) in got.iter().zip(solo.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batched row differs from solo");
            }
            flushes
                .entry(timing.compute_end_ns)
                .or_default()
                .push((Arc::as_ptr(model), timing.batch_size));
        }
        assert_eq!(flushes.len(), 2, "{flushes:?}");
        for members in flushes.values() {
            assert!(
                members.iter().all(|m| m.0 == members[0].0),
                "a flush mixed models"
            );
            assert!(members.iter().all(|m| m.1 == members.len() as u64));
        }
        batcher.close();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&wave_dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }

    #[test]
    fn queue_cap_sheds_and_shapes_are_checked() {
        let _serial = serial();
        let (model, dir) = wave_model("shed");
        let batcher = Arc::new(Batcher::new(BatchConfig { queue_cap: 1 }));
        let join = start(&batcher);
        let off = TraceCtx::disabled();
        let eval = |coords| batcher.eval(&model, coords, &off).map(|out| out.rows);
        assert_eq!(
            eval(vec![1.0, 2.0, 3.0]).unwrap_err(),
            SubmitError::BadShape { expected_arity: 2 }
        );
        assert!(matches!(
            eval(vec![]).unwrap_err(),
            SubmitError::BadShape { .. }
        ));
        // A well-formed request still works (1 point × 2 fields).
        assert_eq!(eval(vec![0.1, 0.2]).unwrap().len(), 2);
        // The cap counts each model's queued requests: with no flush
        // running, one model's second request sheds while another
        // model's first still queues.
        let (plain, plain_dir) = resident_model("shed-plain", FieldNetConfig::plain(3, 8, 1, 1));
        let idle = Batcher::new(BatchConfig { queue_cap: 1 });
        idle.submit(&model, vec![0.1, 0.2], &off).unwrap();
        let shed = idle.submit(&model, vec![0.1, 0.2], &off).unwrap_err();
        assert_eq!(shed, SubmitError::QueueFull);
        idle.submit(&plain, vec![0.1, 0.2, 0.3], &off).unwrap();
        batcher.close();
        assert_eq!(eval(vec![0.1, 0.2]).unwrap_err(), SubmitError::Closed);
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }
}
