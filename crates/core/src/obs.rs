//! Observability glue between the training stack and `qpinn-telemetry`:
//! bridges the work-stealing pool's activity counters into the metrics
//! registry and the event stream.
//!
//! The pool itself (vendored `rayon`) stays telemetry-free — it exposes
//! raw counters through `rayon::pool_stats()`, sampled at drain
//! boundaries — and this module translates a sample into registry gauges
//! (so the final metrics snapshot carries pool balance) plus one
//! `pool_stats` mark event per call (so a JSONL stream shows how balance
//! evolved over a run).
//!
//! The tensor crate's buffer pool gets the same treatment:
//! [`emit_buffer_pool_stats`] mirrors its reuse/allocation counters, so a
//! run's telemetry shows how many allocations the fused-kernel buffer
//! recycling actually saved.

use qpinn_telemetry as telemetry;

/// Mirror the tensor buffer-pool counters ([`qpinn_tensor::pool::stats`])
/// into registry gauges (`tensor_pool.{reused,allocated,recycled}`) and —
/// when a sink is installed — emit a `tensor_pool_stats` event tagged with
/// `context`. `reused` counts output allocations the pool avoided.
pub fn emit_buffer_pool_stats(context: &str) {
    let s = qpinn_tensor::pool::stats();
    telemetry::gauge("tensor_pool.reused").set(s.reused as f64);
    telemetry::gauge("tensor_pool.allocated").set(s.allocated as f64);
    telemetry::gauge("tensor_pool.recycled").set(s.recycled as f64);
    telemetry::mark("tensor_pool_stats", |e| {
        e.field("context", context)
            .field("reused", s.reused)
            .field("allocated", s.allocated)
            .field("recycled", s.recycled)
            .field("simd_width", qpinn_tensor::simd::width())
    });
}

/// Sample the pool counters, mirror them into registry gauges
/// (`pool.worker<i>.{tasks,steals,idle_waits}`, `pool.launcher.*`), and —
/// when a sink is installed — emit a `pool_stats` event tagged with
/// `context` (e.g. `"train_segment"`, `"kernels"`).
pub fn emit_pool_stats(context: &str) {
    let stats = rayon::pool_stats();
    for (i, w) in stats.workers.iter().enumerate() {
        telemetry::gauge(&format!("pool.worker{i}.tasks")).set(w.tasks as f64);
        telemetry::gauge(&format!("pool.worker{i}.steals")).set(w.steals as f64);
        telemetry::gauge(&format!("pool.worker{i}.idle_waits")).set(w.idle_waits as f64);
    }
    telemetry::gauge("pool.launcher.tasks").set(stats.launcher_tasks as f64);
    telemetry::gauge("pool.launcher.steals").set(stats.launcher_steals as f64);
    telemetry::gauge("pool.sets_launched").set(stats.sets_launched as f64);
    telemetry::mark("pool_stats", |mut e| {
        e = e
            .field("context", context)
            .field("threads", rayon::current_num_threads())
            .field("workers", stats.workers.len())
            .field("launcher_tasks", stats.launcher_tasks)
            .field("launcher_steals", stats.launcher_steals)
            .field("sets_launched", stats.sets_launched)
            .field("total_tasks", stats.total_tasks());
        for (i, w) in stats.workers.iter().enumerate() {
            e = e
                .field(format!("worker{i}.tasks"), w.tasks)
                .field(format!("worker{i}.steals"), w.steals)
                .field(format!("worker{i}.idle_waits"), w.idle_waits);
        }
        e
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_telemetry::MemorySink;
    use std::sync::{Arc, Mutex};

    /// Serializes the tests that install a sink: `shutdown` removes every
    /// installed sink, another test's included.
    static SINK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn pool_stats_event_carries_per_worker_fields() {
        let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Force some pool activity so worker counters exist.
        use rayon::prelude::*;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let s: f64 = pool.install(|| {
            (0..32_768usize)
                .collect::<Vec<_>>()
                .par_chunks(1024)
                .map(|c| c.len() as f64)
                .sum()
        });
        assert_eq!(s, 32_768.0);

        let mem = Arc::new(MemorySink::default());
        qpinn_telemetry::install(mem.clone());
        emit_pool_stats("test");
        qpinn_telemetry::shutdown();

        let events = mem.events.lock().unwrap();
        let e = events
            .iter()
            .find(|e| e.name == "pool_stats")
            .expect("pool_stats event emitted");
        assert!(e.fields.iter().any(|(k, _)| k == "sets_launched"));
        assert!(e.fields.iter().any(|(k, _)| k == "total_tasks"));
        // Gauges mirrored for the snapshot path.
        assert!(qpinn_telemetry::gauge("pool.sets_launched").get() >= 1.0);
    }

    #[test]
    fn buffer_pool_stats_reach_telemetry() {
        let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Generate some pool traffic first.
        let t = qpinn_tensor::Tensor::full([256], 1.5);
        let u = t.add(&t);
        qpinn_tensor::pool::recycle(u);
        let _reuse = t.mul(&t);

        let mem = Arc::new(MemorySink::default());
        qpinn_telemetry::install(mem.clone());
        emit_buffer_pool_stats("test");
        qpinn_telemetry::shutdown();

        let events = mem.events.lock().unwrap();
        let e = events
            .iter()
            .find(|e| e.name == "tensor_pool_stats")
            .expect("tensor_pool_stats event emitted");
        for key in ["reused", "allocated", "recycled", "simd_width"] {
            assert!(e.fields.iter().any(|(k, _)| k == key), "missing {key}");
        }
        assert!(qpinn_telemetry::gauge("tensor_pool.recycled").get() >= 1.0);
    }
}
