//! Pluggable event sinks and the global dispatch path.
//!
//! `emit` is the single funnel every event goes through. When no sink is
//! installed the whole layer is dormant: [`enabled`] is one relaxed
//! atomic load, and instrumented code is expected to check it before
//! building an [`Event`] (spans do this internally).

use crate::event::{Event, Kind, SCHEMA_VERSION};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Receives every emitted [`Event`]. Implementations must be cheap and
/// non-blocking where possible; they are called on the emitting thread.
pub trait Sink: Send + Sync {
    /// Handle one event.
    fn record(&self, event: &Event);
    /// Flush buffered output (end of run, before process exit).
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// First pending sink write-error message, if any ([`note_write_error`]).
fn write_error_slot() -> &'static Mutex<Option<String>> {
    static SLOT: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Record a failed sink write. Every failure bumps the
/// `telemetry.write_errors` counter (so lost-event volume survives into
/// metric snapshots); the first failure's message is kept for
/// [`take_write_error`] so a supervisor (the trainer, the bench harness)
/// can surface it as a `warn` event and a `TrainLog::warnings` entry
/// instead of the error being silently dropped.
///
/// Deliberately does **not** emit an event itself: sinks call this from
/// inside the dispatch path, where re-entering [`emit`] could deadlock.
pub fn note_write_error(context: &str, err: &std::io::Error) {
    crate::registry::counter("telemetry.write_errors").inc();
    let mut slot = write_error_slot().lock().unwrap_or_else(|e| e.into_inner());
    if slot.is_none() {
        *slot = Some(format!("{context}: {err}"));
    }
}

/// Take (and clear) the first pending sink write-error message. The
/// `telemetry.write_errors` counter reports the total failure count.
pub fn take_write_error() -> Option<String> {
    write_error_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
}

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Poison-tolerant write lock on the sink list: a thread that panicked
/// mid-dispatch (e.g. a chaos test) must not wedge telemetry for the rest
/// of the process. Sink-list state is a plain `Vec` of `Arc`s, always
/// valid regardless of where the panicking thread stopped.
fn sinks_write() -> std::sync::RwLockWriteGuard<'static, Vec<Arc<dyn Sink>>> {
    sinks().write().unwrap_or_else(|e| e.into_inner())
}

/// Poison-tolerant read lock on the sink list; see [`sinks_write`].
fn sinks_read() -> std::sync::RwLockReadGuard<'static, Vec<Arc<dyn Sink>>> {
    sinks().read().unwrap_or_else(|e| e.into_inner())
}

/// True when at least one sink is installed. Instrumentation gates event
/// construction on this, so a telemetry-off run pays one atomic load per
/// potential event.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install a sink; events emitted from now on reach it.
pub fn install(sink: Arc<dyn Sink>) {
    let mut v = sinks_write();
    v.push(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove every installed sink (flushing them first). Used by tests and
/// at the end of bench runs to make telemetry dormant again.
pub fn shutdown() {
    let mut v = sinks_write();
    for s in v.iter() {
        s.flush();
    }
    v.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Dispatch one event to every installed sink.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let v = sinks_read();
    for s in v.iter() {
        s.record(&event);
    }
}

/// Flush every installed sink.
pub fn flush() {
    let v = sinks_read();
    for s in v.iter() {
        s.flush();
    }
}

/// Line-buffered JSONL file sink: one event per line, prefixed by a
/// `telemetry_start` mark carrying the schema version so a reader can
/// validate compatibility before parsing the stream.
pub struct JsonlSink {
    path: PathBuf,
    w: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) the JSONL file at `path` and write the header
    /// mark.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        let sink = JsonlSink {
            path,
            w: Mutex::new(BufWriter::new(file)),
        };
        let header = Event::new(Kind::Mark, "telemetry_start")
            .field("schema", SCHEMA_VERSION)
            .field("pid", std::process::id() as u64);
        sink.record(&header);
        Ok(sink)
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = event.to_json_line();
        let mut w = self.w.lock().unwrap_or_else(|e| e.into_inner());
        // Best-effort: a full disk must not kill the training run — but
        // the loss is counted and surfaced, not silently swallowed. The
        // `telemetry.sink_err` failpoint injects exactly that write error.
        if let Err(e) = qpinn_testkit::fail_io("telemetry.sink_err")
            .and_then(|()| w.write_all(line.as_bytes()))
            .and_then(|()| w.write_all(b"\n"))
        {
            note_write_error(&format!("jsonl sink {}", self.path.display()), &e);
        }
    }

    fn flush(&self) {
        if let Err(e) = self.w.lock().unwrap_or_else(|e| e.into_inner()).flush() {
            note_write_error(&format!("jsonl sink {}", self.path.display()), &e);
        }
    }
}

/// Human-readable progress sink: prints warns and marks to stderr and
/// stays quiet about high-volume span/metrics events, so a long run shows
/// checkpoints, divergence, and anomalies without drowning the console.
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        match event.kind {
            Kind::Warn | Kind::Mark => {
                let mut msg = format!(
                    "[telemetry {} {:.3}s] {}",
                    event.kind.as_str(),
                    event.ts_ns as f64 / 1e9,
                    event.name
                );
                for (k, v) in &event.fields {
                    use crate::event::Value;
                    match v {
                        Value::U64(x) => msg.push_str(&format!(" {k}={x}")),
                        Value::I64(x) => msg.push_str(&format!(" {k}={x}")),
                        Value::F64(x) => msg.push_str(&format!(" {k}={x:.4e}")),
                        Value::Str(s) => msg.push_str(&format!(" {k}={s:?}")),
                        Value::Bool(b) => msg.push_str(&format!(" {k}={b}")),
                    }
                }
                eprintln!("{msg}");
            }
            Kind::Span | Kind::Metrics => {}
        }
    }
}

/// A sink that buffers events in memory; test helper for asserting what
/// was emitted.
#[derive(Default)]
pub struct MemorySink {
    /// Recorded events, in emission order.
    pub events: Mutex<Vec<Event>>,
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_header_then_events() {
        let path = std::env::temp_dir().join(format!("qpinn-tel-sink-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&Event::new(Kind::Mark, "m1").field("x", 1u64));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("telemetry_start"));
        assert!(lines[0].contains("\"schema\":1"));
        assert!(lines[1].contains("\"name\":\"m1\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_errors_are_counted_and_taken_once() {
        let before = crate::registry::counter("telemetry.write_errors").get();
        let _ = take_write_error(); // clear any residue from other tests
        let e1 = std::io::Error::other("disk full");
        let e2 = std::io::Error::other("still full");
        note_write_error("jsonl sink /tmp/a.jsonl", &e1);
        note_write_error("jsonl sink /tmp/a.jsonl", &e2);
        assert_eq!(
            crate::registry::counter("telemetry.write_errors").get(),
            before + 2
        );
        // First message wins; take clears the slot.
        let msg = take_write_error().expect("pending error");
        assert!(msg.contains("disk full"), "{msg}");
        assert!(take_write_error().is_none());
    }

    #[test]
    fn poisoned_memory_sink_keeps_recording() {
        // A panic inside a sink consumer must not brick telemetry for the
        // rest of the process: locks recover via PoisonError::into_inner.
        let sink = std::sync::Arc::new(MemorySink::default());
        sink.record(&Event::new(Kind::Mark, "before-poison"));
        let poisoner = std::sync::Arc::clone(&sink);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.events.lock().unwrap();
            panic!("poison the events mutex");
        })
        .join();
        assert!(sink.events.is_poisoned(), "setup: mutex must be poisoned");
        sink.record(&Event::new(Kind::Mark, "after-poison"));
        let events = sink.events.lock().unwrap_or_else(|e| e.into_inner());
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["before-poison", "after-poison"]);
    }

    #[test]
    fn emit_without_sinks_is_a_noop() {
        let _guard = crate::test_lock();
        shutdown();
        assert!(!enabled());
        // Must not panic or touch sink state.
        emit(Event::new(Kind::Mark, "nobody-listening"));
    }
}
