//! Structured access log: the `qpinn-access-v1` record, a bounded
//! ring-buffer sink, and an optional JSONL file writer.
//!
//! Every HTTP request the serve plane finishes (success, 429-shed, or
//! error) becomes one [`AccessRecord`]: trace id, route, `model@version`,
//! status, shed reason, batch size, and the decomposed latency —
//! queue wait, batch drain, compute, serialization, total. Records land
//! in a process-global ring bounded at a configured capacity (oldest
//! dropped first, so memory is O(cap) no matter how long the server
//! runs), which backs the server's `GET /v1/traces?n=K` endpoint; when a
//! log path is attached each record is also appended as one JSON line,
//! which `qpinn-obs requests`/`qpinn-obs slo` consume offline.
//!
//! ## Schema (`qpinn-access-v1`)
//!
//! ```json
//! {"v":"qpinn-access-v1","trace":"91b2c55e01f4a9d3","ts_ns":12345,
//!  "route":"/v1/eval","model":"heat@3","status":200,"shed":"",
//!  "batch":4,"points":128,"queue_ns":81920,"batch_ns":1966080,
//!  "compute_ns":524288,"serialize_ns":40960,"total_ns":2694144}
//! ```
//!
//! `shed` is `""`, `"pending_cap"` (connection queue full, shed before
//! the request was read) or `"queue_full"` (per-model batch queue full).
//! New keys may appear without a version bump; `v` changes only if an
//! existing key changes meaning. The tail of the ring renders as
//! `qpinn-traces-v1` (see [`render_traces`]), the shape `/v1/traces`
//! serves.
//!
//! ## Dormant contract
//!
//! [`enabled`] is one relaxed atomic load; [`record`] returns
//! immediately on it when no ring is configured, and [`crate::trace::TraceCtx::mint`]
//! checks it before generating ids. The ring is only ever configured by
//! an explicit [`configure`] call (the serve plane does this at startup
//! unless tracing is disabled in its config) — training-only processes
//! never pay more than the single load.

use crate::event::write_json_str;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One finished HTTP request, as logged. All timings are nanoseconds;
/// stages that did not apply (e.g. a shed never reached the batcher)
/// are zero, and `queue_ns + batch_ns + compute_ns <= total_ns` always
/// holds (the remainder is parse/scatter/write time).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessRecord {
    /// Request trace id (16 hex digits, or the inbound id when adopted).
    pub trace: String,
    /// Completion timestamp, nanoseconds since the process telemetry
    /// epoch ([`crate::event::now_ns`]).
    pub ts_ns: u64,
    /// Matched route (`/v1/eval`, …); `""` for connection-queue sheds,
    /// which are answered before the request line is read.
    pub route: String,
    /// `id@version` of the model involved, `""` when none.
    pub model: String,
    /// Numeric HTTP status of the response (`200`, `429`, `500`, …).
    pub status: u16,
    /// Shed reason: `""`, `"pending_cap"`, or `"queue_full"`.
    pub shed: String,
    /// Requests coalesced into the forward pass that served this one
    /// (0 when the request never reached a dispatch).
    pub batch: u64,
    /// Evaluation points carried by this request (0 for non-eval routes).
    pub points: u64,
    /// Time spent queued before the flush thread began draining its
    /// batch, including any wait behind a flush that was still running,
    /// of this model or another.
    pub queue_ns: u64,
    /// Time the flush thread spent forming and draining the batch.
    pub batch_ns: u64,
    /// Forward-pass wall time of the dispatched batch (shared by every
    /// request in it, attributed whole to each).
    pub compute_ns: u64,
    /// Scatter + response serialization + socket write time.
    pub serialize_ns: u64,
    /// End-to-end time from request read to response written.
    pub total_ns: u64,
}

impl AccessRecord {
    /// Render as one `qpinn-access-v1` JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"v\":\"qpinn-access-v1\",\"trace\":");
        write_json_str(&mut s, &self.trace);
        s.push_str(&format!(",\"ts_ns\":{}", self.ts_ns));
        s.push_str(",\"route\":");
        write_json_str(&mut s, &self.route);
        s.push_str(",\"model\":");
        write_json_str(&mut s, &self.model);
        s.push_str(&format!(",\"status\":{},\"shed\":", self.status));
        write_json_str(&mut s, &self.shed);
        s.push_str(&format!(
            ",\"batch\":{},\"points\":{},\"queue_ns\":{},\"batch_ns\":{},\
             \"compute_ns\":{},\"serialize_ns\":{},\"total_ns\":{}}}",
            self.batch,
            self.points,
            self.queue_ns,
            self.batch_ns,
            self.compute_ns,
            self.serialize_ns,
            self.total_ns
        ));
        s
    }
}

/// Render a record slice as the `qpinn-traces-v1` body served by
/// `GET /v1/traces`: oldest first, one object per record, same keys as
/// the JSONL schema minus the per-line `v`. `enabled` reports whether
/// tracing is live (the server passes [`enabled`]); pure so conformance
/// tests can freeze the shape without global state.
pub fn render_traces(records: &[AccessRecord], enabled: bool) -> String {
    let mut s = String::with_capacity(64 + records.len() * 256);
    s.push_str("{\"schema\":\"qpinn-traces-v1\",\"enabled\":");
    s.push_str(if enabled { "true" } else { "false" });
    s.push_str(&format!(",\"count\":{},\"traces\":[", records.len()));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let line = r.to_json_line();
        // Strip the leading {"v":"qpinn-access-v1", — the envelope
        // already names the schema once.
        s.push('{');
        s.push_str(line.trim_start_matches("{\"v\":\"qpinn-access-v1\","));
    }
    s.push_str("]}");
    s
}

static ENABLED: AtomicBool = AtomicBool::new(false);

struct RingState {
    cap: usize,
    buf: VecDeque<AccessRecord>,
    log: Option<std::io::BufWriter<std::fs::File>>,
}

fn state() -> MutexGuard<'static, RingState> {
    static STATE: OnceLock<Mutex<RingState>> = OnceLock::new();
    STATE
        .get_or_init(|| {
            Mutex::new(RingState {
                cap: 0,
                buf: VecDeque::new(),
                log: None,
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// True when an access ring is configured. One relaxed atomic load —
/// the entire per-request cost of tracing when it is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Configure the ring with capacity `cap` (> 0) and enable tracing.
/// Clears previously buffered records so a fresh server starts with a
/// fresh window. A `cap` of 0 is equivalent to [`disable`].
pub fn configure(cap: usize) {
    if cap == 0 {
        disable();
        return;
    }
    let mut st = state();
    st.cap = cap;
    st.buf.clear();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Attach a JSONL file (truncating `path`) that every subsequent record
/// is appended to. Requires a configured ring ([`configure`] first).
pub fn log_to(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    state().log = Some(std::io::BufWriter::new(file));
    Ok(())
}

/// Disable tracing: clears the ring, flushes and drops any attached log
/// writer. Subsequent [`record`] calls are one atomic load.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut st = state();
    st.buf.clear();
    st.cap = 0;
    if let Some(mut w) = st.log.take() {
        if let Err(e) = w.flush() {
            crate::sink::note_write_error("access log flush", &e);
        }
    }
}

/// Append one record: pushes into the ring (dropping the oldest past
/// capacity) and writes a JSONL line if a log file is attached. No-op
/// when tracing is off.
pub fn record(rec: AccessRecord) {
    if !enabled() {
        return;
    }
    let mut st = state();
    if st.log.is_some() {
        let line = rec.to_json_line();
        let w = st.log.as_mut().expect("checked above");
        // Flush per record: an access log must survive a process that
        // exits without running server shutdown (bench leaks its server
        // handle on purpose), and one small write syscall per request
        // is noise against ms-scale request latency.
        if let Err(e) = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
        {
            // Same re-entrancy rule as the JSONL sink: never emit from
            // inside the write path, just count and stash the message.
            crate::sink::note_write_error("access log", &e);
        }
    }
    while st.buf.len() >= st.cap.max(1) {
        st.buf.pop_front();
    }
    st.buf.push_back(rec);
}

/// Flush the attached log file, if any (called on server shutdown).
pub fn flush() {
    if let Some(w) = state().log.as_mut() {
        if let Err(e) = w.flush() {
            crate::sink::note_write_error("access log flush", &e);
        }
    }
}

/// The last `n` records, oldest first. Empty when tracing is off.
pub fn last(n: usize) -> Vec<AccessRecord> {
    let st = state();
    let skip = st.buf.len().saturating_sub(n);
    st.buf.iter().skip(skip).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: &str, status: u16) -> AccessRecord {
        AccessRecord {
            trace: trace.into(),
            ts_ns: 1000,
            route: "/v1/eval".into(),
            model: "m@1".into(),
            status,
            shed: String::new(),
            batch: 2,
            points: 4,
            queue_ns: 10,
            batch_ns: 20,
            compute_ns: 30,
            serialize_ns: 5,
            total_ns: 80,
        }
    }

    #[test]
    fn json_line_is_stable_and_escaped() {
        let mut r = rec("abc123", 200);
        r.model = "we\"ird@1".into();
        let line = r.to_json_line();
        assert!(line.starts_with("{\"v\":\"qpinn-access-v1\","));
        assert!(line.contains("\"model\":\"we\\\"ird@1\""));
        assert!(line.contains("\"total_ns\":80"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _guard = crate::test_lock();
        configure(3);
        for i in 0..5u16 {
            record(rec(&format!("t{i}"), 200 + i));
        }
        let tail = last(10);
        assert_eq!(tail.len(), 3, "ring must drop oldest past capacity");
        assert_eq!(tail[0].trace, "t2");
        assert_eq!(tail[2].trace, "t4");
        assert_eq!(last(1)[0].trace, "t4");
        disable();
        assert!(last(10).is_empty());
        record(rec("ignored", 200));
        assert!(last(10).is_empty(), "disabled ring must not record");
    }

    #[test]
    fn render_traces_wraps_records() {
        let body = render_traces(&[rec("aa", 200), rec("bb", 429)], true);
        assert!(body.starts_with("{\"schema\":\"qpinn-traces-v1\",\"enabled\":true,\"count\":2,"));
        assert!(body.contains("{\"trace\":\"aa\""));
        assert!(body.contains("\"status\":429"));
        assert!(!body.contains("qpinn-access-v1"), "per-line v is stripped");
    }

    #[test]
    fn log_file_gets_one_line_per_record() {
        let _guard = crate::test_lock();
        let dir = std::env::temp_dir().join(format!("qpinn_access_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        configure(8);
        log_to(&path).unwrap();
        record(rec("one", 200));
        record(rec("two", 500));
        disable(); // flushes + drops the writer
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trace\":\"one\""));
        assert!(lines[1].contains("\"status\":500"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
