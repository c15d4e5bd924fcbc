//! The structured event type and its versioned JSONL encoding.
//!
//! Every event serializes to exactly one line of JSON with a fixed set of
//! top-level keys — `v` (schema version), `ts_ns` (monotonic nanoseconds
//! since telemetry start), `kind`, `name`, `thread`, and a free-form
//! `fields` object — so downstream tooling can parse a stream without
//! knowing every event name in advance. The schema version only changes
//! when the meaning of an existing key changes; adding event names or
//! field keys is a compatible extension.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Version stamped into every event line (`"v"` key).
pub const SCHEMA_VERSION: u64 = 1;

/// Monotonic nanoseconds since the first telemetry timestamp was taken in
/// this process. Monotonic (not wall-clock) so span math never goes
/// negative across NTP adjustments.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A typed field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, durations in ns).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (losses, rates; non-finite serializes as `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Event category; determines how sinks render the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A completed timed region (`dur_ns` and `path` fields present).
    Span,
    /// A point-in-time metrics snapshot.
    Metrics,
    /// A noteworthy-but-healthy occurrence (checkpoint saved, run
    /// resumed, training diverged).
    Mark,
    /// Something went wrong but the run continues.
    Warn,
}

impl Kind {
    /// The string written to the `kind` key.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Metrics => "metrics",
            Kind::Mark => "mark",
            Kind::Warn => "warn",
        }
    }
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic timestamp ([`now_ns`]).
    pub ts_ns: u64,
    /// Category.
    pub kind: Kind,
    /// Event name (span name, warning code, mark name).
    pub name: String,
    /// Thread the event was emitted from (thread name or "?").
    pub thread: String,
    /// Free-form payload.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// A new event stamped with the current time and thread.
    pub fn new(kind: Kind, name: impl Into<String>) -> Self {
        Event {
            ts_ns: now_ns(),
            kind,
            name: name.into(),
            thread: std::thread::current().name().unwrap_or("?").to_string(),
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder style).
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96 + 24 * self.fields.len());
        s.push_str("{\"v\":");
        let _ = write!(s, "{SCHEMA_VERSION}");
        let _ = write!(s, ",\"ts_ns\":{}", self.ts_ns);
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.as_str());
        s.push_str("\",\"name\":");
        write_json_str(&mut s, &self.name);
        s.push_str(",\"thread\":");
        write_json_str(&mut s, &self.thread);
        s.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_json_str(&mut s, k);
            s.push(':');
            write_json_value(&mut s, v);
        }
        s.push_str("}}");
        s
    }
}

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `x` as a JSON number: the shortest decimal that parses back to
/// the same bits, or `null` when `x` is not finite.
pub fn write_json_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => write_json_num(out, *x),
        Value::Str(s) => write_json_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_with_fixed_top_level_keys() {
        let e = Event::new(Kind::Mark, "checkpoint_saved")
            .field("epoch", 100u64)
            .field("bytes", 4096u64)
            .field("ok", true);
        let line = e.to_json_line();
        assert!(line.starts_with("{\"v\":1,\"ts_ns\":"));
        assert!(line.contains("\"kind\":\"mark\""));
        assert!(line.contains("\"name\":\"checkpoint_saved\""));
        assert!(line.contains("\"fields\":{\"epoch\":100,\"bytes\":4096,\"ok\":true}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new(Kind::Warn, "nan_loss").field("loss", f64::NAN);
        assert!(e.to_json_line().contains("\"loss\":null"));
    }

    #[test]
    fn strings_escape_control_and_quote_chars() {
        let e = Event::new(Kind::Warn, "w").field("msg", "a\"b\\c\nd\u{1}");
        let line = e.to_json_line();
        assert!(line.contains(r#""msg":"a\"b\\c\nd\u0001""#), "{line}");
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
