//! Request-scoped trace context for the serve plane.
//!
//! A [`TraceCtx`] is minted once per HTTP request (or inherited from an
//! inbound `x-qpinn-trace` header for cross-process propagation) and
//! carried by value through registry resolution, the batching queue, the
//! flush, and `predict_batch`. The id ties together the span
//! events, the access-log record, and the response header for one
//! request, so a timeline or a log line can be joined back to the exact
//! HTTP exchange that produced it.
//!
//! ## Dormant contract
//!
//! Tracing rides the access-ring switch ([`crate::access::enabled`]):
//! when no ring is configured, [`TraceCtx::mint`] is a single relaxed
//! atomic load returning a disabled context — no clock read, no id
//! generation, no allocation. Instrument points must check
//! [`TraceCtx::on`] before building anything per-request.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-request trace context: a short hex id plus an enabled flag
/// snapshotted at mint time.
#[derive(Clone, Debug, Default)]
pub struct TraceCtx {
    /// 16-hex-digit request id (empty when tracing is off).
    pub id: String,
    /// Whether tracing was enabled when this context was minted.
    pub on: bool,
}

impl TraceCtx {
    /// A disabled context (used when tracing is off or a caller has no
    /// request scope, e.g. unit tests driving the batcher directly).
    pub fn disabled() -> Self {
        TraceCtx::default()
    }

    /// Mint a context for a new request. When tracing is off this is one
    /// relaxed atomic load. When on, a valid inbound id (1–32 ASCII hex
    /// digits, as sent in an `x-qpinn-trace` request header) is adopted
    /// verbatim in lowercase; otherwise a fresh id is generated.
    pub fn mint(inbound: Option<&str>) -> Self {
        if !crate::access::enabled() {
            return TraceCtx::disabled();
        }
        let id = match inbound {
            Some(raw) if is_valid_id(raw) => raw.to_ascii_lowercase(),
            _ => next_id(),
        };
        TraceCtx { id, on: true }
    }
}

/// Mint a fresh 16-hex-digit id from the process-global splitmix64
/// stream, independent of whether tracing is enabled. Run records
/// (`qpinn-run-v1`) use this so run ids and request trace ids share one
/// id scheme and never collide within a process.
pub fn fresh_id() -> String {
    next_id()
}

/// An inbound id is acceptable when it is 1–32 ASCII hex digits — wide
/// enough for 128-bit upstream ids, narrow enough to bound the echo.
fn is_valid_id(s: &str) -> bool {
    !s.is_empty() && s.len() <= 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Generate a fresh 16-hex-digit id: a process-global splitmix64 stream
/// seeded from wall-clock nanos XOR pid, so concurrent processes and
/// restarts do not collide in practice while staying std-only and free
/// of any RNG dependency.
fn next_id() -> String {
    static STATE: AtomicU64 = AtomicU64::new(0);
    let mut cur = STATE.load(Ordering::Relaxed);
    loop {
        let seed = if cur == 0 {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e3779b97f4a7c15);
            nanos ^ ((std::process::id() as u64) << 32) | 1
        } else {
            cur
        };
        let next = seed.wrapping_add(0x9e3779b97f4a7c15);
        match STATE.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                // splitmix64 finalizer over the reserved slot.
                let mut z = next;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                return format!("{z:016x}");
            }
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_hex16() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn inbound_validation() {
        assert!(is_valid_id("deadbeef"));
        assert!(is_valid_id("0123456789abcdef0123456789abcdef"));
        assert!(!is_valid_id(""));
        assert!(!is_valid_id("0123456789abcdef0123456789abcdef0")); // 33
        assert!(!is_valid_id("not-hex!"));
    }

    #[test]
    fn mint_is_disabled_without_a_ring() {
        let _guard = crate::test_lock();
        crate::access::disable();
        let ctx = TraceCtx::mint(Some("deadbeef"));
        assert!(!ctx.on);
        assert!(ctx.id.is_empty());
    }

    #[test]
    fn mint_adopts_valid_inbound_ids() {
        let _guard = crate::test_lock();
        crate::access::configure(8);
        let ctx = TraceCtx::mint(Some("DEADBEEF"));
        assert!(ctx.on);
        assert_eq!(ctx.id, "deadbeef");
        let fresh = TraceCtx::mint(Some("not hex"));
        assert_eq!(fresh.id.len(), 16);
        crate::access::disable();
    }
}
