//! The global fail plane: a process-wide registry of named injection
//! points, each with a deterministic [`Trigger`] schedule.
//!
//! # Cost model
//!
//! The plane is a tri-state machine. Production code calls
//! [`should_fail`] at every instrumented point; when the plane is
//! *dormant* (the overwhelmingly common case) that call is one relaxed
//! atomic load plus a compare — the same trick the telemetry event path
//! uses. The registry, environment parsing, and trigger evaluation only
//! exist on the cold path behind that load.
//!
//! # Determinism
//!
//! Trigger evaluation is a pure function of the point's hit counter (and,
//! for `prob`, of a SplitMix64 stream fixed by the seed). Identical spec +
//! identical hit order ⇒ identical fire sequence, which is what lets CI
//! run the chaos suite twice and require byte-identical outcomes.

use crate::spec::{parse_spec, SpecError, Trigger};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Plane has not yet looked at `QPINN_FAILPOINTS`.
const UNINIT: u8 = 0;
/// No points registered: `should_fail` is one relaxed load.
const DORMANT: u8 = 1;
/// At least one point registered: consult the registry.
const ARMED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// One registered injection point and its evaluation state.
struct FailPoint {
    trigger: Trigger,
    /// Total evaluations (1-based hit numbers derive from this).
    hits: AtomicU64,
    /// Evaluations that fired.
    fired: AtomicU64,
    /// SplitMix64 state for `prob` triggers.
    rng: Mutex<u64>,
}

impl FailPoint {
    fn new(trigger: Trigger) -> Self {
        let seed = match trigger {
            Trigger::Prob { seed, .. } => seed,
            _ => 0,
        };
        FailPoint {
            trigger,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            rng: Mutex::new(seed),
        }
    }

    fn evaluate(&self) -> bool {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match self.trigger {
            Trigger::Off => false,
            Trigger::Always => true,
            Trigger::Once => hit == 1,
            Trigger::Nth(n) => hit == n,
            Trigger::Every(n) => hit.is_multiple_of(n),
            Trigger::Times(n) => hit <= n,
            Trigger::Prob { p, .. } => {
                let mut state = lock(&self.rng);
                unit_f64(splitmix64(&mut state)) < p
            }
        };
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

/// SplitMix64 step — tiny, seedable, and good enough for trigger draws.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a u64 to `[0, 1)` using the top 53 bits.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The plane must keep working even if a chaos test panics while holding a
/// lock — that is the whole point of the crate.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> &'static Mutex<BTreeMap<String, Arc<FailPoint>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<FailPoint>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Parse `QPINN_FAILPOINTS` exactly once per process. A malformed spec is
/// reported on stderr and otherwise ignored: test tooling must never take
/// down the program it is probing.
fn ensure_env_init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("QPINN_FAILPOINTS") {
            match parse_spec(&spec) {
                Ok(entries) => {
                    let mut map = lock(registry());
                    for (name, trigger) in entries {
                        map.insert(name, Arc::new(FailPoint::new(trigger)));
                    }
                }
                Err(e) => eprintln!("qpinn-testkit: ignoring QPINN_FAILPOINTS: {e}"),
            }
        }
        recompute_state();
    });
}

/// Recompute DORMANT/ARMED from registry occupancy. Callers must NOT hold
/// the registry lock (it is taken here).
fn recompute_state() {
    let empty = lock(registry()).is_empty();
    STATE.store(if empty { DORMANT } else { ARMED }, Ordering::Relaxed);
}

/// Should the injection point `name` fire right now?
///
/// This is the only call production code makes. Dormant cost: one relaxed
/// atomic load and a compare. The first call in a process additionally
/// parses `QPINN_FAILPOINTS` (once).
#[inline]
pub fn should_fail(name: &str) -> bool {
    if STATE.load(Ordering::Relaxed) == DORMANT {
        return false;
    }
    should_fail_cold(name)
}

#[cold]
fn should_fail_cold(name: &str) -> bool {
    ensure_env_init();
    if STATE.load(Ordering::Relaxed) == DORMANT {
        return false;
    }
    let point = lock(registry()).get(name).cloned();
    match point {
        Some(p) => p.evaluate(),
        None => false,
    }
}

/// Build the `io::Error` an injection point reports. `fs.enospc` maps to
/// [`std::io::ErrorKind::StorageFull`] so callers exercise the same error
/// classification a genuinely full disk would produce.
pub fn injected_io_error(point: &str) -> std::io::Error {
    let kind = if point == "fs.enospc" {
        std::io::ErrorKind::StorageFull
    } else {
        std::io::ErrorKind::Other
    };
    std::io::Error::new(kind, format!("injected failure at `{point}`"))
}

/// `Err(injected_io_error(point))` when `point` fires, `Ok(())` otherwise.
/// The one-liner hooks thread through I/O code.
#[inline]
pub fn fail_io(point: &str) -> std::io::Result<()> {
    if should_fail(point) {
        Err(injected_io_error(point))
    } else {
        Ok(())
    }
}

/// RAII registration of one or more injection points; dropping the guard
/// disarms them (and returns the plane to dormancy when none remain).
#[must_use = "dropping the guard immediately disarms the failpoints"]
#[derive(Debug)]
pub struct ArmGuard {
    names: Vec<String>,
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        let mut map = lock(registry());
        for name in &self.names {
            map.remove(name);
        }
        drop(map);
        recompute_state();
    }
}

/// Register (or replace) the injection point `name` with `trigger`,
/// resetting its hit/fired counters. Builder-API twin of the env var.
pub fn arm(name: &str, trigger: Trigger) -> ArmGuard {
    ensure_env_init();
    lock(registry()).insert(name.to_string(), Arc::new(FailPoint::new(trigger)));
    recompute_state();
    ArmGuard {
        names: vec![name.to_string()],
    }
}

/// Register every entry of a `QPINN_FAILPOINTS`-syntax spec string.
pub fn arm_spec(spec: &str) -> Result<ArmGuard, SpecError> {
    ensure_env_init();
    let entries = parse_spec(spec)?;
    let names: Vec<String> = entries.iter().map(|(n, _)| n.clone()).collect();
    {
        let mut map = lock(registry());
        for (name, trigger) in entries {
            map.insert(name, Arc::new(FailPoint::new(trigger)));
        }
    }
    recompute_state();
    Ok(ArmGuard { names })
}

/// Remove every registered injection point (env-armed ones included) and
/// return the plane to dormancy. Chaos tests call this between cases.
pub fn disarm_all() {
    lock(registry()).clear();
    recompute_state();
}

/// Times `name` has been evaluated since it was (re-)armed; 0 when unknown.
pub fn hits(name: &str) -> u64 {
    lock(registry())
        .get(name)
        .map_or(0, |p| p.hits.load(Ordering::Relaxed))
}

/// Times `name` has fired since it was (re-)armed; 0 when unknown.
pub fn fired(name: &str) -> u64 {
    lock(registry())
        .get(name)
        .map_or(0, |p| p.fired.load(Ordering::Relaxed))
}

/// Names of all currently armed points, sorted (BTreeMap order).
pub fn armed_points() -> Vec<String> {
    lock(registry()).keys().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plane is process-global; serialize tests that touch it.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        lock(&GATE)
    }

    fn trace(name: &str, n: usize) -> Vec<bool> {
        (0..n).map(|_| should_fail(name)).collect()
    }

    #[test]
    fn dormant_plane_never_fires() {
        let _g = serial();
        disarm_all();
        assert!(!should_fail("persist.bitflip"));
        assert_eq!(hits("persist.bitflip"), 0);
    }

    #[test]
    fn counting_triggers_fire_on_schedule() {
        let _g = serial();
        disarm_all();
        {
            let _a = arm("t.once", Trigger::Once);
            assert_eq!(trace("t.once", 4), vec![true, false, false, false]);
        }
        {
            let _a = arm("t.nth", Trigger::Nth(3));
            assert_eq!(trace("t.nth", 5), vec![false, false, true, false, false]);
        }
        {
            let _a = arm("t.every", Trigger::Every(2));
            assert_eq!(trace("t.every", 6), vec![false, true, false, true, false, true]);
        }
        {
            let _a = arm("t.times", Trigger::Times(2));
            assert_eq!(trace("t.times", 4), vec![true, true, false, false]);
            assert_eq!(hits("t.times"), 4);
            assert_eq!(fired("t.times"), 2);
        }
    }

    #[test]
    fn prob_trigger_replays_identically_for_same_seed() {
        let _g = serial();
        disarm_all();
        let t = Trigger::Prob { p: 0.5, seed: 2024 };
        let first = {
            let _a = arm("t.prob", t);
            trace("t.prob", 200)
        };
        let second = {
            let _a = arm("t.prob", t);
            trace("t.prob", 200)
        };
        assert_eq!(first, second, "same seed must replay the same sequence");
        // Sanity: p=0.5 over 200 draws fires a nontrivial number of times.
        let fired = first.iter().filter(|&&b| b).count();
        assert!((50..=150).contains(&fired), "suspicious fire count {fired}");

        let third = {
            let _a = arm("t.prob", Trigger::Prob { p: 0.5, seed: 2025 });
            trace("t.prob", 200)
        };
        assert_ne!(first, third, "different seed must change the sequence");
    }

    #[test]
    fn guard_drop_disarms_and_returns_to_dormancy() {
        let _g = serial();
        disarm_all();
        {
            let _a = arm("t.guard", Trigger::Always);
            assert!(should_fail("t.guard"));
            assert_eq!(armed_points(), vec!["t.guard".to_string()]);
        }
        assert!(!should_fail("t.guard"));
        assert!(armed_points().is_empty());
        assert_eq!(STATE.load(Ordering::Relaxed), DORMANT);
    }

    #[test]
    fn arm_spec_registers_every_entry() {
        let _g = serial();
        disarm_all();
        let _a = arm_spec("a.x=once; b.y=every(2)").unwrap();
        assert_eq!(armed_points(), vec!["a.x".to_string(), "b.y".to_string()]);
        assert!(should_fail("a.x"));
        assert!(!should_fail("a.x"));
        assert!(!should_fail("b.y"));
        assert!(should_fail("b.y"));
        assert!(arm_spec("broken").is_err());
    }

    #[test]
    fn enospc_maps_to_storage_full() {
        assert_eq!(
            injected_io_error("fs.enospc").kind(),
            std::io::ErrorKind::StorageFull
        );
        assert_eq!(
            injected_io_error("persist.write_short").kind(),
            std::io::ErrorKind::Other
        );
    }
}
