//! # qpinn-testkit — deterministic fault injection for the qpinn stack
//!
//! A zero-dependency failpoint plane: production crates thread
//! [`should_fail`] / [`fail_io`] calls through their error paths, and
//! tests (or the `QPINN_FAILPOINTS` environment variable) arm named
//! injection points with reproducible trigger schedules. When nothing is
//! armed — every production run — each hook costs one relaxed atomic
//! load.
//!
//! ## Injection points wired through the workspace
//!
//! | point                 | where                         | effect when fired |
//! |-----------------------|-------------------------------|-------------------|
//! | `fs.enospc`           | persist store, before writing | `StorageFull` error, nothing written |
//! | `persist.write_short` | persist store tmp-file write  | half the bytes land in `*.tmp`, then error (crash mid-write) |
//! | `persist.rename_torn` | persist store publish rename  | truncated bytes under the *final* name, then error (torn publish) |
//! | `persist.bitflip`     | persist store, post-publish   | one byte flipped in the published snapshot (silent corruption) |
//! | `telemetry.sink_err`  | JSONL sink record path        | write skipped, counted via `telemetry.write_errors` |
//! | `pool.steal_stall`    | rayon worker loop             | worker sleeps 2 ms before running a claimed task |
//! | `serve.flush_stall`   | serve batcher, before a flush | the flush thread sleeps 25 ms before `predict_batch`; admission keeps shedding, the stall shows up in the next batch's `serve.latency.queue_ns` |
//! | `serve.thread_spawn`  | each thread spawn of `ServeServer::start` | the spawn fails with an I/O error; `start` stops the threads already started, releases the port and returns the error |
//!
//! ## Arming
//!
//! Builder API (RAII — dropping the guard disarms):
//!
//! ```
//! use qpinn_testkit::{arm, should_fail, Trigger};
//! let _g = arm("demo.point", Trigger::Nth(2));
//! assert!(!should_fail("demo.point")); // hit 1
//! assert!(should_fail("demo.point")); // hit 2 fires
//! ```
//!
//! Environment (parsed once, at the first hook evaluation):
//!
//! ```text
//! QPINN_FAILPOINTS='persist.bitflip=nth(2);telemetry.sink_err=prob(0.1,seed=7)'
//! ```
//!
//! See [`spec`] for the full grammar and [`plane`] for the cost model.

#![deny(missing_docs)]

pub mod plane;
pub mod spec;

pub use plane::{
    arm, arm_spec, armed_points, disarm_all, fail_io, fired, hits, injected_io_error, should_fail,
    ArmGuard,
};
pub use spec::{parse_spec, parse_trigger, SpecError, Trigger, DEFAULT_PROB_SEED};
