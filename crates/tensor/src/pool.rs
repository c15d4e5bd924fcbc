//! A thread-local free list of `Vec<f64>` buffers so the kernels and the
//! autodiff tape stop allocating a fresh output per call.
//!
//! The reverse-mode tape materializes short-lived tensors at a furious
//! rate (jet stacks, gradient deltas); most die within one training step.
//! [`take`] hands such code a recycled buffer when one with enough
//! capacity is available, and [`recycle`] returns a dead tensor's storage
//! to the calling thread's free list. A dropped tape hands every node
//! value back this way, so one training epoch's buffers serve the next.
//! Under rayon, each worker keeps its own list — no locks on the hot path,
//! and a buffer recycled on one thread simply becomes available to that
//! thread.
//!
//! The list is **best fit**: a request gets the smallest pooled buffer
//! that holds it, so a 16-element request never walks off with a
//! megabyte stack buffer the next layer needs. It is bounded by bytes
//! ([`MAX_POOLED_BYTES`]) rather than by count; single buffers above
//! [`MAX_LEN`] or below [`MIN_LEN`] elements are never pooled.
//!
//! Three process-wide counters track the traffic so the telemetry plane
//! (`qpinn-core`'s obs bridge) can report how many allocations the pool
//! saved: `reused` (allocations avoided), `allocated` (pool misses that
//! hit the system allocator), and `recycled` (buffers returned).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Buffers above this length are never pooled (a stray giant buffer would
/// otherwise pin tens of megabytes per thread).
const MAX_LEN: usize = 1 << 22;
/// Requests and buffers below this length bypass the pool and its
/// counters: the allocator serves them as fast as the free list would,
/// and the scalars every loss term produces would only lengthen the
/// best-fit scan.
const MIN_LEN: usize = 16;
/// Bytes of buffer capacity one thread's free list may hold; a recycled
/// buffer that would exceed it is dropped instead. Sized to hold every
/// buffer of one training epoch of a width-32, 1024-point, two-coordinate
/// jet tape (about 15.5 MB of node values and gradients for the NLS
/// stack, which carries no ∂²/∂t², and 19 MB for a full second-order jet;
/// its periodic 4096-point evaluation reuses them), so steady-state
/// training draws nothing from the system allocator.
const MAX_POOLED_BYTES: usize = 32 << 20;

static REUSED: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
struct FreeList {
    bufs: Vec<Vec<f64>>,
    /// Sum of `capacity() * 8` over `bufs`.
    bytes: usize,
}

impl FreeList {
    /// Remove and return the smallest buffer whose capacity is at least
    /// `len`.
    fn best_fit(&mut self, len: usize) -> Option<Vec<f64>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            let c = b.capacity();
            if c >= len && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
                if c == len {
                    break;
                }
            }
        }
        let (i, c) = best?;
        self.bytes -= c * 8;
        Some(self.bufs.swap_remove(i))
    }
}

thread_local! {
    static FREE: RefCell<FreeList> = RefCell::new(FreeList::default());
}

fn pooled(len: usize) -> Option<Vec<f64>> {
    if len < MIN_LEN {
        return None;
    }
    let got = FREE.with(|f| f.borrow_mut().best_fit(len));
    match got {
        Some(_) => REUSED.fetch_add(1, Relaxed),
        None => ALLOCATED.fetch_add(1, Relaxed),
    };
    got
}

/// A zeroed buffer of `len` elements, reusing pooled storage when a buffer
/// with enough capacity is available on this thread.
pub(crate) fn take(len: usize) -> Vec<f64> {
    match pooled(len) {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0; len],
    }
}

/// A buffer of `len` elements with unspecified contents, for kernels that
/// overwrite every element: a pooled buffer keeps its stale values instead
/// of being zero-filled first.
pub(crate) fn take_uninit(len: usize) -> Vec<f64> {
    match pooled(len) {
        Some(mut v) => {
            if v.len() >= len {
                v.truncate(len);
            } else {
                v.resize(len, 0.0);
            }
            v
        }
        None => vec![0.0; len],
    }
}

/// Return a dead tensor's storage to this thread's free list. Call this on
/// temporaries whose lifetime is provably over (e.g. backward-pass deltas
/// after they are accumulated, or the node values of a dropped tape); it
/// is always safe to simply drop a tensor instead.
pub fn recycle(t: crate::Tensor) {
    let v = t.into_vec();
    let cap = v.capacity();
    if !(MIN_LEN..=MAX_LEN).contains(&cap) {
        return;
    }
    RECYCLED.fetch_add(1, Relaxed);
    FREE.with(|f| {
        let mut f = f.borrow_mut();
        if f.bytes + cap * 8 <= MAX_POOLED_BYTES {
            f.bytes += cap * 8;
            f.bufs.push(v);
        }
    });
}

/// Cumulative buffer-pool counters (process-wide, monotonically
/// increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations avoided by handing out a pooled buffer.
    pub reused: u64,
    /// Pool misses that fell through to the system allocator.
    pub allocated: u64,
    /// Buffers returned to a free list via [`recycle`].
    pub recycled: u64,
}

/// Drop every buffer the calling thread's free list holds. For threads
/// whose tapes vary in size from call to call (a serving batcher), where a
/// kept free list would pin the largest tape's working set.
pub fn release() {
    FREE.with(|f| *f.borrow_mut() = FreeList::default());
}

/// Snapshot the pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        reused: REUSED.load(Relaxed),
        allocated: ALLOCATED.load(Relaxed),
        recycled: RECYCLED.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Buffers and bytes of capacity held by this thread's free list.
    fn held() -> (usize, usize) {
        FREE.with(|f| {
            let f = f.borrow();
            (f.bufs.len(), f.bytes)
        })
    }

    /// A tensor on fresh (unpooled) storage of exactly `n` elements.
    fn fresh(n: usize) -> Tensor {
        Tensor::from_vec([n], vec![0.0; n])
    }

    #[test]
    fn recycled_buffer_is_reused_and_counted() {
        let before = stats();
        let t = Tensor::from_vec([512], take(512));
        recycle(t);
        let v = take(512);
        assert_eq!(v.len(), 512);
        assert!(v.iter().all(|&x| x == 0.0), "reused buffer must be zeroed");
        let after = stats();
        assert!(after.recycled > before.recycled);
        assert!(after.reused > before.reused);
    }

    #[test]
    fn best_fit_hands_out_the_smallest_buffer_that_holds_the_request() {
        // Tests share the thread-local list only within one test thread,
        // so drain it first to make the fit deterministic.
        release();
        recycle(fresh(4096));
        recycle(fresh(100));
        recycle(fresh(1024));
        assert_eq!(take(16).capacity(), 100);
        assert_eq!(take(900).capacity(), 1024);
        assert_eq!(take(1000).capacity(), 4096);
        let before = stats();
        let _ = take(20);
        assert_eq!(stats().allocated, before.allocated + 1, "list is empty now");
    }

    #[test]
    fn uninit_take_keeps_length_and_skips_the_fill() {
        release();
        recycle(Tensor::from_vec([64], vec![3.0; 64]));
        let v = take_uninit(48);
        assert_eq!(v.len(), 48);
        assert!(v.iter().all(|&x| x == 3.0), "stale contents are kept");
    }

    #[test]
    fn free_list_is_bounded_by_bytes() {
        release();
        let per = MAX_LEN; // 32 MiB each
        for _ in 0..4 {
            recycle(fresh(per));
        }
        let held = FREE.with(|f| f.borrow().bytes);
        assert!(held <= MAX_POOLED_BYTES, "{held} bytes pooled");
        assert_eq!(held, (MAX_POOLED_BYTES / (per * 8)) * per * 8);
        release();
    }

    #[test]
    fn oversize_and_tiny_buffers_are_not_pooled() {
        release();
        recycle(fresh(MAX_LEN + 1));
        recycle(Tensor::scalar(1.0));
        assert_eq!(held(), (0, 0));
    }
}
