//! Atomic metric primitives: monotonic counters, last-value gauges, and
//! power-of-two-bucketed histograms.
//!
//! All three are lock-free and safe to update from any thread; updates use
//! `Ordering::Relaxed` because metrics are statistical — readers only ever
//! see a snapshot, never synchronize through a metric.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (tests and per-run snapshots).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64` (stored as raw bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket `i` counts values `v` with
/// `floor(log2(v)) == i` (bucket 0 additionally holds `v == 0`), so the
/// full `u64` range is covered.
pub const HIST_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples (typically nanoseconds) with
/// power-of-two buckets plus exact count/sum/max.
///
/// Power-of-two buckets trade resolution for a fixed footprint and a
/// wait-free `record`: good enough to tell a 2 µs phase from a 2 ms one,
/// which is what phase accounting needs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index a value falls into.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a non-negative `f64` sample scaled to nano-units (×1e9),
    /// so magnitudes down to 1e-9 land in distinct log2 buckets — the
    /// scale gradient norms live at. Negative, NaN, and sub-nano values
    /// record as 0; values past `u64::MAX / 1e9` saturate at the top
    /// bucket.
    #[inline]
    pub fn record_f64(&self, v: f64) {
        let scaled = v * 1e9;
        let sample = if scaled.is_finite() && scaled > 0.0 {
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            }
        } else {
            0
        };
        self.record(sample);
    }

    /// Materialize the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Clear all buckets and totals.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Per-bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the `q`-th sample, so the estimate is within a
    /// factor of two of the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i, capped at max for the last one.
                return if i >= 63 {
                    self.max
                } else {
                    (2u64 << i).min(self.max.max(1))
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        g.set(-1.5e-7);
        assert_eq!(g.get(), -1.5e-7);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 2034);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
        assert_eq!(s.buckets[2], 1); // 4
        assert_eq!(s.buckets[9], 1); // 1000 (512..1024)
        assert_eq!(s.buckets[10], 1); // 1024
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((64..=256).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 65_536, "p99 = {p99}");
        assert!((s.mean() - (90.0 * 100.0 + 10.0 * 100_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_concurrent_records_all_land() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 4000);
    }
}
