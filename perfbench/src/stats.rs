//! Order statistics for the benchmark's timings.
//!
//! A tail percentile is only reported when at least ten samples lie
//! beyond it; otherwise the run does not resolve that tail and the caller
//! falls back to a lower percentile.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample set, with the number of samples it came
/// from so every printed figure carries its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// Which percentile (0–100).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was read from.
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `xs` (`p` in 0–100). `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(sorted(xs)[rank(xs.len(), p) - 1])
}

/// Median; the mean of the two middle samples for even counts.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    })
}

/// Number of samples strictly above the nearest-rank `p` percentile of
/// `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentile `want` if at least [`MIN_BEYOND`] samples lie
/// beyond it, else the first of `fallbacks` that qualifies.
pub fn tail(xs: &[f64], want: f64, fallbacks: &[f64]) -> Option<Pct> {
    std::iter::once(want)
        .chain(fallbacks.iter().copied())
        .find(|&p| beyond(xs.len(), p) >= MIN_BEYOND)
        .map(|p| Pct {
            p,
            value: percentile(xs, p).expect("samples lie beyond, so xs is non-empty"),
            n: xs.len(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: exactly 10 lie beyond p90, only 1 beyond p99.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        let t = tail(&xs, 99.0, &[90.0]).unwrap();
        assert_eq!((t.p, t.value, t.n), (90.0, 90.0, 100));
        // 1000 samples resolve p99 itself and report the count.
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&ys, 99.0, &[90.0]).unwrap();
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        // 99 samples leave only 9 beyond p90: neither tail is resolved.
        assert_eq!(beyond(99, 90.0), 9);
        assert!(tail(&xs[..99], 99.0, &[90.0]).is_none());
        assert!(tail(&[], 90.0, &[]).is_none());
    }
}
