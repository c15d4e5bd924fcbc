//! Time-bin bookkeeping for causal (curriculum) PINN training.
//!
//! Collocation points are grouped into `m` bins along the time axis; the
//! causal weighting scheme (Wang, Sankaran & Perdikaris 2024) then assigns
//! each bin a weight `w_i = exp(−ε Σ_{j<i} L_j)` so the network must fit
//! early-time dynamics before later bins contribute.

/// Partition of a time interval into equal bins, with membership queries.
#[derive(Clone, Debug)]
pub struct TimeBins {
    t0: f64,
    t1: f64,
    m: usize,
}

impl TimeBins {
    /// `m` equal bins over `[t0, t1]`.
    ///
    /// # Panics
    /// Panics when `m = 0` or the interval is degenerate.
    pub fn new(t0: f64, t1: f64, m: usize) -> Self {
        assert!(m > 0, "need at least one bin");
        assert!(t1 > t0, "degenerate time interval");
        TimeBins { t0, t1, m }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Always false (a `TimeBins` has ≥ 1 bin).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bin index of time `t` (clamped to the valid range).
    pub fn bin_of(&self, t: f64) -> usize {
        let u = (t - self.t0) / (self.t1 - self.t0);
        ((u * self.m as f64) as isize).clamp(0, self.m as isize - 1) as usize
    }

    /// Causal weights from per-bin mean losses:
    /// `w_i = exp(−ε Σ_{j<i} L_j)`, with `w_0 = 1`.
    pub fn causal_weights(&self, bin_losses: &[f64], epsilon: f64) -> Vec<f64> {
        assert_eq!(bin_losses.len(), self.m, "bin loss arity");
        let mut cum = 0.0;
        bin_losses
            .iter()
            .map(|&l| {
                let w = (-epsilon * cum).exp();
                cum += l;
                w
            })
            .collect()
    }

    /// Expand per-bin weights to per-point weights given point times.
    pub fn point_weights(&self, ts: &[f64], bin_weights: &[f64]) -> Vec<f64> {
        assert_eq!(bin_weights.len(), self.m, "bin weight arity");
        ts.iter().map(|&t| bin_weights[self.bin_of(t)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_uniform() {
        let b = TimeBins::new(0.0, 1.0, 4);
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(0.24), 0);
        assert_eq!(b.bin_of(0.26), 1);
        assert_eq!(b.bin_of(0.99), 3);
        assert_eq!(b.bin_of(1.0), 3, "right endpoint clamps into last bin");
        assert_eq!(b.bin_of(-5.0), 0, "clamps below");
    }

    #[test]
    fn causal_weights_monotone_nonincreasing_under_positive_losses() {
        let b = TimeBins::new(0.0, 1.0, 5);
        let w = b.causal_weights(&[1.0, 0.5, 2.0, 0.1, 0.0], 1.0);
        assert_eq!(w[0], 1.0);
        for win in w.windows(2) {
            assert!(win[1] <= win[0] + 1e-15);
        }
        // exact values
        assert!((w[1] - (-1.0f64).exp()).abs() < 1e-15);
        assert!((w[2] - (-1.5f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn converged_bins_open_later_bins() {
        // As early losses → 0, all weights → 1: the curriculum releases.
        let b = TimeBins::new(0.0, 1.0, 3);
        let w = b.causal_weights(&[1e-9, 1e-9, 1e-9], 10.0);
        assert!(w.iter().all(|&x| x > 0.999));
    }

    #[test]
    fn point_weights_follow_bins() {
        let b = TimeBins::new(0.0, 1.0, 2);
        let ts = [0.1, 0.9, 0.4, 0.6];
        let pw = b.point_weights(&ts, &[1.0, 0.25]);
        assert_eq!(pw, vec![1.0, 0.25, 1.0, 0.25]);
    }
}
