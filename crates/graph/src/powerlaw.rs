//! Power-law fitting and log-binned histograms.
//!
//! Figure 6 of the paper plots the distribution of scaled absolute mass on
//! log-log axes and reports a power-law exponent of −2.31 for the positive
//! side. This module provides:
//!
//! * [`fit_exponent_mle`] — the discrete maximum-likelihood (Hill)
//!   estimator `α = 1 + n / Σ ln(x_i / (x_min − ½))` of Clauset–Shalizi–
//!   Newman, the standard tool for degree-like data, and
//! * [`LogBinnedHistogram`] — multiplicative binning for plotting
//!   heavy-tailed value distributions (both the positive and the negative
//!   branch of Figure 6).

/// Result of a power-law fit `P(x) ∝ x^{−α}` for `x ≥ x_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent `α` (reported in the paper as −α on the density).
    pub alpha: f64,
    /// Lower cutoff used for the fit.
    pub x_min: f64,
    /// Number of samples at or above `x_min`.
    pub tail_samples: usize,
}

/// Fits a continuous power-law exponent by maximum likelihood (the Hill
/// estimator `α = 1 + n / Σ ln(x_i/x_min)`) over all samples `x ≥ x_min`.
///
/// Returns `None` when fewer than two tail samples exist (the estimator is
/// undefined).
pub fn fit_exponent_mle(samples: impl Iterator<Item = f64>, x_min: f64) -> Option<PowerLawFit> {
    fit_with_shift(samples, x_min, x_min)
}

/// Discrete-data variant using the Clauset–Shalizi–Newman half-integer
/// correction `α = 1 + n / Σ ln(x_i / (x_min − ½))`, appropriate for
/// integer observations such as degrees.
pub fn fit_exponent_mle_discrete(
    samples: impl Iterator<Item = f64>,
    x_min: f64,
) -> Option<PowerLawFit> {
    fit_with_shift(samples, x_min, x_min - 0.5)
}

fn fit_with_shift(
    samples: impl Iterator<Item = f64>,
    x_min: f64,
    shift: f64,
) -> Option<PowerLawFit> {
    assert!(x_min > 0.0, "x_min must be positive");
    assert!(shift > 0.0, "shift must be positive");
    let mut n = 0usize;
    let mut log_sum = 0.0f64;
    for x in samples {
        if x >= x_min && x.is_finite() {
            n += 1;
            log_sum += (x / shift).ln();
        }
    }
    if n < 2 || log_sum <= 0.0 {
        return None;
    }
    Some(PowerLawFit { alpha: 1.0 + n as f64 / log_sum, x_min, tail_samples: n })
}

/// A histogram with logarithmically spaced (multiplicative) bins.
#[derive(Debug, Clone)]
pub struct LogBinnedHistogram {
    /// Lower edge of the first bin.
    pub min_value: f64,
    /// Multiplicative bin width (each bin spans `[lo, lo * factor)`).
    pub factor: f64,
    /// Per-bin counts.
    pub counts: Vec<usize>,
    /// Samples below `min_value` (collected but not binned).
    pub underflow: usize,
    /// Total samples offered.
    pub total: usize,
}

impl LogBinnedHistogram {
    /// Builds a histogram of `samples` with bins
    /// `[min_value·factor^k, min_value·factor^{k+1})`.
    ///
    /// # Panics
    /// Panics if `min_value <= 0` or `factor <= 1`.
    pub fn build(samples: impl Iterator<Item = f64>, min_value: f64, factor: f64) -> Self {
        assert!(min_value > 0.0, "min_value must be positive");
        assert!(factor > 1.0, "factor must exceed 1");
        let mut h =
            LogBinnedHistogram { min_value, factor, counts: Vec::new(), underflow: 0, total: 0 };
        let log_factor = factor.ln();
        for x in samples {
            if !x.is_finite() {
                continue;
            }
            h.total += 1;
            if x < min_value {
                h.underflow += 1;
                continue;
            }
            let bin = ((x / min_value).ln() / log_factor).floor() as usize;
            if bin >= h.counts.len() {
                h.counts.resize(bin + 1, 0);
            }
            h.counts[bin] += 1;
        }
        h
    }

    /// Lower edge of bin `k`.
    pub fn bin_lower(&self, k: usize) -> f64 {
        self.min_value * self.factor.powi(k as i32)
    }

    /// Geometric centre of bin `k`.
    pub fn bin_center(&self, k: usize) -> f64 {
        self.bin_lower(k) * self.factor.sqrt()
    }

    /// Probability *density* of bin `k`: fraction of all samples in the bin
    /// divided by the bin's width (so power laws plot as straight lines on
    /// log-log axes regardless of binning).
    pub fn density(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let width = self.bin_lower(k) * (self.factor - 1.0);
        self.counts[k] as f64 / self.total as f64 / width
    }

    /// `(center, fraction_of_samples)` pairs for non-empty bins, matching
    /// the "% of hosts with mass ≈ m" axes of Figure 6.
    pub fn fraction_series(&self) -> Vec<(f64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (self.bin_center(k), c as f64 / self.total.max(1) as f64))
            .collect()
    }

    /// Least-squares slope of `log(density)` vs `log(center)` over
    /// non-empty bins — a quick visual-fit check complementing the MLE.
    pub fn loglog_slope(&self) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, _)| (self.bin_center(k).ln(), self.density(k).ln()))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic power-law-ish sample: inverse-CDF of a Pareto with
    /// exponent alpha, evaluated on a uniform grid.
    fn pareto_samples(alpha: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                let u = (i as f64 - 0.5) / n as f64;
                (1.0 - u).powf(-1.0 / (alpha - 1.0))
            })
            .collect()
    }

    #[test]
    fn mle_recovers_exponent() {
        let samples = pareto_samples(2.31, 200_000);
        let fit = fit_exponent_mle(samples.into_iter(), 1.0).unwrap();
        assert!((fit.alpha - 2.31).abs() < 0.05, "expected alpha near 2.31, got {}", fit.alpha);
        assert_eq!(fit.tail_samples, 200_000);
    }

    #[test]
    fn discrete_mle_on_integer_data() {
        // Integer samples drawn from a zeta-like tail via rounding a Pareto;
        // the half-integer correction should land near the true exponent.
        let samples: Vec<f64> =
            pareto_samples(2.5, 200_000).into_iter().map(|x| x.round().max(1.0)).collect();
        let fit = fit_exponent_mle_discrete(samples.into_iter(), 2.0).unwrap();
        assert!((fit.alpha - 2.5).abs() < 0.15, "expected alpha near 2.5, got {}", fit.alpha);
    }

    #[test]
    fn mle_respects_x_min() {
        let samples = vec![0.1, 0.2, 5.0, 7.0, 20.0, 100.0];
        let fit = fit_exponent_mle(samples.into_iter(), 1.0).unwrap();
        assert_eq!(fit.tail_samples, 4);
    }

    #[test]
    fn mle_returns_none_for_tiny_input() {
        assert!(fit_exponent_mle(vec![5.0].into_iter(), 1.0).is_none());
        assert!(fit_exponent_mle(std::iter::empty(), 1.0).is_none());
    }

    #[test]
    fn histogram_bins_and_underflow() {
        let h = LogBinnedHistogram::build(vec![0.5, 1.0, 1.5, 2.5, 9.0].into_iter(), 1.0, 2.0);
        // bins: [1,2): {1.0,1.5}; [2,4): {2.5}; [4,8): {}; [8,16): {9.0}
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.total, 5);
        assert!((h.bin_lower(2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bin_center_is_the_geometric_middle_of_its_bin() {
        let h = LogBinnedHistogram::build(vec![1.0, 30.0].into_iter(), 0.5, 4.0);
        for k in 0..h.counts.len() {
            let (lo, hi) = (h.bin_lower(k), h.bin_lower(k + 1));
            let center = h.bin_center(k);
            assert!(lo < center && center < hi, "bin {k}: {center} outside [{lo}, {hi})");
            assert!((center * center - lo * hi).abs() < 1e-9 * hi * hi, "bin {k}");
        }
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_is_width_normalized() {
        let h = LogBinnedHistogram::build(vec![1.0, 2.0].into_iter(), 1.0, 2.0);
        // bin0 width 1, bin1 width 2, each holds half the samples.
        assert!((h.density(0) - 0.5).abs() < 1e-12);
        assert!((h.density(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn slope_near_minus_alpha() {
        let samples = pareto_samples(2.31, 100_000);
        let h = LogBinnedHistogram::build(samples.into_iter(), 1.0, 1.5);
        let slope = h.loglog_slope().unwrap();
        // density slope of a power law ≈ -alpha (binning/tail noise allowed).
        assert!(slope < -1.7 && slope > -3.0, "slope {slope} out of range");
    }

    #[test]
    fn fraction_series_skips_empty_bins() {
        let h = LogBinnedHistogram::build(vec![1.0, 9.0].into_iter(), 1.0, 2.0);
        let series = h.fraction_series();
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 0.5).abs() < 1e-12);
    }
}
