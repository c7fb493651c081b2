//! Typed metrics: counters, gauges, and fixed-bucket log-scale histograms.
//!
//! Histograms use **half-decade log buckets** spanning `[1e-16, 1e8)` —
//! wide enough for both solver residuals (`1e-14 … 1e2`) and iteration
//! counts / line counters (`1 … 1e7`) without any per-metric
//! configuration, which keeps bucket boundaries identical across runs and
//! therefore diffable. Values outside the range land in dedicated
//! `below`/`above` overflow counts; zero, negative, and non-finite values
//! are counted separately (relative spam mass is legitimately negative
//! for good-core beneficiaries, so "below" is a real population, not an
//! error).

use crate::json::Json;

/// Lowest bucket boundary, as a power of ten.
const MIN_DECADE: i32 = -16;
/// Highest bucket boundary (exclusive), as a power of ten.
const MAX_DECADE: i32 = 8;
/// Buckets per decade (half-decade resolution).
const PER_DECADE: i32 = 2;
/// Total bucket count.
const BUCKETS: usize = ((MAX_DECADE - MIN_DECADE) * PER_DECADE) as usize;

/// A fixed-bucket log-scale histogram with summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    below: u64,
    above: u64,
    non_finite: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            below: 0,
            above: 0,
            non_finite: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

/// One populated histogram bucket: counts of samples in `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
    /// Samples that landed in the bucket.
    pub count: u64,
}

/// The inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> f64 {
    10f64.powf(MIN_DECADE as f64 + i as f64 / PER_DECADE as f64)
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < bucket_lo(0) {
            // Zero, negative, and sub-range positives.
            self.below += 1;
            return;
        }
        let idx = (PER_DECADE as f64 * (v.log10() - MIN_DECADE as f64)).floor() as isize;
        match self.buckets.get_mut(idx.max(0) as usize) {
            Some(n) => *n += 1,
            None => self.above += 1,
        }
    }

    /// Folds `other` into this histogram, as if its samples had been
    /// recorded here.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.below += other.below;
        self.above += other.above;
        self.non_finite += other.non_finite;
        for (acc, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += n;
        }
    }

    /// The sample at nearest rank `rank` (1-based, at most
    /// [`Self::count`]) estimated from the buckets: the geometric
    /// midpoint of the covering bucket, clamped to the observed min/max;
    /// ranks below or above the grid resolve to min/max exactly.
    pub(crate) fn rank_estimate(&self, rank: u64) -> f64 {
        let mut acc = self.below;
        if rank <= acc {
            return self.min;
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if rank <= acc {
                return (bucket_lo(i) * bucket_lo(i + 1)).sqrt().clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Finite samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count > 0 {
            Some(self.sum / self.count as f64)
        } else {
            None
        }
    }

    /// Smallest finite sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count > 0 {
            Some(self.min)
        } else {
            None
        }
    }

    /// Largest finite sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count > 0 {
            Some(self.max)
        } else {
            None
        }
    }

    /// NaN/∞ samples (excluded from every other statistic).
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// The populated buckets, ascending by bound.
    pub(crate) fn populated(&self) -> Vec<Bucket> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Bucket { lo: bucket_lo(i), hi: bucket_lo(i + 1), count: c })
            .collect()
    }

    /// JSON form: summary statistics plus the populated buckets.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .populated()
            .into_iter()
            .map(|b| {
                Json::obj([
                    ("lo", Json::num(b.lo)),
                    ("hi", Json::num(b.hi)),
                    ("count", Json::uint(b.count)),
                ])
            })
            .collect();
        Json::obj([
            ("count", Json::uint(self.count)),
            ("sum", Json::num(self.sum)),
            ("min", self.min().map(Json::num).unwrap_or(Json::Null)),
            ("max", self.max().map(Json::num).unwrap_or(Json::Null)),
            ("mean", self.mean().map(Json::num).unwrap_or(Json::Null)),
            ("below", Json::uint(self.below)),
            ("above", Json::uint(self.above)),
            ("non_finite", Json::uint(self.non_finite)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic accumulator.
    Counter(f64),
    /// Last-write-wins value.
    Gauge(f64),
    /// Log-bucket distribution.
    Histogram(Histogram),
}

impl Metric {
    /// Kind name used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// JSON form of the metric value.
    pub fn to_json(&self) -> Json {
        match self {
            Metric::Counter(v) | Metric::Gauge(v) => Json::num(*v),
            Metric::Histogram(h) => h.to_json(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_half_decades() {
        assert!((bucket_lo(0) - 1e-16).abs() < 1e-26);
        // One decade = two buckets.
        let ratio = bucket_lo(2) / bucket_lo(0);
        assert!((ratio - 10.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn records_land_in_log_buckets() {
        let mut h = Histogram::new();
        // Mid-bucket values, immune to boundary float fuzz.
        h.record(2e-13);
        h.record(2e-13);
        h.record(5e-13); // next half-decade up
        h.record(42.0);
        let buckets = h.populated();
        assert_eq!(buckets.len(), 3, "{buckets:?}");
        assert_eq!(buckets[0].count, 2);
        assert!(buckets[0].lo <= 2e-13 && 2e-13 < buckets[0].hi);
        assert_eq!(buckets[1].count, 1);
        assert_eq!(buckets[2].count, 1);
        assert!(buckets[2].lo <= 42.0 && 42.0 < buckets[2].hi);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
        assert_eq!(h.sum(), 6.0);
    }

    #[test]
    fn out_of_range_and_special_values() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-0.5); // negative relative mass is a real population
        h.record(1e-20);
        h.record(1e12);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        let j = h.to_json();
        assert_eq!(j.get("below").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("above").unwrap().as_f64(), Some(1.0));
        assert_eq!(h.non_finite(), 2);
        // Finite samples still contribute to the summary stats.
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(-0.5));
        assert_eq!(h.max(), Some(1e12));
        assert!(h.populated().is_empty());
    }

    #[test]
    fn histogram_json_shape() {
        let mut h = Histogram::new();
        h.record(3.0);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.get("mean").unwrap().as_f64(), Some(3.0));
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn metric_kinds() {
        assert_eq!(Metric::Counter(1.0).kind(), "counter");
        assert_eq!(Metric::Gauge(1.0).kind(), "gauge");
        assert_eq!(Metric::Histogram(Histogram::new()).kind(), "histogram");
        assert_eq!(Metric::Counter(2.5).to_json(), Json::Num(2.5));
    }
}
