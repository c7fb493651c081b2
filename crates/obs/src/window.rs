//! Sliding-window aggregation: the time-aware metric kinds behind the
//! live [`crate::registry::MetricsRegistry`].
//!
//! Post-mortem metrics ([`crate::metrics`]) accumulate forever; a live
//! scrape instead wants "what happened recently". Every type here keeps a
//! ring of fixed-duration slots tagged with their absolute slot index:
//! writing rotates a slot lazily when its tag is stale, reading filters
//! to slots still inside the window, so neither side ever scans or
//! zeroes the whole ring on a timer.
//!
//! Time is passed in explicitly as nanoseconds since an arbitrary epoch
//! (the registry uses its construction instant). That keeps this module
//! deterministic under test — window rotation and expiry are exercised
//! with a synthetic clock, not sleeps.
//!
//! Windowed histograms keep, per slot, both the half-decade log buckets
//! of [`crate::metrics::Histogram`] *and* a bounded buffer of raw
//! samples. While no slot has overflowed its buffer, p50/p90/p99 are
//! **exact** (nearest-rank over the merged samples); past the cap the
//! extraction degrades to a log-bucket estimate and says so via
//! [`HistWindowSnapshot::is_exact`].

use crate::json::Json;
use crate::metrics::Histogram;

/// Shape of a sliding window: `slots` ring slots of `slot_ns` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowSpec {
    /// Duration of one ring slot in nanoseconds.
    pub slot_ns: u64,
    /// Number of ring slots; the window covers `slots * slot_ns`.
    pub slots: usize,
}

impl WindowSpec {
    /// A window of `slots` slots of `slot_ns` nanoseconds each.
    pub const fn new(slot_ns: u64, slots: usize) -> Self {
        WindowSpec { slot_ns, slots }
    }

    /// Total window span in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns * self.slots as u64
    }

    /// Absolute slot index for a timestamp.
    fn slot_of(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns.max(1)
    }

    /// Whether a slot tagged `abs` is still inside the window at `now_ns`.
    fn in_window(&self, abs: u64, now_ns: u64) -> bool {
        abs + self.slots as u64 > self.slot_of(now_ns)
    }
}

impl Default for WindowSpec {
    /// 15 one-second slots: wide enough that a 5s scrape interval always
    /// overlaps, narrow enough to track a solve phase by phase.
    fn default() -> Self {
        WindowSpec::new(1_000_000_000, 15)
    }
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct CounterSlot {
    abs: u64,
    sum: f64,
}

/// A counter carrying both a lifetime total and a windowed sum.
#[derive(Debug, Clone)]
pub(crate) struct WindowedCounter {
    spec: WindowSpec,
    total: f64,
    ring: Vec<CounterSlot>,
}

impl WindowedCounter {
    /// An empty counter over `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowedCounter {
            spec,
            total: 0.0,
            ring: vec![CounterSlot { abs: u64::MAX, sum: 0.0 }; spec.slots.max(1)],
        }
    }

    /// Adds `delta` at time `now_ns`.
    pub fn add(&mut self, now_ns: u64, delta: f64) {
        self.total += delta;
        let abs = self.spec.slot_of(now_ns);
        let idx = (abs % self.ring.len() as u64) as usize;
        let slot = &mut self.ring[idx];
        if slot.abs != abs {
            *slot = CounterSlot { abs, sum: 0.0 };
        }
        slot.sum += delta;
    }

    /// Lifetime total.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Sum of deltas inside the window ending at `now_ns`.
    pub fn windowed(&self, now_ns: u64) -> f64 {
        self.ring
            .iter()
            .filter(|s| s.abs != u64::MAX && self.spec.in_window(s.abs, now_ns))
            .map(|s| s.sum)
            .sum()
    }

    /// Windowed increments per second. The denominator is the lesser of
    /// the window span and the process age, so young processes are not
    /// under-reported.
    pub fn rate_per_s(&self, now_ns: u64) -> f64 {
        let span_ns = self.spec.window_ns().min(now_ns).max(self.spec.slot_ns).max(1);
        self.windowed(now_ns) / (span_ns as f64 / 1e9)
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A last-write-wins gauge that remembers when it was last set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowedGauge {
    value: f64,
    updated_ns: u64,
    set: bool,
}

impl WindowedGauge {
    /// A gauge that has never been set.
    pub fn new() -> Self {
        WindowedGauge { value: 0.0, updated_ns: 0, set: false }
    }

    /// Sets the gauge at time `now_ns`.
    pub fn set(&mut self, now_ns: u64, value: f64) {
        self.value = value;
        self.updated_ns = now_ns;
        self.set = true;
    }

    /// The current value (`None` if never set).
    pub fn value(&self) -> Option<f64> {
        if self.set {
            Some(self.value)
        } else {
            None
        }
    }

    /// Nanoseconds since the last set (`None` if never set).
    pub fn age_ns(&self, now_ns: u64) -> Option<u64> {
        if self.set {
            Some(now_ns.saturating_sub(self.updated_ns))
        } else {
            None
        }
    }
}

impl Default for WindowedGauge {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Raw samples kept per slot before percentile extraction degrades to a
/// bucket estimate. 512 × 15 slots × 8 shards ≈ 60k f64 worst case —
/// bounded regardless of sample rate.
const SLOT_SAMPLE_CAP: usize = 512;

#[derive(Debug, Clone)]
struct HistSlot {
    abs: u64,
    hist: Histogram,
    samples: Vec<f64>,
    overflowed: bool,
}

impl HistSlot {
    fn fresh(abs: u64) -> Self {
        HistSlot { abs, hist: Histogram::new(), samples: Vec::new(), overflowed: false }
    }
}

/// A sliding-window log-bucket histogram with bounded exact samples.
#[derive(Debug, Clone)]
pub(crate) struct WindowHistogram {
    spec: WindowSpec,
    sample_cap: usize,
    slots: Vec<HistSlot>,
}

impl WindowHistogram {
    /// An empty histogram over `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowHistogram {
            spec,
            sample_cap: SLOT_SAMPLE_CAP,
            slots: (0..spec.slots.max(1)).map(|_| HistSlot::fresh(u64::MAX)).collect(),
        }
    }

    /// Records one sample at time `now_ns`.
    pub fn record(&mut self, now_ns: u64, v: f64) {
        let abs = self.spec.slot_of(now_ns);
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(abs % len) as usize];
        if slot.abs != abs {
            *slot = HistSlot::fresh(abs);
        }
        slot.hist.record(v);
        if !v.is_finite() {
            return;
        }
        if slot.samples.len() < self.sample_cap {
            slot.samples.push(v);
        } else {
            slot.overflowed = true;
        }
    }

    /// Summarizes the window ending at `now_ns`. Read-only: expired slots
    /// are skipped, not cleared.
    pub fn snapshot(&self, now_ns: u64) -> HistWindowSnapshot {
        let mut snap =
            HistWindowSnapshot { hist: Histogram::new(), samples: Vec::new(), exact: true };
        for slot in &self.slots {
            if slot.abs == u64::MAX || !self.spec.in_window(slot.abs, now_ns) {
                continue;
            }
            snap.hist.merge(&slot.hist);
            snap.samples.extend_from_slice(&slot.samples);
            snap.exact &= !slot.overflowed;
        }
        snap.samples.sort_by(f64::total_cmp);
        snap
    }
}

/// The merged window view of one histogram (or of several per-thread
/// shards of the same histogram): its statistics, plus the raw samples
/// that make its percentiles exact.
#[derive(Debug, Clone)]
pub struct HistWindowSnapshot {
    hist: Histogram,
    samples: Vec<f64>,
    exact: bool,
}

impl HistWindowSnapshot {
    /// Count, sum, min/max/mean and buckets of the window.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Whether percentiles come from raw samples rather than buckets
    /// (no slot overflowed its buffer).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Folds another shard of the same metric into this snapshot.
    pub(crate) fn merge(mut self, other: HistWindowSnapshot) -> HistWindowSnapshot {
        self.hist.merge(&other.hist);
        self.samples.extend_from_slice(&other.samples);
        self.samples.sort_by(f64::total_cmp);
        self.exact &= other.exact;
        self
    }

    /// The `q`-quantile (`0 < q <= 1`), nearest-rank. Exact over the raw
    /// samples while [`Self::is_exact`]; otherwise a bucket estimate.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let count = self.hist.count();
        if count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        if self.exact {
            return Some(self.samples[(rank - 1) as usize]);
        }
        Some(self.hist.rank_estimate(rank))
    }

    /// JSON form: the histogram's, with the standard quantiles and the
    /// `exact` flag after its mean.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.hist.to_json() else {
            unreachable!("Histogram::to_json returns an object")
        };
        let quantile = |q| self.percentile(q).map(Json::num).unwrap_or(Json::Null);
        let after_mean =
            fields.iter().position(|(k, _)| k == "mean").map_or(fields.len(), |i| i + 1);
        fields.splice(
            after_mean..after_mean,
            [
                ("p50".to_string(), quantile(0.50)),
                ("p90".to_string(), quantile(0.90)),
                ("p99".to_string(), quantile(0.99)),
                ("exact".to_string(), Json::Bool(self.exact)),
            ],
        );
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10 slots of 1s: slot boundaries at whole seconds.
    fn spec() -> WindowSpec {
        WindowSpec::new(1_000_000_000, 10)
    }

    fn s(n: u64) -> u64 {
        n * 1_000_000_000
    }

    #[test]
    fn counter_tracks_total_and_window() {
        let mut c = WindowedCounter::new(spec());
        c.add(s(0), 5.0);
        c.add(s(1), 7.0);
        assert_eq!(c.total(), 12.0);
        assert_eq!(c.windowed(s(1)), 12.0);
        // 11s later the first two slots have expired; total is forever.
        c.add(s(12), 1.0);
        assert_eq!(c.windowed(s(12)), 1.0);
        assert_eq!(c.total(), 13.0);
    }

    #[test]
    fn counter_rate_uses_elapsed_for_young_processes() {
        let mut c = WindowedCounter::new(spec());
        c.add(s(1), 100.0);
        // Process is 2s old: denominator 2s, not the 10s window.
        assert!((c.rate_per_s(s(2)) - 50.0).abs() < 1e-9);
        // Once older than the window, the window span is the denominator.
        assert!((c.rate_per_s(s(10)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn counter_slot_reuse_does_not_resurrect_old_sums() {
        let mut c = WindowedCounter::new(spec());
        c.add(s(3), 40.0);
        // Same ring index, 10 slots later: must reset, not accumulate.
        c.add(s(13), 2.0);
        assert_eq!(c.windowed(s(13)), 2.0);
    }

    #[test]
    fn gauge_value_and_age() {
        let mut g = WindowedGauge::new();
        assert_eq!(g.value(), None);
        assert_eq!(g.age_ns(s(5)), None);
        g.set(s(2), 0.75);
        assert_eq!(g.value(), Some(0.75));
        assert_eq!(g.age_ns(s(5)), Some(s(3)));
        g.set(s(6), 0.5);
        assert_eq!(g.value(), Some(0.5));
        assert_eq!(g.age_ns(s(6)), Some(0));
    }

    #[test]
    fn histogram_exact_percentiles_on_known_distribution() {
        let mut h = WindowHistogram::new(spec());
        // 1..=100 spread across two in-window slots.
        for v in 1..=100u32 {
            h.record(s(u64::from(v % 2)), f64::from(v));
        }
        let snap = h.snapshot(s(2));
        assert!(snap.is_exact());
        assert_eq!(snap.hist.count(), 100);
        assert_eq!(snap.percentile(0.50), Some(50.0));
        assert_eq!(snap.percentile(0.90), Some(90.0));
        assert_eq!(snap.percentile(0.99), Some(99.0));
        assert_eq!(snap.percentile(1.0), Some(100.0));
        assert_eq!(snap.hist.min(), Some(1.0));
        assert_eq!(snap.hist.max(), Some(100.0));
        assert_eq!(snap.hist.mean(), Some(50.5));
    }

    #[test]
    fn histogram_window_rotation_expires_old_slots() {
        let mut h = WindowHistogram::new(spec());
        h.record(s(0), 10.0);
        h.record(s(5), 20.0);
        // Both visible inside the window…
        assert_eq!(h.snapshot(s(5)).hist.count(), 2);
        // …at 10s the slot-0 sample has aged out (10 slots of 1s)…
        let later = h.snapshot(s(10));
        assert_eq!(later.hist.count(), 1);
        assert_eq!(later.percentile(0.5), Some(20.0));
        // …and far past the window everything is gone.
        assert_eq!(h.snapshot(s(30)).hist.count(), 0);
        assert_eq!(h.snapshot(s(30)).percentile(0.5), None);
    }

    #[test]
    fn histogram_slot_reuse_resets_state() {
        let mut h = WindowHistogram::new(spec());
        h.record(s(1), 100.0);
        h.record(s(11), 1.0); // same ring index, new epoch
        let snap = h.snapshot(s(11));
        assert_eq!(snap.hist.count(), 1);
        assert_eq!(snap.hist.max(), Some(1.0));
    }

    #[test]
    fn histogram_shard_merge_is_exact_across_threads() {
        let mut a = WindowHistogram::new(spec());
        let mut b = WindowHistogram::new(spec());
        for v in 1..=50u32 {
            a.record(s(1), f64::from(v));
        }
        for v in 51..=100u32 {
            b.record(s(1), f64::from(v));
        }
        let merged = a.snapshot(s(1)).merge(b.snapshot(s(1)));
        assert!(merged.is_exact());
        assert_eq!(merged.hist.count(), 100);
        assert_eq!(merged.percentile(0.50), Some(50.0));
        assert_eq!(merged.percentile(0.99), Some(99.0));
        assert_eq!(merged.hist.min(), Some(1.0));
        assert_eq!(merged.hist.max(), Some(100.0));
    }

    #[test]
    fn histogram_sample_overflow_degrades_to_bucket_estimate() {
        let mut h = WindowHistogram::new(spec());
        h.sample_cap = 8;
        // 1000 samples in one slot, all in [100, 316) — one half-decade
        // bucket — so the estimate must land inside that bucket.
        for i in 0..1000 {
            h.record(s(1), 100.0 + f64::from(i % 200));
        }
        let snap = h.snapshot(s(1));
        assert!(!snap.is_exact());
        assert_eq!(snap.hist.count(), 1000);
        let p50 = snap.percentile(0.50).unwrap();
        assert!((100.0..316.3).contains(&p50), "bucket estimate {p50}");
        // Summary stats stay exact even when percentiles degrade.
        assert_eq!(snap.hist.min(), Some(100.0));
        assert_eq!(snap.hist.max(), Some(299.0));
        // Merging an exact shard with an overflowed one is not exact.
        let exact_shard = WindowHistogram::new(spec()).snapshot(s(1));
        assert!(exact_shard.is_exact());
        assert!(!exact_shard.merge(snap).is_exact());
    }

    #[test]
    fn histogram_out_of_range_saturates_overflow_buckets() {
        let mut h = WindowHistogram::new(spec());
        h.sample_cap = 2;
        // Saturate the sample buffer so extraction uses buckets, with the
        // population split across below-range / in-range / above-range.
        for _ in 0..10 {
            h.record(s(1), -5.0); // below (negative relative mass)
        }
        for _ in 0..10 {
            h.record(s(1), 1.0);
        }
        for _ in 0..10 {
            h.record(s(1), 1e12); // above the 1e8 bucket ceiling
        }
        h.record(s(1), f64::NAN);
        let snap = h.snapshot(s(1));
        assert!(!snap.is_exact());
        let j = snap.to_json();
        assert_eq!(j.get("below").and_then(Json::as_f64), Some(10.0));
        assert_eq!(j.get("above").and_then(Json::as_f64), Some(10.0));
        assert_eq!(snap.hist.non_finite(), 1);
        assert_eq!(snap.hist.count(), 30);
        // Ranks inside the below population resolve to the observed min,
        // ranks past every bucket to the observed max.
        assert_eq!(snap.percentile(0.10), Some(-5.0));
        assert_eq!(snap.percentile(0.99), Some(1e12));
        // Mid-ranks land in the in-range bucket, clamped to min/max.
        let p50 = snap.percentile(0.50).unwrap();
        assert!((-5.0..=1e12).contains(&p50));
    }

    #[test]
    fn snapshot_json_shape() {
        let mut h = WindowHistogram::new(spec());
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(s(1), v);
        }
        let j = h.snapshot(s(1)).to_json();
        assert_eq!(j.get("count").and_then(Json::as_f64), Some(4.0));
        assert_eq!(j.get("exact"), Some(&Json::Bool(true)));
        assert_eq!(j.get("p50").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("p99").and_then(Json::as_f64), Some(4.0));
        assert!(j.get("buckets").and_then(Json::as_arr).is_some());
    }
}
