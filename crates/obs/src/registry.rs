//! The process-global live metrics registry.
//!
//! The thread-local [`crate::Collector`] is the right shape for
//! post-mortem run reports, but a live scrape has two needs it cannot
//! serve: worker threads must be able to record without any collector
//! plumbing, and an HTTP handler on a foreign thread must be able to
//! read a consistent view without pausing a solve. The registry answers
//! both: one `OnceLock`'d instance per process, which hears the
//! facade's counters, gauges and samples while the live plane is on
//! ([`crate::enable_live`]).
//!
//! Concurrency model: the name → metric map is behind an `RwLock` taken
//! for writing only on first registration of a name; every update after
//! that takes one short per-metric `Mutex`. Histograms are additionally
//! sharded (thread-sticky shard choice) so parallel pool workers never
//! contend on one lock; shards merge at snapshot time. A snapshot
//! captures `now_ns` once and reads every metric against that instant —
//! epoch-consistent, and never blocking a writer for longer than one
//! metric's lock.

use crate::event::Event;
use crate::window::{
    HistWindowSnapshot, WindowHistogram, WindowSpec, WindowedCounter, WindowedGauge,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// Histogram shards per metric. Sized for the pool's worker counts; a
/// worker's shard is sticky, so contention needs two workers hashing to
/// the same shard *and* recording simultaneously.
const SHARDS: usize = 8;

/// Locks a mutex, surviving poisoning: the registry must stay readable
/// from a panic hook even if the panicking thread held a metric lock.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

enum LiveMetric {
    Counter(Mutex<WindowedCounter>),
    Gauge(Mutex<WindowedGauge>),
    Histogram(Vec<Mutex<WindowHistogram>>),
}

/// A process-wide metrics registry with sliding-window aggregation.
pub struct MetricsRegistry {
    epoch: Instant,
    spec: WindowSpec,
    metrics: RwLock<BTreeMap<String, Arc<LiveMetric>>>,
}

impl MetricsRegistry {
    /// A registry with the default window (15 × 1s slots).
    pub(crate) fn new() -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            spec: WindowSpec::default(),
            metrics: RwLock::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since this registry was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The window shape snapshots report against.
    pub fn window_ns(&self) -> u64 {
        self.spec.window_ns()
    }

    fn metric(&self, name: &str, make: impl FnOnce() -> LiveMetric) -> Arc<LiveMetric> {
        {
            let map = self.metrics.read().unwrap_or_else(|e| e.into_inner());
            if let Some(m) = map.get(name) {
                return m.clone();
            }
        }
        let mut map = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_insert_with(|| Arc::new(make())).clone()
    }

    /// Applies a counter, gauge or sample event; other kinds are not
    /// metrics and are ignored.
    pub(crate) fn record(&self, event: &Event) {
        match event {
            Event::Counter { name, delta, .. } => self.counter_add(name, *delta),
            Event::Gauge { name, value } => self.gauge_set(name, *value),
            Event::Observe { name, value } => self.observe(name, *value),
            _ => {}
        }
    }

    /// Adds `delta` to the windowed counter `name`. Kind mismatches are
    /// ignored, like the collector: first registration wins.
    pub(crate) fn counter_add(&self, name: &str, delta: f64) {
        let now = self.now_ns();
        let metric =
            self.metric(name, || LiveMetric::Counter(Mutex::new(WindowedCounter::new(self.spec))));
        if let LiveMetric::Counter(c) = &*metric {
            lock_unpoisoned(c).add(now, delta);
        }
    }

    /// Sets the windowed gauge `name`.
    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        let now = self.now_ns();
        let metric = self.metric(name, || LiveMetric::Gauge(Mutex::new(WindowedGauge::new())));
        if let LiveMetric::Gauge(g) = &*metric {
            lock_unpoisoned(g).set(now, value);
        }
    }

    /// Records a sample into the windowed histogram `name` via this
    /// thread's shard.
    pub(crate) fn observe(&self, name: &str, value: f64) {
        let now = self.now_ns();
        let metric = self.metric(name, || {
            LiveMetric::Histogram(
                (0..SHARDS).map(|_| Mutex::new(WindowHistogram::new(self.spec))).collect(),
            )
        });
        if let LiveMetric::Histogram(shards) = &*metric {
            lock_unpoisoned(&shards[shard_index()]).record(now, value);
        }
    }

    /// An epoch-consistent snapshot of every metric: one timestamp, every
    /// window read against it, histogram shards merged. Sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let at_ns = self.now_ns();
        let entries: Vec<(String, Arc<LiveMetric>)> = {
            let map = self.metrics.read().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let entries = entries
            .into_iter()
            .map(|(name, metric)| {
                let snap = match &*metric {
                    LiveMetric::Counter(c) => {
                        let c = lock_unpoisoned(c);
                        MetricSnapshot::Counter {
                            total: c.total(),
                            windowed: c.windowed(at_ns),
                            rate_per_s: c.rate_per_s(at_ns),
                        }
                    }
                    LiveMetric::Gauge(g) => {
                        let g = lock_unpoisoned(g);
                        MetricSnapshot::Gauge {
                            value: g.value().unwrap_or(f64::NAN),
                            age_ns: g.age_ns(at_ns).unwrap_or(0),
                        }
                    }
                    LiveMetric::Histogram(shards) => MetricSnapshot::Histogram(
                        shards
                            .iter()
                            .map(|s| lock_unpoisoned(s).snapshot(at_ns))
                            .reduce(HistWindowSnapshot::merge)
                            .expect("at least one shard"),
                    ),
                };
                (name, snap)
            })
            .collect();
        RegistrySnapshot { at_ns, window_ns: self.spec.window_ns(), entries }
    }
}

/// One metric's view inside a [`RegistrySnapshot`].
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// A windowed counter.
    Counter {
        /// Lifetime total.
        total: f64,
        /// Sum of deltas inside the window.
        windowed: f64,
        /// Windowed increments per second.
        rate_per_s: f64,
    },
    /// A gauge.
    Gauge {
        /// Last value set.
        value: f64,
        /// Nanoseconds since the last set.
        age_ns: u64,
    },
    /// A windowed histogram, shards merged.
    Histogram(HistWindowSnapshot),
}

/// An epoch-consistent view of the whole registry.
pub struct RegistrySnapshot {
    /// Registry-relative timestamp the snapshot was taken at.
    pub at_ns: u64,
    /// Window span the aggregates cover.
    pub window_ns: u64,
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricSnapshot)>,
}

impl RegistrySnapshot {
    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }
}

/// Sticky per-thread histogram shard choice: threads round-robin over
/// shards at first use, so the pool's workers spread out deterministically.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

// ---------------------------------------------------------------------
// Process-global instance
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry (created on first use; it hears the
/// facade only while the live plane is on).
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_round_trip() {
        let r = MetricsRegistry::new();
        r.counter_add("a.count", 2.0);
        r.counter_add("a.count", 3.0);
        r.gauge_set("a.ratio", 0.5);
        for v in 1..=100u32 {
            r.observe("a.latency", f64::from(v));
        }
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 3);
        match snap.get("a.count").unwrap() {
            MetricSnapshot::Counter { total, windowed, rate_per_s } => {
                assert_eq!(*total, 5.0);
                assert_eq!(*windowed, 5.0);
                assert!(*rate_per_s > 0.0);
            }
            _ => panic!("expected counter"),
        }
        match snap.get("a.ratio").unwrap() {
            MetricSnapshot::Gauge { value, .. } => assert_eq!(*value, 0.5),
            _ => panic!("expected gauge"),
        }
        match snap.get("a.latency").unwrap() {
            MetricSnapshot::Histogram(h) => {
                assert_eq!(h.histogram().count(), 100);
                assert!(h.is_exact());
                assert_eq!(h.percentile(0.5), Some(50.0));
            }
            _ => panic!("expected histogram"),
        }
    }

    #[test]
    fn kind_mismatch_is_ignored() {
        let r = MetricsRegistry::new();
        r.gauge_set("m", 5.0);
        r.counter_add("m", 1.0);
        r.observe("m", 1.0);
        match r.snapshot().get("m").unwrap() {
            MetricSnapshot::Gauge { value, .. } => assert_eq!(*value, 5.0),
            _ => panic!("first registration must win"),
        }
    }

    #[test]
    fn histogram_shards_merge_across_threads() {
        let r = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for v in 0..25u32 {
                        r.observe("x.dist", f64::from(t * 25 + v + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        match r.snapshot().get("x.dist").unwrap() {
            MetricSnapshot::Histogram(h) => {
                assert_eq!(h.histogram().count(), 100);
                assert!(h.is_exact());
                assert_eq!(h.percentile(0.5), Some(50.0));
                assert_eq!(h.histogram().max(), Some(100.0));
            }
            _ => panic!("expected histogram"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_lookup_works() {
        let r = MetricsRegistry::new();
        r.counter_add("z.last", 1.0);
        r.counter_add("a.first", 1.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert!(snap.get("missing").is_none());
    }
}
