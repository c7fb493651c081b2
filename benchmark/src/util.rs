//! Small shared helpers: seeded PRNG, order statistics, process facts.

use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer (and intermediate) metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Benchmark failures are reported as text and end the run non-zero.
pub type Res<T> = Result<T, String>;

/// Turns any displayable error into the benchmark's error text, with the
/// step that failed.
pub fn ctx<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// `s` as a JSON string literal.
pub fn quoted(s: &str) -> String {
    spammass_obs::json::Json::str(s).render()
}

/// SplitMix64: the benchmark's own seeded generator, so request streams
/// depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `q`-quantile by nearest rank (`q` in `(0, 1]`); 0 on no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle samples averaged on even counts; 0 on no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// FNV-1a over node ids: the flagged-set fingerprint workloads compare.
pub fn fnv1a(ids: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for b in id.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = ctx("read /proc/self/status", std::fs::read_to_string("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size of the regular files under `dir`, in MiB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn bytes(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    bytes(dir) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // A failed request is recorded as +inf and so lands beyond any limit.
        assert_eq!(percentile(&[1.0, 2.0, f64::INFINITY], 1.0), f64::INFINITY);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(9);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut r = Rng::new(9);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], Rng::new(10).next_u64());
        assert!((0..100).all(|_| r.below(5) < 5));
    }
}
