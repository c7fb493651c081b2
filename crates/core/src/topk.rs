//! Partial-select top-k: the k best items without sorting all n.
//!
//! The detect CLI prints candidates ranked by scaled PageRank, and the
//! query daemon ranks every host by estimated spam mass. Both want a
//! handful of winners out of up to millions of scores; a full
//! `O(n log n)` sort pays for order nobody reads. This module keeps a
//! size-k min-heap instead — `O(n log k)`. The daemon runs it three times
//! per snapshot at load, one ranking per `/topk` axis, and a request
//! slices those; per request it runs only over one host's in-neighbours
//! for `/explain`.
//!
//! Memory is bounded by the smaller of `k` and the input, never by `k`
//! alone: `k` may arrive from a request unchecked (`/explain?limit=`), so
//! the heap reserves for `min(k, items.size_hint().0) + 1` entries.
//!
//! Scores are compared with `f64::total_cmp` (the workspace's NaN-safe
//! ordering convention): NaN sorts below every real score, so a single
//! poisoned score can neither win a slot it does not deserve nor panic
//! the comparator. Ties break toward the earlier item, matching what a
//! stable descending sort of the input would produce.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One heap entry: score plus the item's position in the input, used
/// as the tie-break so equal scores keep first-seen order.
struct Entry<T> {
    score: f64,
    position: usize,
    item: T,
}

impl<T> Entry<T> {
    /// Ranking order: higher score first; on ties, earlier position
    /// first. A real score always outranks NaN (`total_cmp` alone would
    /// put positive NaN above +inf), and NaN-vs-NaN stays deterministic.
    fn rank(&self, other: &Self) -> Ordering {
        other
            .score
            .is_nan()
            .cmp(&self.score.is_nan())
            .then_with(|| self.score.total_cmp(&other.score))
            .then_with(|| other.position.cmp(&self.position))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, and we want the *worst*
        // retained item on top so it is the one a better item evicts.
        other.rank(self)
    }
}

/// Selects the `k` highest-scoring items of `items`, returned in
/// descending score order (ties in first-seen order). `score` is called
/// exactly once per item.
///
/// `k >= n` degenerates to a full descending sort of the input; `k = 0`
/// returns empty without consuming scores.
pub fn top_k_by<T>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    mut score: impl FnMut(&T) -> f64,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    let items = items.into_iter();
    let mut heap: BinaryHeap<Entry<T>> =
        BinaryHeap::with_capacity(k.min(items.size_hint().0).saturating_add(1));
    for (position, item) in items.enumerate() {
        let entry = Entry { score: score(&item), position, item };
        if heap.len() < k {
            heap.push(entry);
        } else if let Some(worst) = heap.peek() {
            if entry.rank(worst) == Ordering::Greater {
                heap.pop();
                heap.push(entry);
            }
        }
    }
    let mut out: Vec<Entry<T>> = heap.into_vec();
    out.sort_unstable_by(|a, b| b.rank(a));
    out.into_iter().map(|e| e.item).collect()
}

/// Top `k` indices of a score slice, descending by score, as
/// `(index, score)` pairs. Convenience wrapper over [`top_k_by`] for
/// the dense-vector case (PageRank, spam-mass vectors).
pub fn top_k_scores(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    top_k_by(scores.iter().copied().enumerate(), k, |&(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sort(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn matches_a_full_sort() {
        let scores = [0.3, 0.9, 0.1, 0.9, 0.5, 0.0, 0.7, 0.2];
        for k in 0..=scores.len() + 2 {
            assert_eq!(top_k_scores(&scores, k), full_sort(&scores, k), "k = {k}");
        }
    }

    #[test]
    fn ties_keep_first_seen_order() {
        let scores = [1.0, 2.0, 2.0, 1.0, 2.0];
        let top = top_k_scores(&scores, 3);
        assert_eq!(top, vec![(1, 2.0), (2, 2.0), (4, 2.0)]);
    }

    #[test]
    fn nan_never_wins_a_slot() {
        let scores = [0.1, f64::NAN, 0.3, f64::NAN, 0.2];
        let top = top_k_scores(&scores, 3);
        assert_eq!(top.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![2, 4, 0]);
        // With k over-asking, NaNs fill the tail instead of scrambling it.
        let all = top_k_scores(&scores, 5);
        assert_eq!(all.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![2, 4, 0, 1, 3]);
        assert!(all[3].1.is_nan() && all[4].1.is_nan());
    }

    #[test]
    fn empty_and_zero_k() {
        assert!(top_k_scores(&[], 5).is_empty());
        assert!(top_k_scores(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn huge_k_allocates_for_the_input_not_the_request() {
        let scores = [0.2, 0.7, 0.5];
        for k in [1usize << 40, usize::MAX] {
            assert_eq!(top_k_scores(&scores, k), full_sort(&scores, 3), "k = {k}");
        }
    }

    #[test]
    fn generic_items_with_keyed_scores() {
        let hosts = ["a", "b", "c", "d"];
        let weight = |h: &&str| match *h {
            "a" => 0.2,
            "b" => 0.9,
            "c" => 0.4,
            _ => 0.8,
        };
        assert_eq!(top_k_by(hosts, 2, weight), vec!["b", "d"]);
    }

    #[test]
    fn agrees_with_full_sort_on_larger_random_input() {
        // Deterministic pseudo-random scores (no RNG dep needed).
        let mut x = 0x2545F4914F6CDD1Du64;
        let scores: Vec<f64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000_000) as f64 / 1_000_000.0
            })
            .collect();
        assert_eq!(top_k_scores(&scores, 25), full_sort(&scores, 25));
    }
}
