//! The workspace's one log2 histogram.
//!
//! Every latency the stack records — per-syscall dispatch time in the
//! kernel (ns, 32 buckets), contended shard-lock waits here (µs, 22)
//! and event-loop cycle lag in `idbox-obs` (µs, 22) — lands in a
//! [`Log2Histogram`]. Bucket `i` holds values whose floor(log2) is `i`
//! (bucket 0 also absorbs 0); the top bucket `N - 1` is open-ended and
//! catches everything from `2^(N-1)` up.
//!
//! Recording is one relaxed `fetch_add`, so a histogram can sit on
//! the hottest path through `&self`. Reading goes through plain
//! `[u64; N]` arrays ([`Log2Histogram::load`]), and the free functions
//! below are the only bucket math in the workspace: index, ceiling,
//! percentile, window diff and merge.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A log2 histogram of `N` relaxed-atomic buckets.
#[derive(Debug)]
pub struct Log2Histogram<const N: usize> {
    buckets: [AtomicU64; N],
}

impl<const N: usize> Default for Log2Histogram<N> {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl<const N: usize> Log2Histogram<N> {
    /// Count one sample of value `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of::<N>(v)].fetch_add(1, Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }
}

/// The bucket a value of `v` falls in: floor(log2(v)), with 0 in
/// bucket 0 and everything past the top clamped into bucket `N - 1`.
#[inline]
pub fn bucket_of<const N: usize>(v: u64) -> usize {
    ((63 - (v | 1).leading_zeros()) as usize).min(N - 1)
}

/// Inclusive upper edge of bucket `i`: `2^(i+1) - 1`. The top bucket
/// is open, so its edge is `u64::MAX`; renderers show it only as
/// Prometheus `+Inf`.
pub fn bucket_ceiling<const N: usize>(i: usize) -> u64 {
    if i + 1 >= N {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// The value at percentile `p` (0-100]: walk the buckets until the
/// cumulative count reaches `ceil(p% of total)` and report that
/// bucket's ceiling, an upper bound. A percentile that lands in the
/// open top bucket reports its lower edge `2^(N-1)` instead: the true
/// value is *at least* that. `None` when the histogram is empty.
pub fn percentile<const N: usize>(buckets: &[u64; N], p: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    let i = buckets
        .iter()
        .position(|&n| {
            seen += n;
            seen >= rank
        })
        .unwrap_or(N - 1);
    Some(if i + 1 >= N { 1u64 << (N - 1) } else { bucket_ceiling::<N>(i) })
}

/// The samples recorded between `earlier` and `now`. Each bucket
/// subtracts with `saturating_sub`: a bucket that reads lower in `now`
/// (snapshots out of order, unrelated histograms, or a `u64` wrap in
/// between) clamps to 0, so a window may undercount but never explodes
/// to ~2^64.
pub fn diff<const N: usize>(now: &[u64; N], earlier: &[u64; N]) -> [u64; N] {
    std::array::from_fn(|i| now[i].saturating_sub(earlier[i]))
}

/// Add `from`'s counts into `into`, bucket by bucket.
pub fn merge<const N: usize>(into: &mut [u64; N], from: &[u64; N]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket edges and the top-bucket rule at both widths in use
    /// (22 for µs waits and loop lag, 32 for ns syscall latency).
    fn edges<const N: usize>() {
        assert_eq!(bucket_of::<N>(0), 0);
        assert_eq!(bucket_of::<N>(1), 0);
        assert_eq!(bucket_of::<N>(2), 1);
        assert_eq!(bucket_of::<N>(3), 1);
        assert_eq!(bucket_of::<N>(1024), 10);
        let top = 1u64 << (N - 1);
        assert_eq!(bucket_of::<N>(top - 1), N - 2);
        assert_eq!(bucket_of::<N>(top), N - 1);
        assert_eq!(bucket_of::<N>(u64::MAX), N - 1);
        assert_eq!(bucket_ceiling::<N>(0), 1);
        assert_eq!(bucket_ceiling::<N>(10), 2047);
        assert_eq!(bucket_ceiling::<N>(N - 2), top - 1);
        assert_eq!(bucket_ceiling::<N>(N - 1), u64::MAX);

        let h = Log2Histogram::<N>::default();
        assert_eq!(percentile(&h.load(), 99.0), None);
        h.record(top - 1);
        assert_eq!(percentile(&h.load(), 100.0), Some(top - 1));
        // A sample in the open top bucket reads as its lower edge,
        // however large it was.
        h.record(u64::MAX);
        assert_eq!(percentile(&h.load(), 50.0), Some(top - 1));
        assert_eq!(percentile(&h.load(), 100.0), Some(top));
    }

    #[test]
    fn edges_and_top_bucket_rule() {
        edges::<22>();
        edges::<32>();
    }

    #[test]
    fn diff_saturates_and_merge_adds() {
        let h = Log2Histogram::<4>::default();
        h.record(1);
        h.record(5);
        let before = h.load();
        h.record(5);
        assert_eq!(diff(&h.load(), &before), [0, 0, 1, 0]);
        // A "later" snapshot reading lower clamps to zero.
        assert_eq!(diff(&before, &h.load()), [0; 4]);
        let mut m = before;
        merge(&mut m, &h.load());
        assert_eq!(m, [2, 0, 3, 0]);
    }
}
