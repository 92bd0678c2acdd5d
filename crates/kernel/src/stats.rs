//! Per-syscall dispatch counters.
//!
//! The kernel sits behind a reader/writer lock shared by every
//! supervisor and server thread, and read-only calls are dispatched
//! under the *shared* side of that lock. The statistics table therefore
//! cannot be a plain map bumped through `&mut self`: it is a fixed array
//! of atomics, indexed by [`Syscall::slot`], that both dispatch paths
//! update through `&self`.

use crate::syscall::Syscall;
use parking_lot::histogram::{self, Log2Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One counter per syscall name, updatable through a shared borrow.
#[derive(Debug)]
pub struct SyscallStats {
    counts: [AtomicU64; Syscall::NAMES.len()],
}

impl Default for SyscallStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SyscallStats {
    /// All counters at zero.
    pub fn new() -> Self {
        SyscallStats {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one dispatch of `call`.
    pub fn bump(&self, call: &Syscall) {
        self.counts[call.slot()].fetch_add(1, Ordering::Relaxed);
    }

    /// How many times the named call was dispatched (0 for an unknown
    /// name, matching the old map's `get(..).unwrap_or(0)` idiom).
    pub fn count(&self, name: &str) -> u64 {
        match Syscall::NAMES.iter().position(|&n| n == name) {
            Some(slot) => self.counts[slot].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Total dispatches across all calls.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the non-zero counters, for reports.
    pub fn snapshot(&self) -> BTreeMap<&'static str, u64> {
        Syscall::NAMES
            .iter()
            .zip(&self.counts)
            .filter_map(|(&name, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((name, n))
            })
            .collect()
    }
}

impl Clone for SyscallStats {
    fn clone(&self) -> Self {
        let counts =
            std::array::from_fn(|i| AtomicU64::new(self.counts[i].load(Ordering::Relaxed)));
        SyscallStats { counts }
    }
}

/// Number of log-scale latency buckets. Bucket `i` covers durations in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0ns); the top
/// bucket is open from 2^31 ns (~2.1 s) up — wider than any simulated
/// syscall.
pub const LATENCY_BUCKETS: usize = 32;

/// Per-syscall latency histograms with fixed log-scale buckets.
///
/// Same discipline as [`SyscallStats`]: the kernel lives behind a
/// reader/writer lock and read-only calls are dispatched under the
/// shared side, so every cell is an atomic and recording goes through
/// `&self`. Supervisors time each dispatch and record here without
/// holding either side of the kernel lock.
#[derive(Debug)]
pub struct LatencyStats {
    rows: [Log2Histogram<LATENCY_BUCKETS>; Syscall::NAMES.len()],
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// All buckets at zero.
    pub fn new() -> Self {
        LatencyStats {
            rows: std::array::from_fn(|_| Log2Histogram::default()),
        }
    }

    /// Record one dispatch of `call` that took `nanos` nanoseconds.
    pub fn record(&self, call: &Syscall, nanos: u64) {
        self.rows[call.slot()].record(nanos);
    }

    /// A point-in-time, non-atomic copy for percentile math and diffs.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: self.rows.iter().map(Log2Histogram::load).collect(),
        }
    }
}

/// A frozen copy of [`LatencyStats`], one bucket row per syscall name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    buckets: Vec<[u64; LATENCY_BUCKETS]>,
}

impl LatencySnapshot {
    /// Dispatches recorded for the named call (0 for unknown names).
    pub fn count(&self, name: &str) -> u64 {
        match Syscall::NAMES.iter().position(|&n| n == name) {
            Some(slot) => self.buckets[slot].iter().sum(),
            None => 0,
        }
    }

    /// Total dispatches recorded across all calls.
    pub fn total(&self) -> u64 {
        self.buckets.iter().flatten().sum()
    }

    /// The latency (ns) at percentile `p` (0-100] for the named call,
    /// by [`histogram::percentile`]: a bucket ceiling, or "at least"
    /// 2^31 ns when it lands in the open top bucket.
    ///
    /// Returns `None` — never a fabricated number — when the histogram
    /// holds no samples for the call, or when the name is unknown. An
    /// empty histogram has no percentile; callers that need a scalar
    /// must choose their own default (the benches use `unwrap_or(0)`).
    pub fn percentile(&self, name: &str, p: f64) -> Option<u64> {
        let slot = Syscall::NAMES.iter().position(|&n| n == name)?;
        histogram::percentile(&self.buckets[slot], p)
    }

    /// The latency at percentile `p` merged across every syscall.
    /// `None` when no call recorded any sample (same contract as
    /// [`LatencySnapshot::percentile`]).
    pub fn overall_percentile(&self, p: f64) -> Option<u64> {
        let mut merged = [0u64; LATENCY_BUCKETS];
        for row in &self.buckets {
            histogram::merge(&mut merged, row);
        }
        histogram::percentile(&merged, p)
    }

    /// The events recorded between `earlier` and `self`, row by row
    /// through [`histogram::diff`]: a bucket that reads lower in `self`
    /// clamps to 0, so a window may undercount but never explodes.
    pub fn diff(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| histogram::diff(now, then))
                .collect(),
        }
    }

    /// `(name, count, p50 ns, p99 ns)` for every call with data, in
    /// [`Syscall::NAMES`] order. Percentiles are `None` when the row
    /// has a count but no histogram mass (possible across a wrapped
    /// `diff`): dashboards must see "no data", not a false zero.
    pub fn rows(&self) -> Vec<(&'static str, u64, Option<u64>, Option<u64>)> {
        Syscall::NAMES
            .iter()
            .zip(&self.buckets)
            .filter_map(|(&name, row)| {
                let n: u64 = row.iter().sum();
                (n > 0).then(|| {
                    (
                        name,
                        n,
                        histogram::percentile(row, 50.0),
                        histogram::percentile(row, 99.0),
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_count_total() {
        let s = SyscallStats::new();
        s.bump(&Syscall::Getpid);
        s.bump(&Syscall::Getpid);
        s.bump(&Syscall::Stat("/x".into()));
        assert_eq!(s.count("getpid"), 2);
        assert_eq!(s.count("stat"), 1);
        assert_eq!(s.count("write"), 0);
        assert_eq!(s.count("no-such-call"), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn snapshot_skips_zeros() {
        let s = SyscallStats::new();
        s.bump(&Syscall::Fork);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap["fork"], 1);
    }

    #[test]
    fn bumps_through_shared_borrow_from_threads() {
        let s = std::sync::Arc::new(SyscallStats::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.bump(&Syscall::Read(0, 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.count("read"), 4000);
    }

    #[test]
    fn latency_percentiles() {
        let l = LatencyStats::new();
        let snap = l.snapshot();
        assert_eq!(snap.percentile("getpid", 50.0), None);
        assert_eq!(snap.overall_percentile(99.0), None);
        for _ in 0..99 {
            l.record(&Syscall::Getpid, 1_000); // bucket 9, ceiling 1023
        }
        l.record(&Syscall::Getpid, 1_000_000); // bucket 19
        let snap = l.snapshot();
        assert_eq!(snap.count("getpid"), 100);
        assert_eq!(snap.percentile("getpid", 50.0), Some(1023));
        assert_eq!(snap.percentile("getpid", 99.0), Some(1023));
        assert_eq!(snap.percentile("getpid", 100.0), Some((1 << 20) - 1));
        assert!(snap.percentile("getpid", 50.0) <= snap.percentile("getpid", 99.0));
        assert_eq!(snap.percentile("no-such-call", 50.0), None);
    }

    #[test]
    fn latency_diff_and_rows() {
        let l = LatencyStats::new();
        l.record(&Syscall::Getpid, 10);
        let before = l.snapshot();
        l.record(&Syscall::Stat("/x".into()), 100);
        l.record(&Syscall::Stat("/x".into()), 100);
        let delta = l.snapshot().diff(&before);
        assert_eq!(delta.count("getpid"), 0);
        assert_eq!(delta.count("stat"), 2);
        assert_eq!(delta.total(), 2);
        let rows = delta.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "stat");
        assert_eq!(rows[0].1, 2);
    }

    #[test]
    fn empty_histogram_has_no_percentile() {
        let snap = LatencyStats::new().snapshot();
        // No samples anywhere: every percentile form answers None.
        for p in [0.1, 50.0, 99.0, 100.0] {
            assert_eq!(snap.percentile("getpid", p), None);
            assert_eq!(snap.overall_percentile(p), None);
        }
        assert!(snap.rows().is_empty());
        // A call with samples answers; its empty neighbors still don't.
        let l = LatencyStats::new();
        l.record(&Syscall::Getpid, 5);
        let snap = l.snapshot();
        assert!(snap.percentile("getpid", 50.0).is_some());
        assert_eq!(snap.percentile("stat", 50.0), None);
    }

    #[test]
    fn diff_saturates_after_counter_wrap() {
        // Simulate a bucket wrapping between snapshots: "earlier" holds
        // a near-max count, "now" holds a small post-wrap count. The
        // per-bucket delta clamps to 0 (undercounting the window)
        // rather than underflowing to ~2^64.
        let l = LatencyStats::new();
        l.record(&Syscall::Getpid, 1);
        l.record(&Syscall::Getpid, 1);
        l.record(&Syscall::Getpid, 1);
        let earlier = l.snapshot(); // getpid bucket0 = 3
        let now = LatencyStats::new();
        now.record(&Syscall::Getpid, 1); // "wrapped" back down to 1
        now.record(&Syscall::Stat("/x".into()), 100);
        let delta = now.snapshot().diff(&earlier);
        assert_eq!(delta.count("getpid"), 0, "wrapped bucket clamps to 0");
        assert_eq!(delta.count("stat"), 1, "healthy buckets still diff");
        assert_eq!(delta.total(), 1);
        // And the clamped window still has a sane percentile contract.
        assert_eq!(delta.percentile("getpid", 50.0), None);
        assert!(delta.percentile("stat", 50.0).is_some());
    }

    #[test]
    fn rows_after_wrap_report_no_false_zeros() {
        // A wrap that wipes one bucket but leaves another: the row
        // keeps its surviving count and its percentiles come from the
        // surviving mass only. A fully wiped row vanishes from rows()
        // instead of surfacing as count 0 / percentile 0.
        let l = LatencyStats::new();
        for _ in 0..5 {
            l.record(&Syscall::Getpid, 1); // bucket 0
        }
        l.record(&Syscall::Stat("/x".into()), 1);
        let earlier = l.snapshot();
        let now = LatencyStats::new();
        now.record(&Syscall::Getpid, 1); // bucket 0 "wrapped" below earlier
        for _ in 0..3 {
            now.record(&Syscall::Getpid, 1_000_000); // bucket 19 survives
        }
        let delta = now.snapshot().diff(&earlier);
        let rows = delta.rows();
        assert_eq!(rows.len(), 1, "fully wiped stat row is absent");
        let (name, count, p50, p99) = rows[0];
        assert_eq!(name, "getpid");
        assert_eq!(count, 3, "only the surviving bucket counts");
        assert_eq!(p50, Some((1 << 20) - 1));
        assert_eq!(p99, Some((1 << 20) - 1));
    }

    #[test]
    fn latency_records_through_shared_borrow_from_threads() {
        let l = std::sync::Arc::new(LatencyStats::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = std::sync::Arc::clone(&l);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        l.record(&Syscall::Read(0, 1), i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(l.snapshot().count("read"), 4000);
    }
}
