//! Runtime health instruments: per-worker event-loop statistics and
//! the Prometheus rendering of the new self-observation families
//! (shard-lock waits, loop lag, flush/wakeup counters, gauges).
//!
//! The event loop bumps these through `&self` relaxed atomics — no
//! lock is ever taken on a readiness cycle. Rendering walks the same
//! atomics, so a scrape observes a consistent-enough point-in-time
//! view without stopping any worker.

use crate::escape_label;
use parking_lot::histogram::{self, Log2Histogram};
use parking_lot::DomainLockSnapshot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 microsecond buckets in a worker's loop-lag histogram.
pub const LOOP_LAG_BUCKETS: usize = 22;

/// Append one Prometheus histogram series: cumulative `_bucket` lines
/// for every finite edge plus `+Inf` (the open top bucket shows only
/// there), then `_sum` and `_count`. `labels` is the series' label set
/// without braces, e.g. `worker="0"`.
fn write_histogram<const N: usize>(
    out: &mut String,
    name: &str,
    labels: &str,
    buckets: &[u64; N],
    sum: u64,
) {
    let mut cum = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        cum += n;
        if i + 1 < N {
            let le = histogram::bucket_ceiling::<N>(i);
            let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
        }
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
    let _ = writeln!(out, "{name}_count{{{labels}}} {cum}");
}

/// Health counters for one event-loop worker.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Readiness-cycle duration histogram (poll return → all ready
    /// connections serviced and flushed), µs.
    lag: Log2Histogram<LOOP_LAG_BUCKETS>,
    lag_total_us: AtomicU64,
    wakeups: AtomicU64,
    flushes: AtomicU64,
    conns: AtomicU64,
    outbuf_hw: AtomicU64,
    stalls: AtomicU64,
}

impl WorkerStats {
    /// Record one readiness cycle that ran `us` microseconds.
    pub fn record_lag_us(&self, us: u64) {
        self.lag.record(us);
        self.lag_total_us.fetch_add(us, Relaxed);
    }

    /// Count one poll return that reported readiness.
    pub fn bump_wakeup(&self) {
        self.wakeups.fetch_add(1, Relaxed);
    }

    /// Count one coalesced flush (a cycle-end write burst).
    pub fn bump_flush(&self) {
        self.flushes.fetch_add(1, Relaxed);
    }

    /// Count one tripped stall watchdog.
    pub fn bump_stall(&self) {
        self.stalls.fetch_add(1, Relaxed);
    }

    /// Publish the worker's current connection count.
    pub fn set_conns(&self, n: usize) {
        self.conns.store(n as u64, Relaxed);
    }

    /// Raise the output-buffer high watermark to `bytes` if higher.
    pub fn note_outbuf(&self, bytes: usize) {
        self.outbuf_hw.fetch_max(bytes as u64, Relaxed);
    }

    /// Poll returns that reported readiness.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Relaxed)
    }

    /// Coalesced flush bursts.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Relaxed)
    }

    /// Stall watchdog trips.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Relaxed)
    }

    /// Current connection count.
    pub fn conns(&self) -> u64 {
        self.conns.load(Relaxed)
    }

    /// Output-buffer high watermark, bytes.
    pub fn outbuf_hw(&self) -> u64 {
        self.outbuf_hw.load(Relaxed)
    }
}

/// Health counters for a pool of event-loop workers.
#[derive(Debug)]
pub struct LoopStats {
    workers: Box<[WorkerStats]>,
}

impl LoopStats {
    /// Stats for `n` workers (at least 1).
    pub fn new(n: usize) -> LoopStats {
        LoopStats {
            workers: (0..n.max(1)).map(|_| WorkerStats::default()).collect(),
        }
    }

    /// Per-worker stats, indexed by worker id.
    pub fn worker(&self, i: usize) -> &WorkerStats {
        &self.workers[i]
    }

    /// All workers.
    pub fn workers(&self) -> &[WorkerStats] {
        &self.workers
    }

    /// The merged loop-lag histogram across workers — snapshot before
    /// and after a window and [`histogram::diff`] them to isolate the
    /// window's cycles; [`histogram::percentile`] reads it.
    pub fn lag_buckets(&self) -> [u64; LOOP_LAG_BUCKETS] {
        let mut merged = [0u64; LOOP_LAG_BUCKETS];
        for w in self.workers.iter() {
            histogram::merge(&mut merged, &w.lag.load());
        }
        merged
    }

    /// Connections currently owned across all workers.
    pub fn conns_total(&self) -> u64 {
        self.workers.iter().map(|w| w.conns()).sum()
    }

    /// Stall watchdog trips across all workers.
    pub fn stalls_total(&self) -> u64 {
        self.workers.iter().map(|w| w.stalls()).sum()
    }

    /// Render the event-loop families in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE idbox_loop_lag_us histogram\n");
        for (i, w) in self.workers.iter().enumerate() {
            write_histogram(
                &mut out,
                "idbox_loop_lag_us",
                &format!("worker=\"{i}\""),
                &w.lag.load(),
                w.lag_total_us.load(Relaxed),
            );
        }
        for (name, get) in [
            (
                "idbox_loop_wakeups_total",
                &(|w: &WorkerStats| w.wakeups()) as &dyn Fn(&WorkerStats) -> u64,
            ),
            ("idbox_loop_flushes_total", &|w: &WorkerStats| w.flushes()),
            ("idbox_loop_stalls_total", &|w: &WorkerStats| w.stalls()),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            for (i, w) in self.workers.iter().enumerate() {
                let _ = writeln!(out, "{name}{{worker=\"{i}\"}} {}", get(w));
            }
        }
        out.push_str("# TYPE idbox_loop_connections gauge\n");
        for (i, w) in self.workers.iter().enumerate() {
            let _ = writeln!(out, "idbox_loop_connections{{worker=\"{i}\"}} {}", w.conns());
        }
        out.push_str("# TYPE idbox_loop_outbuf_high_watermark_bytes gauge\n");
        for (i, w) in self.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "idbox_loop_outbuf_high_watermark_bytes{{worker=\"{i}\"}} {}",
                w.outbuf_hw()
            );
        }
        out
    }
}

/// Render the shard-lock families from a [`parking_lot::lock_snapshot`]
/// in Prometheus text format: per-shard acquisition/wait counters and
/// the contended-wait histogram, keyed by `domain` and `shard`.
pub fn render_lock_prometheus(snaps: &[DomainLockSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("# TYPE idbox_shard_lock_acquisitions_total counter\n");
    for d in snaps {
        for (i, s) in d.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "idbox_shard_lock_acquisitions_total{{domain=\"{}\",shard=\"{i}\"}} {}",
                escape_label(d.domain),
                s.acquisitions
            );
        }
    }
    out.push_str("# TYPE idbox_shard_lock_waits_total counter\n");
    for d in snaps {
        for (i, s) in d.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "idbox_shard_lock_waits_total{{domain=\"{}\",shard=\"{i}\"}} {}",
                escape_label(d.domain),
                s.waits
            );
        }
    }
    out.push_str("# TYPE idbox_shard_lock_wait_us histogram\n");
    for d in snaps {
        for (i, s) in d.shards.iter().enumerate() {
            write_histogram(
                &mut out,
                "idbox_shard_lock_wait_us",
                &format!("domain=\"{}\",shard=\"{i}\"", escape_label(d.domain)),
                &s.buckets,
                s.wait_total_us,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::ShardLockSnapshot;

    #[test]
    fn loop_stats_render_and_merge() {
        let ls = LoopStats::new(2);
        ls.worker(0).bump_wakeup();
        ls.worker(0).bump_flush();
        ls.worker(0).record_lag_us(50);
        ls.worker(1).record_lag_us(5_000);
        ls.worker(1).set_conns(3);
        ls.worker(1).note_outbuf(9000);
        ls.worker(1).note_outbuf(100); // watermark does not regress
        ls.worker(1).bump_stall();
        assert_eq!(ls.conns_total(), 3);
        assert_eq!(ls.stalls_total(), 1);
        assert_eq!(histogram::percentile(&ls.lag_buckets(), 99.0), Some(8191));
        let text = ls.render_prometheus();
        assert!(text.contains("idbox_loop_lag_us_bucket{worker=\"0\",le=\"63\"} 1"));
        assert!(text.contains("idbox_loop_lag_us_bucket{worker=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("idbox_loop_lag_us_sum{worker=\"1\"} 5000"));
        assert!(text.contains("idbox_loop_wakeups_total{worker=\"0\"} 1"));
        assert!(text.contains("idbox_loop_flushes_total{worker=\"0\"} 1"));
        assert!(text.contains("idbox_loop_connections{worker=\"1\"} 3"));
        assert!(text.contains("idbox_loop_outbuf_high_watermark_bytes{worker=\"1\"} 9000"));
        assert!(text.contains("idbox_loop_stalls_total{worker=\"1\"} 1"));
    }

    #[test]
    fn lock_render_has_families_and_escapes() {
        let mut buckets = [0u64; parking_lot::LOCK_WAIT_BUCKETS];
        buckets[1] = 2;
        let shard = ShardLockSnapshot {
            acquisitions: 10,
            waits: 2,
            wait_total_us: 30,
            buckets,
        };
        let snap = DomainLockSnapshot {
            domain: "vfs",
            shards: vec![ShardLockSnapshot::default(), shard],
        };
        let text = render_lock_prometheus(&[snap]);
        assert!(text.contains("idbox_shard_lock_acquisitions_total{domain=\"vfs\",shard=\"1\"} 10"));
        assert!(text.contains("idbox_shard_lock_waits_total{domain=\"vfs\",shard=\"1\"} 2"));
        assert!(text.contains("idbox_shard_lock_wait_us_bucket{domain=\"vfs\",shard=\"1\",le=\"3\"} 2"));
        assert!(text.contains("idbox_shard_lock_wait_us_sum{domain=\"vfs\",shard=\"1\"} 30"));
        assert!(text.contains("idbox_shard_lock_wait_us_count{domain=\"vfs\",shard=\"1\"} 2"));
        assert!(text.contains("idbox_shard_lock_wait_us_bucket{domain=\"vfs\",shard=\"0\",le=\"+Inf\"} 0"));
    }
}
