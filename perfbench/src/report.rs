//! The metric tables and the result line.
//!
//! Every workload fills every metric of the table its mode prints, so
//! the set of names never depends on the workload or the seed. The
//! names and units here are the ones `BENCHMARK.json` declares.

use crate::util;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("ops_s", "ops/s"),
    ("mib_s", "MiB/s"),
    ("build_ms", "ms"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("interpose.traps", "count"),
    ("interpose.words_per_trap", "words"),
    ("interpose.channel_bytes", "bytes"),
    ("interpose.switch_ns", "ns"),
    ("interpose.mech_ns", "ns"),
    ("interpose.getpid_ns", "ns"),
    ("interpose.stat_ns", "ns"),
    ("interpose.pread1_ns", "ns"),
    ("interpose.pread8k_ns", "ns"),
    ("interpose.fixed_ns", "ns"),
    ("interpose.per_kib_ns", "ns"),
    ("interpose.slowdown_x", "x"),
    ("kernel.getpid_ns", "ns"),
    ("kernel.stat_ns", "ns"),
    ("kernel.pread1_ns", "ns"),
    ("kernel.pread8k_ns", "ns"),
    ("kernel.direct_build_ms", "ms"),
    ("kernel.syscalls_per_op", "count"),
    ("core.policy_ns", "ns"),
    ("core.verdict_hit", "ratio"),
    ("core.checks_per_op", "count"),
    ("core.denials_per_op", "count"),
    ("vfs.dentry_hit", "ratio"),
    ("vfs.extents_us_per_mib", "us"),
    ("wal.append_ns", "ns"),
    ("wal.append_us_per_mib", "us"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.records_per_fsync", "count"),
    ("wal.snapshots", "count"),
    ("wal.fsync_ms", "ms"),
    ("wal.snapshot_ms", "ms"),
    ("wal.replay_s", "s"),
    ("chirp.inproc_read_us", "us"),
    ("chirp.inproc_write_us", "us"),
    ("chirp.wire_us", "us"),
    ("chirp.codec_ns", "ns"),
    ("chirp.wakeups_per_op", "count"),
    ("chirp.flushes_per_op", "count"),
    ("chirp.loop_lag_p99_us", "us"),
    ("chirp.outbuf_hw", "bytes"),
    ("auth.connect_ms", "ms"),
    ("alloc.per_op", "count"),
    ("ledger.rung_gap_pct", "%"),
    ("ledger.wire_gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum Abort {
    /// A request the policy must refuse succeeded.
    FailOpen(String),
    /// Set-up or the harness itself failed.
    Setup(String),
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::FailOpen(what) => write!(f, "fail-open: {what}"),
            Abort::Setup(what) => write!(f, "set-up failed: {what}"),
        }
    }
}

/// Operations attempted and how they went.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
    /// The subset of `failed` that returned a wrong result.
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What the timed phase saw in one window: one boxed build in
/// box-make, a fixed slice of wall time in the Chirp workloads.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub wall_s: f64,
    /// Process CPU time spent in the window.
    pub cpu_s: f64,
    /// Ops completed: boxed syscalls or RPCs.
    pub ops: u64,
    /// Bytes moved: channel bytes or payload bytes.
    pub bytes: u64,
    /// Read and write latencies, µs.
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
    /// Wall time of each whole unit (build or round) in the window, ms.
    pub units: Vec<f64>,
}

/// Share of windows, the fastest by op rate, that the end-to-end
/// metrics are computed over. The host's load only ever slows a
/// window down, so the fastest windows are the ones it disturbed
/// least.
pub const KEEP: f64 = 0.25;

/// The `KEEP` fastest windows (at least one), pooled, and how many
/// that was.
pub fn fastest(windows: &[Window]) -> (Window, usize) {
    let mut ranked: Vec<&Window> = windows.iter().collect();
    ranked.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let keep = ((windows.len() as f64 * KEEP).ceil() as usize).max(1);
    let mut pool = Window::default();
    for w in ranked.into_iter().take(keep) {
        pool.wall_s += w.wall_s;
        pool.cpu_s += w.cpu_s;
        pool.ops += w.ops;
        pool.bytes += w.bytes;
        pool.reads.extend_from_slice(&w.reads);
        pool.writes.extend_from_slice(&w.writes);
        pool.units.extend_from_slice(&w.units);
    }
    (pool, keep.min(windows.len()))
}

fn rate(w: &Window) -> f64 {
    w.ops as f64 / w.wall_s.max(1e-9)
}

/// Median of the `KEEP` smallest samples (at least one); 0 when empty.
pub fn fast_median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(((v.len() as f64 * KEEP).ceil() as usize).max(1));
    util::median(&v)
}

/// One run's outcome: the tally, every metric value, and the notes
/// printed above the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Every end-to-end metric: `setup_s` as given, the rest over the
    /// fastest windows of the timed phase.
    pub fn set_end_to_end(&mut self, setup_s: f64, windows: &[Window]) {
        let (mut w, kept) = fastest(windows);
        let wall = w.wall_s.max(1e-9);
        self.set("setup_s", setup_s);
        self.set("cpu_us_per_op", w.cpu_s * 1e6 / w.ops.max(1) as f64);
        self.set("ops_s", w.ops as f64 / wall);
        self.set("mib_s", w.bytes as f64 / (1 << 20) as f64 / wall);
        self.set("build_ms", util::median(&w.units));
        self.set("read_p50_us", util::percentile(&mut w.reads, 50.0));
        self.set("read_p99_us", util::percentile(&mut w.reads, 99.0));
        self.set("write_p50_us", util::percentile(&mut w.writes, 50.0));
        self.set("write_p99_us", util::percentile(&mut w.writes, 99.0));
        self.note(format!(
            "end-to-end metrics over the fastest {} of {} windows ({:.2} s): {} ops, {} units, \
             {} read and {} write samples",
            kept,
            windows.len(),
            w.wall_s,
            w.ops,
            w.units.len(),
            w.reads.len(),
            w.writes.len()
        ));
    }

    /// The table this mode prints.
    pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line. Fails on a missing or non-finite metric, which
    /// is a bug in the benchmark, not a property of the system.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in Self::table(trace) {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.wrong == 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        ))
    }
}
