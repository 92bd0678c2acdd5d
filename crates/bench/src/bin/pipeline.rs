//! Single-connection metadata throughput: serial vs pipelined vs batch.
//!
//! Wire protocol v1 was strict request/response, so one connection's
//! metadata rate was capped at one round trip per operation no matter
//! how fast the server got. Protocol gen 2 breaks the cap two ways:
//! pipelining (many in-flight frames, `id=`-correlated replies) and the
//! `batch` RPC (many sub-operations in one frame). This bench drives
//! one authenticated connection with a pure `stat` workload in each
//! mode and reports operations per second, plus the speedup over the
//! serial baseline, into `results/BENCH_pipeline.tsv`.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin pipeline
//! ```
//!
//! Each mode also reports *where the time went* on the server: the
//! event-loop lag histogram is diffed around the mode's window, so the
//! `loop_p99_us` column says how long one readiness cycle ran — the
//! number that separates "the wire is the bottleneck" (tiny cycles,
//! many round trips) from "dispatch is" (few cycles, each doing real
//! work).
//!
//! The same window diff counts the server's event-loop wakeups and
//! coalesced flushes per completed operation, printed on stdout.
//! Those counts are what pipelining exists to cut: a serial client
//! costs the server about one wakeup and one flush per request, a
//! depth-`d` burst about `1/d` of each, on any number of cores.
//!
//! Knobs: `IDBOX_BENCH_WINDOW_MS` shrinks the per-mode measurement
//! window (CI smoke; a window under the full 1500 ms writes to
//! `target/` instead of `results/`). The sweep runs pipeline depths 4,
//! 16 and 64. With `IDBOX_BENCH_ASSERT` set, the run fails unless, at every
//! depth >= 16, server wakeups per request and flushes per request are
//! each at most 1/5 of serial's. The gate reads counts, not wall
//! clock, so it holds on every host; the wall-clock speedup stays a
//! reported column.

use idbox_bench::{bench_server, connect};
use idbox_chirp::{BatchOp, ChirpClient, ChirpServerHandle};
use idbox_obs::LOOP_LAG_BUCKETS;
use parking_lot::histogram;
use std::time::{Duration, Instant};

const WINDOW_MS: u64 = 1500;
const FILE: &str = "/bench/data.dat";
/// Pipeline depths swept; the gate reads the depths >= 16.
const DEPTHS: [usize; 3] = [4, 16, 64];

/// Serial baseline: one `stat` per round trip, v1 style. Returns the
/// operations completed.
fn run_serial(c: &mut ChirpClient, window: Duration) -> u64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < window {
        c.stat(FILE).unwrap();
        ops += 1;
    }
    ops
}

/// Pipelined: bursts of `depth` stats per round trip.
fn run_pipelined(c: &mut ChirpClient, depth: usize, window: Duration) -> u64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < window {
        let mut p = c.pipeline();
        for _ in 0..depth {
            p.stat(FILE);
        }
        for r in p.run().unwrap() {
            r.result.unwrap();
            ops += 1;
        }
    }
    ops
}

/// Batched: `depth` stat sub-operations per single `batch` frame.
fn run_batched(c: &mut ChirpClient, depth: usize, window: Duration) -> u64 {
    let ops_tmpl: Vec<BatchOp> = (0..depth)
        .map(|_| BatchOp::Stat(FILE.to_string()))
        .collect();
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < window {
        for r in c.batch(&ops_tmpl).unwrap() {
            r.stat().unwrap();
            ops += 1;
        }
    }
    ops
}

/// The server's loop counters, summed over its workers.
fn loop_counters(handle: &ChirpServerHandle) -> (u64, u64, [u64; LOOP_LAG_BUCKETS]) {
    let loops = handle.loop_stats();
    (
        loops.workers().iter().map(|w| w.wakeups()).sum(),
        loops.workers().iter().map(|w| w.flushes()).sum(),
        loops.lag_buckets(),
    )
}

/// One mode's timed window: operations completed, and what they cost
/// the server's event loop.
struct Window {
    rate: f64,
    wakeups_per_op: f64,
    flushes_per_op: f64,
    /// Loop-lag p99 over the window, µs (`-` when no cycle ran).
    lag_p99: String,
}

impl Window {
    /// Run `mode` and diff the server's loop counters around it.
    fn measure(handle: &ChirpServerHandle, mode: impl FnOnce() -> u64) -> Window {
        let (wakeups0, flushes0, lag0) = loop_counters(handle);
        let t0 = Instant::now();
        let ops = mode();
        let secs = t0.elapsed().as_secs_f64();
        let (wakeups, flushes, lag) = loop_counters(handle);
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        Window {
            rate: ops as f64 / secs,
            wakeups_per_op: per_op(wakeups - wakeups0),
            flushes_per_op: per_op(flushes - flushes0),
            lag_p99: histogram::percentile(&histogram::diff(&lag, &lag0), 99.0)
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
        }
    }

    fn counts(&self) -> String {
        format!(
            "wakeups/op {:.3}, flushes/op {:.3}, loop p99 {} us",
            self.wakeups_per_op, self.flushes_per_op, self.lag_p99
        )
    }
}

fn main() {
    let cores = idbox_bench::host_cores();
    let run = idbox_bench::Window::from_env(WINDOW_MS);
    let (window, warmup) = (run.timed, run.warmup());

    let (handle, ca) = bench_server("pipeline", |_| {});
    let mut c = connect(handle.addr(), &ca, "Fred");
    c.mkdir("/bench", 0o755).unwrap();
    c.put(FILE, &vec![7u8; 4096]).unwrap();

    let mut rows = Vec::new();
    // Warm the caches and the session before the serial baseline so
    // every mode is compared warm-on-warm.
    run_serial(&mut c, warmup);
    let serial = Window::measure(&handle, || run_serial(&mut c, window));
    println!(
        "serial        : {:>10.0} ops/s  (baseline; {})",
        serial.rate,
        serial.counts()
    );
    rows.push(format!(
        "serial\t1\t{:.0}\t1.00\t{}\t{cores}",
        serial.rate, serial.lag_p99
    ));

    // Depths >= 16 whose wakeups or flushes per request did not drop
    // to a fifth of serial's.
    let mut misses = Vec::new();
    for depth in DEPTHS {
        run_pipelined(&mut c, depth, warmup);
        let w = Window::measure(&handle, || run_pipelined(&mut c, depth, window));
        let speedup = w.rate / serial.rate;
        println!(
            "pipeline d={depth:<3}: {:>10.0} ops/s  ({speedup:.2}x serial; {})",
            w.rate,
            w.counts()
        );
        rows.push(format!(
            "pipeline\t{depth}\t{:.0}\t{speedup:.2}\t{}\t{cores}",
            w.rate, w.lag_p99
        ));
        if depth >= 16
            && (w.wakeups_per_op > serial.wakeups_per_op / 5.0
                || w.flushes_per_op > serial.flushes_per_op / 5.0)
        {
            misses.push(format!("depth {depth}: {}", w.counts()));
        }
    }

    let batch_depth = 64;
    run_batched(&mut c, batch_depth, warmup);
    let w = Window::measure(&handle, || run_batched(&mut c, batch_depth, window));
    let speedup = w.rate / serial.rate;
    println!(
        "batch    n={batch_depth:<2}: {:>10.0} ops/s  ({speedup:.2}x serial; {})",
        w.rate,
        w.counts()
    );
    rows.push(format!(
        "batch\t{batch_depth}\t{:.0}\t{speedup:.2}\t{}\t{cores}",
        w.rate, w.lag_p99
    ));

    if cores < 2 {
        println!("note: only {cores} core(s) available; client and server are core-bound");
    }
    // Optional regression gate: pipelining must actually coalesce the
    // server's per-request work.
    if idbox_bench::gates_on() {
        assert!(
            misses.is_empty(),
            "pipelining failed to coalesce server work: serial {}; over 1/5 of it at {}",
            serial.counts(),
            misses.join("; ")
        );
        println!(
            "pipeline assertion passed: wakeups and flushes per request <= 1/5 of serial \
             at every depth >= 16"
        );
    }

    idbox_bench::write_tsv(
        "BENCH_pipeline.tsv",
        run.smoke,
        "mode\tdepth\tops_per_sec\tspeedup_vs_serial\tloop_p99_us\thost_cores",
        &rows,
    );
    let _ = c.quit();
    handle.shutdown();
}
