//! Kernel-lock contention bench: disjoint identities, disjoint
//! subtrees, shared kernel.
//!
//! The sharded-kernel success metric. N client threads, each a
//! distinct identity working a private subtree (`/w/c{i}`), hammer one
//! `SharedKernel` through in-kernel supervisors with a metadata-heavy
//! mix — open/write/seek/read/close/unlink — that is *all mutating
//! calls*, the traffic the old monolithic `Arc<RwLock<Kernel>>`
//! serialized completely. With the kernel sharded, clients in disjoint
//! subtrees take disjoint locks, so aggregate throughput should scale
//! with client count on a multi-core host.
//!
//! Each level also reports *where the time went*: the shard-lock
//! profiles (`parking_lot::lock_snapshot`) are diffed around the timed
//! window, giving total acquisitions, how many blocked, total blocked
//! milliseconds, and the p99 contended wait — the numbers that say
//! whether a flat speedup curve is lock contention or something else.
//!
//! Emits `results/BENCH_contention.tsv`. Knobs:
//!
//! * `IDBOX_BENCH_WINDOW_MS` — timed window per level (default 400; a
//!   shorter one is a smoke and writes to `target/` instead).
//! * `IDBOX_BENCH_LEVELS` — comma-separated client counts (default
//!   `1,2,4,8`).
//! * `IDBOX_BENCH_ASSERT` — when set, require `speedup_vs_1`
//!   ≥ 1.5 at 4 clients; skipped (not weakened) on hosts with fewer
//!   than 4 cores, where the ratio cannot mean what it asserts.

use idbox_bench::{metadata_mix, metadata_mix_tree};
use idbox_interpose::share;
use idbox_kernel::Kernel;
use parking_lot::DomainLockSnapshot;

const WINDOW_MS: u64 = 400;

/// Where the time went: per-domain lock-wait deltas across one level,
/// matched by domain name (a domain registered mid-run has no earlier
/// baseline and counts from zero).
fn lock_delta(now: &[DomainLockSnapshot], then: &[DomainLockSnapshot]) -> Vec<DomainLockSnapshot> {
    now.iter()
        .map(|d| {
            match then
                .iter()
                .find(|e| e.domain == d.domain && e.shards.len() == d.shards.len())
            {
                Some(e) => d.diff(e),
                None => d.clone(),
            }
        })
        .collect()
}

fn main() {
    let cores = idbox_bench::host_cores();
    let run = idbox_bench::Window::from_env(WINDOW_MS);
    let levels = idbox_bench::env_list("IDBOX_BENCH_LEVELS", &[1, 2, 4, 8]);

    let mut k = Kernel::new();
    metadata_mix_tree(&mut k, levels.iter().copied().max().unwrap_or(1));
    println!(
        "contention bench: {} proc shard(s), {} vfs shard(s), {} core(s)",
        k.proc_shard_count(),
        k.vfs().shard_count(),
        cores
    );
    let kernel = share(k);

    let mut rows = Vec::new();
    let mut single_rate = 0.0f64;
    let mut speedup_at_4 = None;
    for &n in &levels {
        // Untimed warm-up so every level starts with hot caches and
        // settled allocator state.
        metadata_mix(&kernel, n, run.warmup());
        let lock0 = parking_lot::lock_snapshot();
        let (ops, elapsed) = metadata_mix(&kernel, n, run.timed);
        let diffs = lock_delta(&parking_lot::lock_snapshot(), &lock0);
        let rate = ops as f64 / elapsed.as_secs_f64();
        if single_rate == 0.0 {
            single_rate = rate;
        }
        let speedup = rate / single_rate;
        if n == 4 {
            speedup_at_4 = Some(speedup);
        }
        // Where the time went: how many lock acquisitions this level's
        // syscalls made, how many of those actually blocked, and how
        // bad a blocked one got.
        let acq: u64 = diffs.iter().map(|d| d.acquisitions()).sum();
        let waits: u64 = diffs.iter().map(|d| d.waits()).sum();
        let wait_ms = diffs.iter().map(|d| d.wait_total_us()).sum::<u64>() as f64 / 1000.0;
        let p99 = parking_lot::lock_wait_percentile_us(&diffs, 99.0);
        let p99_cell = p99.map_or_else(|| "-".to_string(), |v| v.to_string());
        let contended_pct = if acq > 0 {
            100.0 * waits as f64 / acq as f64
        } else {
            0.0
        };
        println!(
            "{n} clients: {rate:>10.0} syscalls/s  ({speedup:.2}x of single client)  \
             locks: {waits}/{acq} contended ({contended_pct:.2}%), \
             {wait_ms:.1} ms waiting, p99 {p99_cell} us"
        );
        // Single-core hosts cannot show lock scaling: record `-`, not
        // a misleading ~1.0.
        let speedup_cell = if cores >= 2 {
            format!("{speedup:.2}")
        } else {
            "-".to_string()
        };
        rows.push(format!(
            "{n}\t{rate:.0}\t{speedup_cell}\t{acq}\t{waits}\t{wait_ms:.1}\t{p99_cell}\t{cores}"
        ));
    }
    if cores < 2 {
        println!("note: only {cores} core(s) available; client scaling is core-bound");
    }
    idbox_bench::write_tsv(
        "BENCH_contention.tsv",
        run.smoke,
        "clients\tsyscalls_per_sec\tspeedup_vs_1\tlock_acquisitions\tlock_waits\t\
         lock_wait_ms\tlock_wait_p99_us\thost_cores",
        &rows,
    );
    if idbox_bench::gates_on() {
        match speedup_at_4 {
            Some(s) if cores >= 4 => {
                assert!(
                    s >= 1.5,
                    "sharded kernel failed to scale: {s:.2}x at 4 clients \
                     on a {cores}-core host (want >= 1.5x)"
                );
                println!("scaling assertion passed: {s:.2}x at 4 clients");
            }
            Some(_) | None => {
                println!(
                    "scaling assertion skipped: needs a 4-client level and >= 4 cores \
                     (host has {cores})"
                );
            }
        }
    }
}
