//! Durability tax: what the write-ahead log costs the metadata hot
//! path, and what group commit buys back.
//!
//! One boxed client hammers the contention bench's all-mutating
//! metadata mix — open/write/seek/read/close/unlink, six syscalls per
//! iteration — against three kernels: volatile (no WAL), durable with
//! group commit (25 ms flusher tick / 65536-op burst backstop, the
//! server default), and durable with sync-every-op (an fsync inside
//! every mutation). The interesting number is the group-commit column:
//! the WAL append is a few hundred nanoseconds of in-memory framing
//! under the shard lock and the fsyncs are paced by the timer, so the
//! durable kernel should stay within a few percent of volatile, while
//! sync-every-op pays the full disk round trip per op and serves as
//! the upper bound on the tax.
//!
//! Emits `results/BENCH_durability.tsv`. Knobs:
//!
//! * `IDBOX_BENCH_WINDOW_MS` — timed window per mode (default 400; a
//!   shorter one is a smoke and writes to `target/` instead).
//! * `IDBOX_BENCH_ROUNDS` — interleaved measurement rounds (default 5).
//! * `IDBOX_BENCH_ASSERT` — when set, require group commit to do what
//!   it exists for: at the server defaults it must log at least
//!   [`MIN_RECORDS_PER_FSYNC`] records per fsync (`WalStats.appends /
//!   fsyncs`). The gate counts, so it holds on any host and any disk;
//!   the wall-clock ratio to the volatile rate is still reported
//!   (`relative_to_off`), but not gated.

use idbox_bench::{median, metadata_mix, metadata_mix_tree};
use idbox_interpose::share;
use idbox_kernel::Kernel;
use idbox_vfs::{WalConfig, WalStats};
use std::path::{Path, PathBuf};

const WINDOW_MS: u64 = 400;

/// Group commit's floor: at the defaults the 25 ms flusher tick gathers
/// thousands of records under one fsync (about 13,000 in a 150 ms
/// smoke). Sync-every-op logs one record per fsync. A 64-op threshold
/// batch logs about 150: appends keep arriving while the flusher
/// fsyncs, so a floor of 100 would let it through.
const MIN_RECORDS_PER_FSYNC: f64 = 1000.0;

/// One durability mode under test.
struct Mode {
    name: &'static str,
    /// `None` = volatile kernel; `Some(sync_ops)` = WAL with that
    /// group-commit batch (0 = fsync every op).
    wal: Option<u64>,
}

fn wal_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("idbox-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Build the mode's kernel with the bench working tree in place.
fn build_kernel(mode: &Mode, dir: &Path) -> Kernel {
    let mut k = match mode.wal {
        Some(sync_ops) => {
            let mut cfg = WalConfig::new(dir.to_path_buf());
            cfg.sync_ops = sync_ops;
            cfg.sync_ms = 25;
            Kernel::with_durability(cfg).expect("WAL dir must be writable").0
        }
        None => Kernel::new(),
    };
    metadata_mix_tree(&mut k, 1);
    k
}

#[cfg(unix)]
extern "C" {
    /// `sync(2)`: flush dirty pages before measuring, so writeback debt
    /// from earlier work (the test suite, prior rounds) is not billed
    /// to whichever mode's window it would land in.
    fn sync();
}

fn settle_disk() {
    #[cfg(unix)]
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe {
        sync()
    };
}

fn main() {
    let run = idbox_bench::Window::from_env(WINDOW_MS);
    let rounds = idbox_bench::env_u64("IDBOX_BENCH_ROUNDS", 5) as usize;
    let modes = [
        Mode { name: "wal-off", wal: None },
        Mode { name: "group-commit", wal: Some(65536) },
        Mode { name: "sync-every-op", wal: Some(0) },
    ];

    // All kernels live at once, measurement windows interleaved
    // round-robin: machine noise (a shared box, a background flush)
    // then lands on every mode roughly equally instead of biasing
    // whichever mode ran while the box was slow. Per-mode rate is the
    // median across rounds. Each round runs the volatile baseline
    // twice — once before the WAL modes, once after — so a round's
    // baseline is the mean of the windows *bracketing* the durable
    // ones and any linear drift across the round (a neighbor VM
    // spinning up, writeback catching up) cancels out of the paired
    // ratio instead of landing on one side of it.
    let kernels: Vec<_> = modes
        .iter()
        .map(|mode| {
            let dir = wal_dir(mode.name);
            let kernel = share(build_kernel(mode, &dir));
            metadata_mix(&kernel, 1, run.warmup());
            (dir, kernel)
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    for _ in 0..rounds {
        settle_disk();
        let rate = |kernel| {
            let (ops, elapsed) = metadata_mix(kernel, 1, run.timed);
            ops as f64 / elapsed.as_secs_f64()
        };
        let off_before = rate(&kernels[0].1);
        let durable: Vec<f64> = kernels[1..].iter().map(|(_, k)| rate(k)).collect();
        let off_after = rate(&kernels[0].1);
        samples[0].push((off_before + off_after) / 2.0);
        for (i, r) in durable.into_iter().enumerate() {
            samples[i + 1].push(r);
        }
    }
    // Median of per-round ratios of mode `i` against the bracketing
    // wal-off windows of the *same* round: adjacent windows share
    // whatever transient state the box is in, so a slow patch cancels
    // out of the ratio instead of skewing one mode.
    let paired_relative = |i: usize| {
        median(
            samples[i]
                .iter()
                .zip(&samples[0])
                .map(|(m, off)| m / off)
                .collect(),
        )
    };
    let mut rows = Vec::new();
    let mut group = None;
    for (i, mode) in modes.iter().enumerate() {
        let rate = median(samples[i].clone());
        let relative = paired_relative(i);
        let (dir, kernel) = &kernels[i];
        let stats: WalStats = kernel
            .read()
            .vfs()
            .wal()
            .map(|w| w.stats())
            .unwrap_or_default();
        if mode.name == "group-commit" {
            group = Some((stats.appends, stats.fsyncs, relative));
        }
        println!(
            "{:>14}: {rate:>10.0} syscalls/s  ({relative:.2}x of wal-off)  \
             {} appends, {} fsyncs, {} KiB logged",
            mode.name,
            stats.appends,
            stats.fsyncs,
            stats.append_bytes / 1024
        );
        rows.push(format!(
            "{}\t{rate:.0}\t{relative:.2}\t{}\t{}\t{}",
            mode.name, stats.appends, stats.fsyncs, stats.append_bytes
        ));
        let _ = std::fs::remove_dir_all(dir);
    }
    drop(kernels);
    idbox_bench::write_tsv(
        "BENCH_durability.tsv",
        run.smoke,
        "mode\tsyscalls_per_sec\trelative_to_off\twal_appends\twal_fsyncs\twal_bytes",
        &rows,
    );
    if idbox_bench::gates_on() {
        let (appends, fsyncs, relative) = group.expect("group-commit mode always runs");
        let per_fsync = appends as f64 / fsyncs.max(1) as f64;
        assert!(
            fsyncs > 0 && per_fsync >= MIN_RECORDS_PER_FSYNC,
            "group commit logged {appends} records in {fsyncs} fsyncs ({per_fsync:.1} per \
             fsync; want >= {MIN_RECORDS_PER_FSYNC} and at least one fsync)"
        );
        println!(
            "durability assertion passed: group commit logs {per_fsync:.0} records per fsync \
             ({relative:.2}x of wal-off, not gated)"
        );
    }
}
