//! Layer probes every traced run makes, whatever the workload: each
//! times calls into one layer's public functions from outside.
//!
//! * interpose / kernel: the Figure 5(a) cases, boxed vs direct.
//! * wal: appends of the chirp-meta record mix and of 1 MiB writes on a
//!   standalone log, and `Wal::sync` after a batch.
//! * vfs: `Vfs::file_extents` over a 1 MiB file.

use crate::report::{Abort, Report};
use crate::rung::{self, Rung};
use crate::util::{self, Scratch};
use crate::Config;
use idbox_interpose::GuestCtx;
use idbox_vfs::{Cred, Wal, WalConfig, WalRecordRef};
use idbox_workloads::micro::{self, MicroCase};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// How far the calibrated rung of the ladder may sit from the boxed
/// `build_ms` of the same run, in percent of `build_ms`.
pub const RUNG_TOLERANCE_PCT: f64 = 15.0;

/// How far in-process latency plus a null round trip may sit from the
/// end-to-end read latency, in percent of the latter.
pub const WIRE_TOLERANCE_PCT: f64 = 35.0;

/// Iterations per timed batch of a Figure 5(a) case, at scale 1.
const MICRO_ITERS: f64 = 20_000.0;

/// Nanoseconds per call of one Figure 5(a) case: median of 5 batches
/// after a warm-up, on a fresh kernel and box.
fn micro_ns(case: MicroCase, rung: Rung, iters: u64) -> Result<f64, Abort> {
    let kernel = crate::boxmake::fresh_kernel();
    let (_b, mut sup, pid) = rung::boxed(&kernel, crate::boxmake::IDENTITY, rung, "micro")
        .map_err(|e| Abort::Setup(format!("micro box: {e:?}")))?;
    let mut ctx = GuestCtx::new(&mut sup, pid);
    micro::prepare(&mut ctx);
    black_box(micro::run_case(&mut ctx, case, iters / 10));
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(micro::run_case(&mut ctx, case, iters));
        batches.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    Ok(util::median(&batches))
}

fn micro_probe(scale: f64, rep: &mut Report) -> Result<(), Abort> {
    let iters = ((MICRO_ITERS * scale) as u64).max(200);
    let cases = [
        (MicroCase::Getpid, "interpose.getpid_ns", "kernel.getpid_ns"),
        (MicroCase::Stat, "interpose.stat_ns", "kernel.stat_ns"),
        (MicroCase::Read1, "interpose.pread1_ns", "kernel.pread1_ns"),
        (
            MicroCase::Read8k,
            "interpose.pread8k_ns",
            "kernel.pread8k_ns",
        ),
    ];
    let mut extra = [0.0; 4];
    for (i, (case, boxed_name, direct_name)) in cases.into_iter().enumerate() {
        let boxed = micro_ns(case, Rung::Calibrated, iters)?;
        let direct = micro_ns(case, Rung::Direct, iters)?;
        rep.set(boxed_name, boxed);
        rep.set(direct_name, direct);
        extra[i] = boxed - direct;
    }
    // Section 7's model: a fixed cost per trap plus a per-byte channel
    // copy, fitted through the 1-byte and 8 KiB reads.
    let per_kib = (extra[3] - extra[2]) / (8191.0 / 1024.0);
    rep.set("interpose.per_kib_ns", per_kib);
    rep.set("interpose.fixed_ns", extra[2] - per_kib / 1024.0);
    Ok(())
}

/// The chirp-meta mutation mix as WAL records: create, 1 KiB write,
/// rename, unlink, mkdir, rmdir, truncate.
fn meta_record<'a>(i: u64, name: &'a str, data: &'a [u8]) -> WalRecordRef<'a> {
    let ino = 1000 + i;
    match i % 7 {
        0 => WalRecordRef::Create {
            dir: 2,
            name,
            ino,
            mode: 0o644,
            uid: 1000,
            gid: 1000,
            now: i,
        },
        1 => WalRecordRef::Write {
            ino,
            off: 0,
            data,
            now: i,
        },
        2 => WalRecordRef::Rename {
            odir: 2,
            oname: name,
            ndir: 3,
            nname: name,
            src: ino,
            replaced: 0,
            replaced_is_dir: false,
            src_is_dir: false,
            now: i,
        },
        3 => WalRecordRef::Unlink {
            dir: 3,
            name,
            target: ino,
            now: i,
        },
        4 => WalRecordRef::Mkdir {
            dir: 2,
            name,
            ino,
            mode: 0o755,
            uid: 1000,
            gid: 1000,
            now: i,
        },
        5 => WalRecordRef::Rmdir {
            dir: 2,
            name,
            target: ino,
            now: i,
        },
        _ => WalRecordRef::Truncate {
            ino,
            len: 1024,
            now: i,
        },
    }
}

fn wal_probe(scratch: &Scratch, rep: &mut Report) -> Result<(), Abort> {
    let io = |e: std::io::Error| Abort::Setup(format!("wal probe: {e}"));
    let (wal, _) = Wal::open(WalConfig::new(scratch.path("probe-wal"))).map_err(io)?;
    let wal = Arc::new(wal);
    wal.start_flusher();
    let kib = [0x5Au8; 1024];
    let records: Vec<WalRecordRef<'_>> = (0..7)
        .map(|i| meta_record(i, "f00000123.dat", &kib))
        .collect();
    let mut append_ns = Vec::new();
    let mut fsync_ms = Vec::new();
    for batch in 0..10 {
        let t = Instant::now();
        for i in 0..2000 {
            wal.append(records[(batch * 2000 + i) % records.len()]);
        }
        append_ns.push(t.elapsed().as_secs_f64() * 1e9 / 2000.0);
        let t = Instant::now();
        wal.sync();
        fsync_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.set("wal.append_ns", util::median(&append_ns));
    rep.set("wal.fsync_ms", util::median(&fsync_ms));
    let mib = vec![0xA5u8; 1 << 20];
    let mut per_mib = Vec::new();
    for i in 0..16 {
        let t = Instant::now();
        wal.append(WalRecordRef::Write {
            ino: 7,
            off: 0,
            data: &mib,
            now: i,
        });
        per_mib.push(t.elapsed().as_secs_f64() * 1e6);
        if i % 4 == 3 {
            wal.sync();
        }
    }
    rep.set("wal.append_us_per_mib", util::median(&per_mib));
    Ok(())
}

fn extents_probe(rep: &mut Report) -> Result<(), Abort> {
    let kernel = crate::boxmake::fresh_kernel();
    let k = kernel.read();
    let root = k.vfs().root();
    let data = util::Rng::new(1).bytes(1 << 20);
    let ino = k
        .vfs()
        .write_file(root, "/extents.dat", &data, &Cred::ROOT)
        .map_err(|e| Abort::Setup(format!("extents probe: {e:?}")))?;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..200 {
            let x = k
                .vfs()
                .file_extents(ino, 0, 1 << 20)
                .map_err(|e| Abort::Setup(format!("file_extents: {e:?}")))?;
            assert_eq!(x.total, 1 << 20, "file_extents must cover the file");
            black_box(x);
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / 200.0);
    }
    rep.set("vfs.extents_us_per_mib", util::median(&batches));
    Ok(())
}

/// The probes that do not depend on the workload.
pub fn common(cfg: &Config, scratch: &Scratch, rep: &mut Report) -> Result<(), Abort> {
    micro_probe(cfg.scale, rep)?;
    wal_probe(scratch, rep)?;
    extents_probe(rep)
}
