//! `box-make`: the Figure 5(b) `make` build inside an identity box.
//!
//! Every build runs on a fresh volatile kernel and a freshly staged
//! tree: the app's own `prepare`, then every source and header
//! rewritten with bytes drawn from the seed. Boxed builds (the constant
//! calibrated trap cost) alternate with direct builds of the same tree.
//! After each boxed build, a seeded probe stream times single boxed
//! syscalls on the built tree: `pread` as reads, `pwrite` as writes.

use crate::report::{self, Abort, Report, Tally, Window};
use crate::rung::{self, Rung};
use crate::util::{self, Rng};
use crate::{ledger, Config};
use idbox_interpose::{share, GuestCtx, SharedKernel};
use idbox_kernel::{Account, Kernel, OpenFlags};
use idbox_types::TrapCostReport;
use idbox_vfs::WalConfig;
use idbox_workloads::apps::{app_by_name, Scale};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The identity the boxed builds carry.
pub const IDENTITY: &str = "globus:/O=UnivNowhere/CN=Fred";

/// Boxed syscalls in each probe stream.
const PROBE_OPS: usize = 10_000;

/// Open object descriptors the probe stream reads and writes through.
const PROBE_FDS: usize = 8;

/// One build and what was measured around it.
#[derive(Debug, Default, Clone)]
pub struct Build {
    /// Fresh kernel, box, `prepare`, and the seeded rewrite.
    pub setup: Duration,
    /// The app's `run`, wall clock.
    pub wall: Duration,
    /// Process CPU time during `run`.
    pub cpu: Duration,
    pub report: TrapCostReport,
    /// Kernel syscalls dispatched during `run`.
    pub syscalls: u64,
    /// Dentry cache (hits, misses) during `run`.
    pub dentry: (u64, u64),
    /// Policy (checks, denials, verdict hits, verdict misses) during `run`.
    pub policy: [u64; 4],
    /// Allocations during `run` (counted only when tracing).
    pub allocs: u64,
    /// Bytes the build wrote: every object plus the linked binary.
    pub written: u64,
    /// Exit code 0 and one object per source.
    pub ok: bool,
    /// Probe latencies, µs.
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
    pub probe: Tally,
}

fn policy_counters(b: &idbox_core::IdentityBox) -> [u64; 4] {
    let (checks, denials, _, _) = b.stats().snapshot();
    let (hits, misses) = b.stats().verdict_snapshot();
    [checks, denials, hits, misses]
}

/// A fresh volatile kernel with the supervising account.
pub fn fresh_kernel() -> SharedKernel {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new(
            "dthain",
            rung::SUP_CRED.uid,
            rung::SUP_CRED.gid,
        ))
        .expect("fresh kernel has no accounts");
    share(k)
}

/// Rewrite every source and header with seeded bytes of the same
/// length; returns the source paths, sorted.
fn reseed(ctx: &mut GuestCtx<'_>, seed: u64) -> Result<Vec<String>, String> {
    let mut rng = Rng::new(seed);
    let mut sources = Vec::new();
    let mut staged = Vec::new();
    let top = ctx.readdir(".").map_err(|e| format!("readdir .: {e:?}"))?;
    for dir in top {
        if !(dir.name.starts_with("src") || dir.name == "include") {
            continue;
        }
        for f in ctx
            .readdir(&dir.name)
            .map_err(|e| format!("readdir {}: {e:?}", dir.name))?
        {
            if f.name.ends_with(".c") || f.name.ends_with(".h") {
                staged.push(format!("{}/{}", dir.name, f.name));
            }
        }
    }
    staged.sort();
    for path in staged {
        let size = ctx
            .stat(&path)
            .map_err(|e| format!("stat {path}: {e:?}"))?
            .size;
        ctx.write_file(&path, &rng.bytes(size as usize))
            .map_err(|e| format!("rewrite {path}: {e:?}"))?;
        if path.ends_with(".c") {
            sources.push(path);
        }
    }
    Ok(sources)
}

/// One object per source and the linked binary: returns the bytes the
/// build wrote, or `None` when anything is missing.
fn check_outputs(ctx: &mut GuestCtx<'_>, sources: &[String]) -> Option<u64> {
    let mut written = 0;
    for src in sources {
        let obj = format!("{}.o", src.strip_suffix(".c")?);
        written += ctx.stat(&obj).ok()?.size;
    }
    let binary = ctx.stat("parrot.bin").ok()?.size;
    (binary > 0).then_some(written + binary)
}

/// Time single boxed syscalls on the built tree: three 512-byte preads
/// to one 64-byte pwrite. Each class is one syscall, so its percentiles
/// come from one distribution, not from the edge between two.
fn probe(ctx: &mut GuestCtx<'_>, rng: &mut Rng, sources: &[String], b: &mut Build) {
    let objects: Vec<String> = sources.iter().map(|s| s.replace(".c", ".o")).collect();
    let mut fds = Vec::new();
    for _ in 0..PROBE_FDS.min(objects.len()) {
        let obj = &objects[rng.below(objects.len())];
        match ctx.open(obj, OpenFlags::rdwr(), 0) {
            Ok(fd) => fds.push(fd),
            Err(_) => b.probe.failed += 1,
        }
    }
    if fds.is_empty() {
        return;
    }
    let mut buf = vec![0u8; 512];
    let patch = rng.bytes(64);
    for _ in 0..PROBE_OPS {
        b.probe.attempted += 1;
        let fd = fds[rng.below(fds.len())];
        let is_read = rng.below(4) != 0;
        let t = Instant::now();
        let good = if is_read {
            ctx.pread(fd, &mut buf, 0).map(|n| n == buf.len())
        } else {
            ctx.pwrite(fd, &patch, 0).map(|n| n == patch.len())
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        match good {
            Ok(true) if is_read => b.reads.push(us),
            Ok(true) => b.writes.push(us),
            Ok(false) => {
                b.probe.failed += 1;
                b.probe.wrong += 1;
            }
            Err(_) => b.probe.failed += 1,
        }
    }
    for fd in fds {
        let _ = ctx.close(fd);
    }
}

/// Stage a tree on `kernel` and build it once under `rung`.
pub fn build(
    kernel: &SharedKernel,
    rung: Rung,
    seed: u64,
    scale: Scale,
    probe_seed: Option<u64>,
) -> Result<Build, Abort> {
    let app = app_by_name("make").expect("the fig5b suite has make");
    let t0 = Instant::now();
    let setup_err = |e| Abort::Setup(format!("box-make {}: {e:?}", rung.name()));
    let (b, mut sup, pid) = rung::boxed(kernel, IDENTITY, rung, "make").map_err(setup_err)?;
    let mut ctx = GuestCtx::new(&mut sup, pid);
    (app.prepare)(&mut ctx, scale);
    let sources = reseed(&mut ctx, seed).map_err(Abort::Setup)?;
    let mut out = Build {
        setup: t0.elapsed(),
        ..Build::default()
    };
    let report0 = ctx.supervisor().cost_report();
    let syscalls0 = kernel.read().total_syscalls();
    let dentry0 = kernel.read().vfs().dentry_stats();
    let policy0 = policy_counters(&b);
    let allocs0 = util::allocs();
    let cpu0 = util::process_cpu();
    let t = Instant::now();
    let code = (app.run)(&mut ctx, scale);
    out.wall = t.elapsed();
    out.cpu = util::process_cpu().saturating_sub(cpu0);
    out.allocs = util::allocs() - allocs0;
    let report1 = ctx.supervisor().cost_report();
    out.report = TrapCostReport {
        traps: report1.traps - report0.traps,
        switches: report1.switches - report0.switches,
        peeks: report1.peeks - report0.peeks,
        pokes: report1.pokes - report0.pokes,
        channel_bytes: report1.channel_bytes - report0.channel_bytes,
    };
    out.syscalls = kernel.read().total_syscalls() - syscalls0;
    let dentry1 = kernel.read().vfs().dentry_stats();
    out.dentry = (dentry1.0 - dentry0.0, dentry1.1 - dentry0.1);
    let policy1 = policy_counters(&b);
    out.policy = std::array::from_fn(|i| policy1[i] - policy0[i]);
    let written = if code == 0 {
        check_outputs(&mut ctx, &sources)
    } else {
        None
    };
    out.ok = written.is_some();
    out.written = written.unwrap_or(0);
    if let (true, Some(ps)) = (out.ok, probe_seed) {
        probe(&mut ctx, &mut Rng::new(ps), &sources, &mut out);
    }
    ctx.exit(code);
    Ok(out)
}

/// Ops a build counts as: boxed syscalls when interposed, kernel
/// syscalls otherwise.
fn ops_of(b: &Build) -> u64 {
    if b.report.traps > 0 {
        b.report.traps
    } else {
        b.syscalls
    }
}

fn tally_of(b: &Build) -> Tally {
    let ops = ops_of(b);
    let mut t = Tally {
        attempted: ops,
        failed: if b.ok { 0 } else { ops },
        wrong: 0,
    };
    t.add(b.probe);
    t
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The builds of the timed phase.
#[derive(Default)]
pub struct Builds {
    /// Boxed builds under the calibrated cost model, with the probe
    /// stream after each.
    pub boxed: Vec<Build>,
    /// Whether allocation counting was on for the boxed build.
    pub traced: Vec<bool>,
    /// A direct build of the same tree after each boxed build.
    pub direct: Vec<Build>,
    /// Build wall times per rung, in `Rung::ALL` order (traced runs).
    pub rungs: [Vec<f64>; 4],
}

impl Builds {
    /// Build time per rung: the median of its fastest builds, as
    /// `build_ms` is.
    pub fn ladder(&self) -> [f64; 4] {
        std::array::from_fn(|i| report::fast_median(&self.rungs[i]))
    }
}

/// Alternate boxed and direct builds for `cfg.seconds` (at least three
/// pairs). A traced run switches allocation counting on for every other
/// boxed build, so the difference prices the counting, and also builds
/// the tree under one more rung per pair, in rotation, so the ladder is
/// sampled over the same span as `build_ms`.
pub fn builds(cfg: &Config, rep: &mut Report) -> Result<Builds, Abort> {
    let scale = Scale(cfg.scale);
    let mut out = Builds::default();
    let start = Instant::now();
    let mut i = 0u64;
    while i < 3 || start.elapsed().as_secs_f64() < cfg.seconds {
        let tracing = cfg.trace && i % 2 == 1;
        util::count_allocs(tracing);
        let b = build(
            &fresh_kernel(),
            Rung::Calibrated,
            cfg.seed,
            scale,
            Some(cfg.seed ^ i),
        )?;
        util::count_allocs(false);
        let d = build(&fresh_kernel(), Rung::Direct, cfg.seed, scale, None)?;
        rep.tally.add(tally_of(&b));
        rep.tally.add(tally_of(&d));
        if cfg.trace {
            let r = 1 + (i % 3) as usize;
            let l = build(&fresh_kernel(), Rung::ALL[r], cfg.seed, scale, None)?;
            rep.tally.add(tally_of(&l));
            out.rungs[0].push(ms(d.wall));
            out.rungs[r].push(ms(l.wall));
        }
        out.boxed.push(b);
        out.traced.push(tracing);
        out.direct.push(d);
        i += 1;
    }
    Ok(out)
}

pub fn run(cfg: &Config, scratch: &util::Scratch) -> Result<Report, Abort> {
    let mut rep = Report::default();
    let all = builds(cfg, &mut rep)?;
    let (boxed, traced, direct) = (&all.boxed, &all.traced, &all.direct);
    let windows: Vec<Window> = boxed
        .iter()
        .map(|b| Window {
            wall_s: b.wall.as_secs_f64(),
            cpu_s: b.cpu.as_secs_f64(),
            ops: b.report.traps,
            bytes: b.report.channel_bytes,
            reads: b.reads.clone(),
            writes: b.writes.clone(),
            units: vec![ms(b.wall)],
        })
        .collect();
    let setups: Vec<f64> = boxed.iter().map(|b| b.setup.as_secs_f64()).collect();
    rep.set_end_to_end(util::median(&setups), &windows);
    let build_ms = rep.values["build_ms"];
    rep.note(format!(
        "box-make: {} boxed + {} direct builds, {} traps per build",
        boxed.len(),
        direct.len(),
        boxed[0].report.traps
    ));
    if !cfg.trace {
        return Ok(rep);
    }

    // Per-layer ledger. Counters come from the traced boxed builds.
    let ladder = all.ladder();
    let on: Vec<&Build> = boxed
        .iter()
        .zip(traced)
        .filter(|(_, t)| **t)
        .map(|(b, _)| b)
        .collect();
    let off_walls: Vec<f64> = boxed
        .iter()
        .zip(traced)
        .filter(|(_, t)| !**t)
        .map(|(b, _)| ms(b.wall))
        .collect();
    let on_walls: Vec<f64> = on.iter().map(|b| ms(b.wall)).collect();
    rep.set(
        "trace.overhead_pct",
        (util::median(&on_walls) / util::median(&off_walls) - 1.0) * 100.0,
    );
    let sum = |f: &dyn Fn(&Build) -> u64| on.iter().map(|b| f(b)).sum::<u64>() as f64;
    let on_traps = sum(&|b| b.report.traps).max(1.0);
    rep.set("interpose.traps", boxed[0].report.traps as f64);
    rep.set(
        "interpose.words_per_trap",
        sum(&|b| b.report.peeks + b.report.pokes) / on_traps,
    );
    rep.set(
        "interpose.channel_bytes",
        util::median(
            &boxed
                .iter()
                .map(|b| b.report.channel_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let ratios: Vec<f64> = boxed
        .iter()
        .zip(direct)
        .map(|(b, d)| b.wall.as_secs_f64() / d.wall.as_secs_f64())
        .collect();
    rep.set("interpose.slowdown_x", util::median(&ratios));
    let verdicts = sum(&|b| b.policy[2]) + sum(&|b| b.policy[3]);
    rep.set(
        "core.verdict_hit",
        sum(&|b| b.policy[2]) / verdicts.max(1.0),
    );
    rep.set("core.checks_per_op", sum(&|b| b.policy[0]) / on_traps);
    rep.set("core.denials_per_op", sum(&|b| b.policy[1]) / on_traps);
    rep.set("kernel.direct_build_ms", ladder[0]);
    rep.set("kernel.syscalls_per_op", sum(&|b| b.syscalls) / on_traps);
    let lookups = sum(&|b| b.dentry.0) + sum(&|b| b.dentry.1);
    rep.set("vfs.dentry_hit", sum(&|b| b.dentry.0) / lookups.max(1.0));
    rep.set("alloc.per_op", sum(&|b| b.allocs) / on_traps);

    let per_trap = |a: f64, b: f64| (a - b) * 1e6 / boxed[0].report.traps.max(1) as f64;
    rep.set("interpose.switch_ns", per_trap(ladder[3], ladder[2]));
    rep.set("interpose.mech_ns", per_trap(ladder[2], ladder[1]));
    rep.set("core.policy_ns", per_trap(ladder[1], ladder[0]));
    let gap = (ladder[3] - build_ms) / build_ms * 100.0;
    rep.set("ledger.rung_gap_pct", gap.abs());
    rep.note(format!(
        "ladder (ms, {} builds per rung): {}; rungs sum to {:.3} ms vs build_ms {build_ms:.3} ms, \
         {gap:+.1}% (tolerance +/-{}%)",
        all.rungs.iter().map(Vec::len).min().unwrap_or(0),
        Rung::ALL
            .iter()
            .zip(ladder)
            .map(|(r, v)| format!("{} {v:.3}", r.name()))
            .collect::<Vec<_>>()
            .join(", "),
        ladder[3],
        ledger::RUNG_TOLERANCE_PCT
    ));
    durable_probe(cfg, Scale(cfg.scale), scratch, &mut rep)?;
    ledger::common(cfg, scratch, &mut rep)?;
    crate::chirpload::reference_probe(cfg, scratch, &mut rep)?;
    Ok(rep)
}

/// What durability would cost this build: one boxed build on a
/// WAL-backed kernel, a snapshot of the result, and a reopen.
fn durable_probe(
    cfg: &Config,
    scale: Scale,
    scratch: &util::Scratch,
    rep: &mut Report,
) -> Result<(), Abort> {
    let dir = scratch.path("make-wal");
    let io = |e: std::io::Error| Abort::Setup(format!("durable box-make: {e}"));
    let (mut k, _) = Kernel::with_durability(WalConfig::new(&dir)).map_err(io)?;
    k.accounts_mut()
        .add(Account::new(
            "dthain",
            rung::SUP_CRED.uid,
            rung::SUP_CRED.gid,
        ))
        .map_err(|e| Abort::Setup(format!("durable box-make account: {e:?}")))?;
    let kernel = share(k);
    let wal = Arc::clone(kernel.read().vfs().wal().expect("durable kernel has a WAL"));
    let before = wal.stats();
    let b = build(&kernel, Rung::Calibrated, cfg.seed, scale, None)?;
    wal.sync();
    let after = wal.stats();
    let t = Instant::now();
    kernel.read().wal_snapshot().map_err(io)?;
    rep.set("wal.snapshot_ms", ms(t.elapsed()));
    rep.set(
        "wal.bytes_per_user_byte",
        (after.append_bytes - before.append_bytes) as f64 / b.written.max(1) as f64,
    );
    rep.set(
        "wal.records_per_fsync",
        (after.appends - before.appends) as f64 / (after.fsyncs - before.fsyncs).max(1) as f64,
    );
    rep.set("wal.snapshots", (after.snapshots - before.snapshots) as f64);
    drop(kernel);
    let t = Instant::now();
    let (_, report) = Kernel::with_durability(WalConfig::new(&dir)).map_err(io)?;
    rep.set("wal.replay_s", t.elapsed().as_secs_f64());
    if !report.restored {
        return Err(Abort::Setup("durable box-make did not restore".into()));
    }
    Ok(())
}

/// A digest of the seeded tree a build starts from (tests).
#[cfg(test)]
pub fn tree_digest(seed: u64) -> u64 {
    let kernel = fresh_kernel();
    let (_b, mut sup, pid) = rung::boxed(&kernel, IDENTITY, Rung::Direct, "make").unwrap();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    (app_by_name("make").unwrap().prepare)(&mut ctx, Scale(0.03));
    let mut text = Vec::new();
    for src in reseed(&mut ctx, seed).unwrap() {
        text.extend(ctx.read_file(&src).unwrap());
    }
    util::hash64(&text)
}
