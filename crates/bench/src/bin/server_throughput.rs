//! Server throughput under concurrent clients.
//!
//! Before the reader/writer kernel split, every Chirp request — even a
//! pure read — serialized on one exclusive kernel lock, so adding
//! clients added no throughput. This bench spawns one server and drives
//! it with 1/2/4/8 concurrent authenticated clients running a
//! read-heavy stat/open/pread/close loop, and reports aggregate
//! requests per second at each level, plus per-level p50/p99 dispatch
//! latency from the kernel's histograms (bucket ceilings, ns).
//!
//! Every level runs an untimed warm-up pass first, so `speedup_vs_1`
//! compares warm runs against a warm single-client baseline instead of
//! folding cold-cache startup into whichever level happened to run
//! first. Each row also reports the dentry- and verdict-cache hit rates
//! observed during its timed window.
//!
//! After the levels finish, an admin client pulls the `metrics` RPC and
//! the Prometheus exposition is snapshotted into
//! `results/server_throughput_metrics.prom`, so each bench run leaves
//! the per-identity accounting it generated next to its TSV.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin server_throughput
//! ```
//!
//! `--faults` switches to the degradation-under-faults experiment: a
//! seeded [`FaultProxy`] between clients and server drops a growing
//! fraction of request connections while the server's filesystem
//! reports EIO at the same rate, and retrying clients drive an
//! idempotent workload through the storm. The sweep reports goodput,
//! failures, and retry/reconnect work per fault rate, and writes
//! `results/BENCH_faults.json`. Each client also periodically probes a
//! tree it has no rights to; the run aborts if any probe ever succeeds
//! (a fail-open verdict — faults must never become allows).
//!
//! `--overhead` measures the cost of the self-observation plane: the
//! same read-heavy workload runs in alternating windows with shard-lock
//! profiling + flight recording enabled and disabled, three each side,
//! and reports the best on/off throughput ratio and the median
//! allocations per request on each side into
//! `results/BENCH_overhead.tsv`. With `IDBOX_BENCH_ASSERT` set, the run
//! fails if the enabled plane costs more than 16 allocations per
//! request over the disabled one. Allocation counts do not depend on
//! the host's cores, so the gate runs on every host; the wall-clock
//! ratio stays a reported column.
//!
//! `IDBOX_BENCH_WINDOW_MS` and `IDBOX_BENCH_LEVELS` (comma-separated
//! client counts) shrink the run for CI smoke tests; a window under
//! the full 1500 ms writes every file to `target/` instead of
//! `results/`.

use idbox_auth::CertificateAuthority;
use idbox_bench::{alloc_calls, bench_server, connect, creds, median, CountingAlloc, Window};
use idbox_chirp::{ChirpClient, ChirpServerHandle, RetryPolicy};
use idbox_kernel::OpenFlags;
use idbox_testkit::fault::{FaultPlan, FaultProxy};
use idbox_vfs::FaultHook;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reads per open: the loop is stat, open, PREADS x pread, close —
/// read-heavy, like a real client walking and reading files.
const PREADS: u64 = 8;
const REQS_PER_ROUND: u64 = 3 + PREADS;

/// Default measurement window per concurrency level.
const WINDOW_MS: u64 = 1500;

/// Clients and fault-schedule seed of the `--faults` sweep.
const FAULT_CLIENTS: usize = 4;
const FAULT_SEED: u64 = 0x1DB0F;

/// Clients in the `--overhead` A/B.
const OVERHEAD_CLIENTS: usize = 2;

/// The most allocations per request the enabled observation plane may
/// add over the disabled one (`--overhead` gate). It reads 0.00: span
/// names are borrowed `&'static str`s and a lock wait stores its shard
/// number, so recording a span allocates nothing. A request records
/// several spans, so one `String` per span adds several allocations.
const PLANE_ALLOCS_PER_REQ: f64 = 1.0;

fn server() -> (ChirpServerHandle, CertificateAuthority) {
    bench_server("throughput", |c| {
        c.admins = vec![format!("globus:/O=UnivNowhere/CN={ADMIN}")]
    })
}

const ADMIN: &str = "Admin";

/// One level's timed window: requests per second across all clients,
/// and process-wide allocations per request from the start line until
/// every client has quit.
struct Level {
    rate: f64,
    allocs_per_req: f64,
}

/// Run `n` clients against `addr` for `window`.
fn run_level(
    addr: std::net::SocketAddr,
    ca: &CertificateAuthority,
    n: usize,
    window: Duration,
) -> Level {
    let start_line = Arc::new(Barrier::new(n + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..n)
        .map(|i| {
            let ca = ca.clone();
            let start_line = Arc::clone(&start_line);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = connect(addr, &ca, &format!("User{i}"));
                let file = format!("/u{i}/data.dat");
                // Levels share the server, so the directory may already
                // exist from a smaller level's run.
                match c.mkdir(&format!("/u{i}"), 0o755) {
                    Ok(()) | Err(idbox_types::Errno::EEXIST) => {}
                    Err(e) => panic!("mkdir /u{i}: {e:?}"),
                }
                c.put(&file, &vec![7u8; 4096]).unwrap();
                start_line.wait();
                let mut reqs = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.stat(&file).unwrap();
                    let fd = c.open(&file, OpenFlags::rdonly(), 0).unwrap();
                    for _ in 0..PREADS {
                        let data = c.pread(fd, 4096, 0).unwrap();
                        assert_eq!(data.len(), 4096);
                    }
                    c.close(fd).unwrap();
                    reqs += REQS_PER_ROUND;
                }
                let _ = c.quit();
                reqs
            })
        })
        .collect();
    start_line.wait();
    let a0 = alloc_calls();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let reqs: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    Level {
        rate: reqs as f64 / t0.elapsed().as_secs_f64(),
        allocs_per_req: (alloc_calls() - a0) as f64 / reqs.max(1) as f64,
    }
}

/// Sum a per-identity counter family out of a Prometheus exposition.
fn family_sum(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(family))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Verdict-cache (hits, misses) across all identities on the server.
fn verdict_counts(exposition: &str) -> (u64, u64) {
    (
        family_sum(exposition, "idbox_verdict_cache_hits_total{"),
        family_sum(exposition, "idbox_verdict_cache_misses_total{"),
    )
}

fn hit_pct(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        100.0 * hits as f64 / (hits + misses) as f64
    }
}

/// One row of the degradation-under-faults sweep.
struct FaultRow {
    fault_pct: u32,
    reqs_per_sec: f64,
    ok: u64,
    failed: u64,
    fail_open: u64,
    retries: u64,
    reconnects: u64,
    wire_faults: u64,
    vfs_faults: u64,
}

/// Drive `FAULT_CLIENTS` retrying clients through a fault proxy at
/// `fault_pct` (% of request lines dropping their connection, % of
/// filesystem data ops reporting EIO) for `window`.
fn run_fault_level(fault_pct: u32, window: Duration) -> FaultRow {
    // Fresh server per rate, so histograms and counters are not
    // polluted across levels.
    let (handle, ca) = bench_server(&format!("faults-{fault_pct}"), |_| {});
    let ppm = fault_pct * 10_000; // 1 % = 10_000 ppm
    let plan = FaultPlan::with_rates(FAULT_SEED, ppm, ppm);
    let proxy = FaultProxy::spawn(handle.addr(), plan.clone()).unwrap();

    // Stage each client's file over the clean, direct path — before the
    // filesystem hook arms, so staging cannot eat an injected EIO.
    for i in 0..FAULT_CLIENTS {
        let mut c = connect(handle.addr(), &ca, &format!("User{i}"));
        c.mkdir(&format!("/u{i}"), 0o755).unwrap();
        c.put(&format!("/u{i}/data.dat"), &vec![7u8; 4096]).unwrap();
        let _ = c.quit();
    }
    // A directory no bench client may touch: reserve-created under an
    // identity that never runs a workload. The clients probe it during
    // the storm — a success there would be a fail-open verdict (a fault
    // turned into an allow), which is a bug at any fault rate.
    {
        let mut c = connect(handle.addr(), &ca, "Warden");
        c.mkdir("/private", 0o700).unwrap();
        c.put("/private/secret", b"keep out").unwrap();
        let _ = c.quit();
    }
    {
        let plan = plan.clone();
        handle
            .kernel()
            .write()
            .vfs_mut()
            .set_fault_hook(Some(FaultHook::new(move |op, _| plan.vfs_fault(op))));
    }

    let start_line = Arc::new(Barrier::new(FAULT_CLIENTS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let addr = proxy.addr();
    let workers: Vec<_> = (0..FAULT_CLIENTS)
        .map(|i| {
            let ca = ca.clone();
            let start_line = Arc::clone(&start_line);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let creds = creds(&ca, &format!("User{i}"));
                // Deep attempt budget: a retry's *reconnect* re-runs
                // the multi-line auth handshake, where every line draws
                // at the drop rate — so per-attempt failure odds are
                // several times the per-line rate.
                let policy = RetryPolicy {
                    max_attempts: 16,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(20),
                    budget: Duration::from_secs(10),
                    jitter_seed: FAULT_SEED ^ i as u64,
                    io_timeout: Some(Duration::from_secs(2)),
                    ..Default::default()
                };
                let mut c = ChirpClient::connect_with(addr, &creds, policy).unwrap();
                let file = format!("/u{i}/data.dat");
                let dir = format!("/u{i}");
                start_line.wait();
                let (mut ok, mut failed, mut fail_open) = (0u64, 0u64, 0u64);
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Idempotent-only mix: everything here is safe to
                    // retry, so under the policy the storm should cost
                    // latency, not correctness.
                    let results = [
                        c.stat(&file).map(|_| ()),
                        c.get(&file).map(|_| ()),
                        c.readdir(&dir).map(|_| ()),
                    ];
                    for r in results {
                        match r {
                            Ok(()) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    // Every 32nd round, probe the forbidden tree. The
                    // only acceptable *answer* is EACCES; a success is
                    // fail-open. A transport failure (retry budget spent
                    // mid-storm) is neither — the verdict never arrived.
                    if rounds.is_multiple_of(32) && c.get("/private/secret").is_ok() {
                        fail_open += 1;
                    }
                    rounds += 1;
                }
                (ok, failed, fail_open, c.retries(), c.reconnects())
            })
        })
        .collect();
    start_line.wait();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut row = FaultRow {
        fault_pct,
        reqs_per_sec: 0.0,
        ok: 0,
        failed: 0,
        fail_open: 0,
        retries: 0,
        reconnects: 0,
        wire_faults: 0,
        vfs_faults: 0,
    };
    for w in workers {
        let (ok, failed, fail_open, retries, reconnects) = w.join().unwrap();
        row.ok += ok;
        row.failed += failed;
        row.fail_open += fail_open;
        row.retries += retries;
        row.reconnects += reconnects;
    }
    row.reqs_per_sec = row.ok as f64 / t0.elapsed().as_secs_f64();
    row.wire_faults = plan.wire_injected();
    row.vfs_faults = plan.vfs_injected();
    drop(proxy);
    handle.shutdown();
    row
}

/// The `--faults` experiment: sweep injected-fault rates and report how
/// goodput degrades while the retry layer keeps the failure count at
/// (ideally) zero.
fn run_faults() {
    let run = Window::from_env(WINDOW_MS);
    let mut rows = Vec::new();
    for fault_pct in [0u32, 5, 10, 20] {
        let row = run_fault_level(fault_pct, run.timed);
        println!(
            "{:>2}% faults: {:>9.0} req/s  ok {} failed {} fail_open {}  retries {} \
             reconnects {}  injected wire {} vfs {}",
            row.fault_pct,
            row.reqs_per_sec,
            row.ok,
            row.failed,
            row.fail_open,
            row.retries,
            row.reconnects,
            row.wire_faults,
            row.vfs_faults
        );
        rows.push(row);
    }
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"server_throughput_faults\",\n");
    json.push_str(&format!("  \"window_ms\": {},\n", run.timed.as_millis()));
    json.push_str(&format!("  \"clients\": {FAULT_CLIENTS},\n"));
    json.push_str(&format!("  \"seed\": {FAULT_SEED},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fault_pct\": {}, \"reqs_per_sec\": {:.1}, \"ok\": {}, \"failed\": {}, \
             \"fail_open\": {}, \"retries\": {}, \"reconnects\": {}, \"wire_faults\": {}, \
             \"vfs_faults\": {}}}{}\n",
            r.fault_pct,
            r.reqs_per_sec,
            r.ok,
            r.failed,
            r.fail_open,
            r.retries,
            r.reconnects,
            r.wire_faults,
            r.vfs_faults,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    idbox_bench::write_text("BENCH_faults.json", run.smoke, &json);
    if let Some(worst) = rows.iter().find(|r| r.failed > 0) {
        println!(
            "note: {} operations failed at {}% faults (retry budget exhausted)",
            worst.failed, worst.fault_pct
        );
    } else {
        println!("all operations succeeded at every fault rate (faults fully masked)");
    }
    // Not gated behind an env knob: a fail-open verdict — the forbidden
    // probe succeeding because a fault confused the policy path — is a
    // security bug at any fault rate, in any run.
    let fail_open: u64 = rows.iter().map(|r| r.fail_open).sum();
    assert_eq!(
        fail_open, 0,
        "{fail_open} fail-open verdict(s): a denied operation succeeded under injected faults"
    );
    println!("fail-open check passed: every forbidden probe stayed denied under the storm");
}

/// The `--overhead` experiment: is always-on observability actually
/// affordable? Windows alternate enabled/disabled on the same warm
/// server so clock drift and thermal state hit both sides equally.
/// Each side keeps its best throughput of three — comparing best-vs-best
/// filters scheduler hiccups out of both numerator and denominator —
/// and its median allocations per request, which the gate reads. (An
/// odd window now and then reads a fraction of an allocation low on
/// either side; the median ignores it where the minimum would not.)
fn run_overhead() {
    let cores = idbox_bench::host_cores();
    let run = Window::from_env(WINDOW_MS);
    let (handle, ca) = server();
    let addr = handle.addr();
    run_level(addr, &ca, OVERHEAD_CLIENTS, run.warmup());
    let set_plane = |on: bool| {
        parking_lot::set_lock_profiling(on);
        idbox_obs::flight::set_flight_enabled(on);
    };
    let (mut best_on, mut best_off) = (0.0f64, 0.0f64);
    let (mut allocs_on, mut allocs_off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        set_plane(true);
        let on = run_level(addr, &ca, OVERHEAD_CLIENTS, run.timed);
        best_on = best_on.max(on.rate);
        allocs_on.push(on.allocs_per_req);
        set_plane(false);
        let off = run_level(addr, &ca, OVERHEAD_CLIENTS, run.timed);
        best_off = best_off.max(off.rate);
        allocs_off.push(off.allocs_per_req);
    }
    // Leave the plane the way production runs it.
    set_plane(true);
    let (allocs_on, allocs_off) = (median(allocs_on), median(allocs_off));
    let ratio = if best_off > 0.0 { best_on / best_off } else { 0.0 };
    let plane_allocs = allocs_on - allocs_off;
    println!(
        "observation plane on : {best_on:>10.0} req/s  {allocs_on:>6.2} allocs/req\n\
         observation plane off: {best_off:>10.0} req/s  {allocs_off:>6.2} allocs/req\n\
         on/off ratio         : {ratio:.4}  ({:+.2}% overhead, {plane_allocs:+.2} allocs/req)",
        (1.0 - ratio) * 100.0
    );
    idbox_bench::write_tsv(
        "BENCH_overhead.tsv",
        run.smoke,
        "clients\treqs_per_sec_on\treqs_per_sec_off\ton_over_off\thost_cores\t\
         allocs_per_req_on\tallocs_per_req_off",
        &[format!(
            "{OVERHEAD_CLIENTS}\t{best_on:.0}\t{best_off:.0}\t{ratio:.4}\t{cores}\t\
             {allocs_on:.2}\t{allocs_off:.2}"
        )],
    );
    if idbox_bench::gates_on() {
        assert!(
            plane_allocs <= PLANE_ALLOCS_PER_REQ,
            "self-observation plane too expensive: {plane_allocs:.2} allocations per request \
             over the disabled plane ({allocs_on:.2} vs {allocs_off:.2}, want <= \
             {PLANE_ALLOCS_PER_REQ})"
        );
        println!(
            "overhead assertion passed: the plane adds {plane_allocs:.2} allocations per \
             request (<= {PLANE_ALLOCS_PER_REQ})"
        );
    }
    handle.shutdown();
}

fn main() {
    if std::env::args().any(|a| a == "--faults") {
        run_faults();
        return;
    }
    if std::env::args().any(|a| a == "--overhead") {
        run_overhead();
        return;
    }
    let cores = idbox_bench::host_cores();
    let run = Window::from_env(WINDOW_MS);
    let levels = idbox_bench::env_list("IDBOX_BENCH_LEVELS", &[1, 2, 4, 8]);
    let (handle, ca) = server();
    let addr = handle.addr();
    let mut admin = connect(addr, &ca, ADMIN);
    let mut rows = Vec::new();
    let mut single_rate = 0.0f64;
    let mut best_speedup = 0.0f64;
    for n in &levels {
        let n = *n;
        // Untimed warm-up: connections, directories, and the dentry +
        // verdict caches are all hot before the clock starts, at every
        // level — so speedup_vs_1 compares warm against warm.
        run_level(addr, &ca, n, run.warmup());
        // Snapshot the kernel's latency histograms and the cache
        // counters around the timed window: the diffs isolate this
        // level's dispatches.
        let level_start = handle.kernel().read().latency().snapshot();
        let (d_hits0, d_misses0) = handle.kernel().read().vfs().dentry_stats();
        let (v_hits0, v_misses0) = verdict_counts(&admin.metrics().unwrap());
        let rate = run_level(addr, &ca, n, run.timed).rate;
        let level_end = handle.kernel().read().latency().snapshot();
        let (d_hits1, d_misses1) = handle.kernel().read().vfs().dentry_stats();
        let (v_hits1, v_misses1) = verdict_counts(&admin.metrics().unwrap());
        let w = level_end.diff(&level_start);
        let p50 = w.overall_percentile(50.0).unwrap_or(0);
        let p99 = w.overall_percentile(99.0).unwrap_or(0);
        let dentry_pct = hit_pct(d_hits1 - d_hits0, d_misses1 - d_misses0);
        let verdict_pct = hit_pct(v_hits1 - v_hits0, v_misses1 - v_misses0);
        if single_rate == 0.0 {
            single_rate = rate;
        }
        let speedup = rate / single_rate;
        println!(
            "{n} clients: {rate:>10.0} req/s  ({speedup:.2}x of warm single-client)  \
             p50 {p50} ns, p99 {p99} ns, dentry {dentry_pct:.1}% hit, verdict {verdict_pct:.1}% hit"
        );
        // On a single-core host the ratio says nothing about lock
        // scaling (everything is core-bound), so record a `-` rather
        // than a misleading ~1.0.
        let speedup_cell = if cores >= 2 {
            format!("{speedup:.2}")
        } else {
            "-".to_string()
        };
        best_speedup = best_speedup.max(speedup);
        rows.push(format!(
            "{n}\t{rate:.0}\t{speedup_cell}\t{p50}\t{p99}\t{dentry_pct:.1}\t{verdict_pct:.1}\t{cores}"
        ));
    }
    if cores < 2 {
        // Clients and server share one hardware thread here, so
        // aggregate wall-clock throughput cannot exceed ~1x no matter
        // how the kernel locks: the reader/writer split shows up as
        // scaling only when there are cores to run readers on.
        println!("note: only {cores} core(s) available; client scaling is core-bound");
    }
    // Optional regression gate: with IDBOX_BENCH_ASSERT set,
    // require multi-client throughput to actually scale. Skipped — not
    // weakened — on single-core hosts, where the ratio is meaningless.
    if idbox_bench::gates_on() {
        if cores < 2 {
            println!("scaling assertion skipped: requires >= 2 cores, host has {cores}");
        } else {
            assert!(
                best_speedup >= 1.2,
                "multi-client throughput failed to scale: best speedup \
                 {best_speedup:.2}x < 1.2x on a {cores}-core host"
            );
            println!("scaling assertion passed: best speedup {best_speedup:.2}x");
        }
    }
    idbox_bench::write_tsv(
        "server_throughput.tsv",
        run.smoke,
        "clients\treqs_per_sec\tspeedup_vs_1\tp50_ns\tp99_ns\tdentry_hit_pct\tverdict_hit_pct\thost_cores",
        &rows,
    );
    // Snapshot the per-identity accounting the run produced.
    let exposition = admin.metrics().unwrap();
    let path = idbox_bench::write_text("server_throughput_metrics.prom", run.smoke, &exposition);
    let identities = exposition
        .lines()
        .filter(|l| l.starts_with("idbox_syscalls_total{"))
        .count();
    println!(
        "metrics: {identities} per-identity syscall samples -> {}",
        path.display()
    );
    let _ = admin.quit();
    handle.shutdown();
}
