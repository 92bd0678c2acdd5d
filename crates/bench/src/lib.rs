//! Shared measurement helpers for the figure-regeneration harnesses.
//!
//! Each table and figure of the paper has a binary here that prints a
//! human-readable reproduction. Measured rows are also written as TSV
//! under `results/` at the workspace root so EXPERIMENTS.md can cite
//! them; a smoke run writes them under `target/` instead.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, ChirpServerHandle, ServerConfig};
use idbox_core::{BoxOptions, IdentityBox};
use idbox_interpose::{share, AllowAll, GuestCtx, SharedKernel, Supervisor};
use idbox_kernel::{Account, Kernel, OpenFlags, Whence};
use idbox_types::{AuthMethod, CostModel, Identity};
use idbox_vfs::Cred;
use idbox_workloads::micro::{self, MicroCase};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A Figure 5(a) row measured both with the fast-path caches (dentry +
/// ACL verdict) enabled and with them off — the before/after pair the
/// per-trap-tax ablation reports.
#[derive(Debug, Clone)]
pub struct MicroAblation {
    /// Which syscall case.
    pub case: MicroCase,
    /// Microseconds per call, unmodified.
    pub direct_us: f64,
    /// Microseconds per call, boxed, caches on (the shipping config).
    pub boxed_us: f64,
    /// Microseconds per call, boxed, dentry + verdict caches disabled.
    pub boxed_nocache_us: f64,
}

impl MicroAblation {
    /// Boxed (cached) / direct latency ratio — the Figure 5(a) number.
    pub fn ratio(&self) -> f64 {
        self.boxed_us / self.direct_us
    }

    /// Boxed (uncached) / direct latency ratio.
    pub fn nocache_ratio(&self) -> f64 {
        self.boxed_nocache_us / self.direct_us
    }

    /// How much the caches buy on this case: uncached / cached boxed
    /// latency (> 1 means the caches help).
    pub fn cache_speedup(&self) -> f64 {
        self.boxed_nocache_us / self.boxed_us
    }

    /// Whether this case exercises path resolution + ACL evaluation on
    /// every call (the metadata-heavy mix the caches target). Data-path
    /// cases go through an open descriptor and bypass both caches.
    pub fn is_metadata_heavy(&self) -> bool {
        matches!(self.case, MicroCase::Stat | MicroCase::OpenClose)
    }
}

/// The slowdowns the paper's Figure 5(a) chart shows (approximate bar
/// readings): getpid/stat/read-1/write-1 near 10x, open/close near
/// 5.5x, and the 8 KiB transfers near 2.8-3.3x — "an order of
/// magnitude" for the small calls, less once bulk bytes amortize the
/// trap. The band accepts that whole range.
pub fn fig5a_paper_ratio_band() -> (f64, f64) {
    (2.5, 40.0)
}

/// Direct mode: a plain process. Boxed mode: a full identity box (its
/// policy does the real per-call ACL work the paper's numbers include).
/// `caches` toggles the whole fast path at once — the kernel's dentry
/// cache and the box's ACL/verdict caches — for before/after ablations.
fn micro_ctx(model: Option<CostModel>, caches: bool) -> (Supervisor, idbox_kernel::Pid) {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new("dthain", 1000, 1000))
        .expect("fresh kernel");
    k.vfs_mut().set_dentry_cache(caches);
    let kernel = share(k);
    let sup_cred = Cred::new(1000, 1000);
    match model {
        None => {
            let pid = kernel
                .lock()
                .spawn(sup_cred, "/tmp", "micro")
                .expect("spawn");
            (Supervisor::direct(kernel), pid)
        }
        Some(m) => {
            let b = IdentityBox::with_options(
                kernel,
                "globus:/O=UnivNowhere/CN=Fred",
                sup_cred,
                BoxOptions {
                    cost_model: m,
                    cache_acls: caches,
                    ..Default::default()
                },
            )
            .expect("create box");
            let pid = b.spawn_process("micro").expect("spawn");
            (b.supervisor(), pid)
        }
    }
}

/// Time one microbenchmark case: seconds per call, best of 3 batches.
/// `caches` toggles the whole fast path: the kernel's dentry cache and
/// the box's ACL verdict cache.
pub fn time_micro_case(case: MicroCase, model: Option<CostModel>, iters: u64, caches: bool) -> f64 {
    let (mut sup, pid) = micro_ctx(model, caches);
    let mut ctx = GuestCtx::new(&mut sup, pid);
    micro::prepare(&mut ctx);
    micro::run_case(&mut ctx, case, iters / 10); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        micro::run_case(&mut ctx, case, iters);
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Measure the Figure 5(a) table with the boxed column run twice:
/// fast-path caches on and off.
pub fn measure_fig5a_ablation(model: CostModel, iters: u64) -> Vec<MicroAblation> {
    MicroCase::all()
        .into_iter()
        .map(|case| MicroAblation {
            case,
            direct_us: time_micro_case(case, None, iters, true) * 1e6,
            boxed_us: time_micro_case(case, Some(model), iters, true) * 1e6,
            boxed_nocache_us: time_micro_case(case, Some(model), iters, false) * 1e6,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The harness every bin shares: knobs, windows, result files, the Chirp
// bench server and the allocation counter.
// ---------------------------------------------------------------------------

/// The environment variable `name` as an unsigned integer, or `default`
/// when it is unset or not a number.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The numbers in the comma-separated `list`, skipping entries that do
/// not parse; `default` when `list` is absent or yields none.
pub fn parse_list(list: Option<&str>, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = list
        .into_iter()
        .flat_map(|v| v.split(','))
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// [`parse_list`] over the environment variable `name`.
pub fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    parse_list(std::env::var(name).ok().as_deref(), default)
}

/// Whether `IDBOX_BENCH_ASSERT` is set: each bin then fails unless its
/// regression gate holds.
pub fn gates_on() -> bool {
    std::env::var_os("IDBOX_BENCH_ASSERT").is_some()
}

/// Whether `IDBOX_BENCH_FAST` is set: a smoke run whose numbers do not
/// matter, only that the harness completes.
fn fast() -> bool {
    std::env::var_os("IDBOX_BENCH_FAST").is_some()
}

/// The median of `samples` (the upper one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Hardware threads available to this process (1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A bin's timed measurement window: its default, unless
/// `IDBOX_BENCH_WINDOW_MS` overrides it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Length of each timed window.
    pub timed: Duration,
    /// Whether the window is shorter than the bin's default: a smoke
    /// run, whose result files go to `target/` (see [`output_path`]).
    pub smoke: bool,
}

impl Window {
    /// The window for a bin whose full runs measure `default_ms`.
    pub fn from_env(default_ms: u64) -> Window {
        Window::new(
            default_ms,
            std::env::var("IDBOX_BENCH_WINDOW_MS").ok().as_deref(),
        )
    }

    fn new(default_ms: u64, override_ms: Option<&str>) -> Window {
        let ms = override_ms
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms);
        Window {
            timed: Duration::from_millis(ms),
            smoke: ms < default_ms,
        }
    }

    /// The untimed warm-up run before each timed window: a quarter of
    /// it, but at least 50 ms so caches and connections are hot even in
    /// a smoke.
    pub fn warmup(&self) -> Duration {
        (self.timed / 4).max(Duration::from_millis(50))
    }
}

/// Where a bin writes its result file `name`: the workspace `results/`
/// for a full run, `target/` for a smoke, so a smoke never overwrites
/// a committed full-run file. `IDBOX_BENCH_FAST` makes every run a
/// smoke. The directory is created if needed.
pub fn output_path(name: &str, smoke: bool) -> PathBuf {
    output_path_in(&workspace_root(), name, smoke || fast())
}

/// The workspace root, resolved when the bin runs, not when it was
/// built: two levels above the `CARGO_MANIFEST_DIR` cargo sets for
/// `cargo run` (this crate's directory, `crates/bench`), or the current
/// directory when the binary runs on its own. A copied checkout that
/// reuses a build cache therefore writes into its own tree.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from);
    match manifest.as_deref().and_then(|dir| dir.ancestors().nth(2)) {
        Some(root) => root.to_path_buf(),
        None => PathBuf::from("."),
    }
}

fn output_path_in(root: &Path, name: &str, smoke: bool) -> PathBuf {
    let p = root.join(if smoke { "target" } else { "results" });
    let _ = std::fs::create_dir_all(&p);
    p.join(name)
}

/// Write a TSV result file (header + rows) to [`output_path`].
pub fn write_tsv(name: &str, smoke: bool, header: &str, rows: &[String]) {
    let mut text = format!("{header}\n");
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    write_text(name, smoke, &text);
}

/// Write a text result file verbatim to [`output_path`] (JSON reports,
/// the Prometheus snapshot); returns where it went.
pub fn write_text(name: &str, smoke: bool, contents: &str) -> PathBuf {
    let path = output_path(name, smoke);
    if std::fs::write(&path, contents).is_ok() {
        eprintln!("(results written to {})", path.display());
    }
    path
}

/// Spawn a Chirp server named `name` that accepts Globus certificates
/// from the bench CA and lets any `/O=UnivNowhere/*` identity
/// reserve-create directories under its root. `tweak` adjusts the
/// config before the spawn. Returns the server and its CA; the CA's key
/// is fixed, so its certificates are accepted by every bench server.
pub fn bench_server(
    name: &str,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (ChirpServerHandle, CertificateAuthority) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xBE7C4);
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    let mut config = ServerConfig {
        name: name.into(),
        verifier,
        root_acl,
        ..Default::default()
    };
    tweak(&mut config);
    let server = ChirpServer::new(config).expect("bench server config");
    (server.spawn().expect("spawn bench server"), ca)
}

/// The credentials of `/O=UnivNowhere/CN={cn}`, issued by `ca`.
pub fn creds(ca: &CertificateAuthority, cn: &str) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(
        ca.issue(format!("/O=UnivNowhere/CN={cn}")),
    )]
}

/// Connect to `addr` and authenticate as `/O=UnivNowhere/CN={cn}`.
pub fn connect(addr: SocketAddr, ca: &CertificateAuthority, cn: &str) -> ChirpClient {
    ChirpClient::connect(addr, &creds(ca, cn)).expect("connect to bench server")
}

/// Files each [`metadata_mix`] client cycles through.
const MIX_FILES: usize = 8;

/// Lay out the [`metadata_mix`] tree on `k`: a directory `/w/c{i}`
/// owned by uid 1000 for each of `clients`.
pub fn metadata_mix_tree(k: &mut Kernel, clients: usize) {
    let root = k.vfs().root();
    k.vfs_mut().mkdir(root, "/w", 0o755, &Cred::ROOT).unwrap();
    for i in 0..clients {
        let dir = format!("/w/c{i}");
        k.vfs_mut().mkdir(root, &dir, 0o755, &Cred::ROOT).unwrap();
        k.vfs_mut()
            .chown(root, &dir, 1000, 1000, &Cred::ROOT)
            .unwrap();
    }
}

/// Run the all-mutating metadata mix — open/write/seek/read/close/
/// unlink, six syscalls per iteration — from `clients` threads against
/// `kernel` (laid out by [`metadata_mix_tree`]) for `window`. Client
/// `i` is a distinct identity working `/w/c{i}` through an in-kernel
/// supervisor. Returns the syscalls dispatched and the measured wall
/// time.
pub fn metadata_mix(kernel: &SharedKernel, clients: usize, window: Duration) -> (u64, Duration) {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut joins = Vec::with_capacity(clients);
    for i in 0..clients {
        let kernel = Arc::clone(kernel);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let home = format!("/w/c{i}");
            let pid = {
                let k = kernel.read();
                let pid = k.spawn(Cred::new(1000, 1000), &home, "mix").unwrap();
                k.set_identity(pid, Identity::new(format!("globus:/O=Bench/CN=client{i}")))
                    .unwrap();
                pid
            };
            let mut sup = Supervisor::in_kernel(kernel, Box::new(AllowAll));
            let mut ctx = GuestCtx::new(&mut sup, pid);
            let mut buf = [0u8; 64];
            let mut ops = 0u64;
            let mut j = 0usize;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let path = format!("{home}/f{j}");
                j = (j + 1) % MIX_FILES;
                let fd = ctx.open(&path, OpenFlags::rdwr_create(), 0o644).unwrap();
                ctx.write(fd, b"identity boxing under contention").unwrap();
                ctx.lseek(fd, 0, Whence::Set).unwrap();
                ctx.read(fd, &mut buf).unwrap();
                ctx.close(fd).unwrap();
                ctx.unlink(&path).unwrap();
                ops += 6;
            }
            ctx.exit(0);
            total.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for j in joins {
        j.join().unwrap();
    }
    (total.load(Ordering::Relaxed), t0.elapsed())
}

/// Allocation-counting wrapper around the system allocator. A bin that
/// reports allocations installs it as its own global allocator,
///
/// ```text
/// #[global_allocator]
/// static ALLOC: idbox_bench::CountingAlloc = idbox_bench::CountingAlloc;
/// ```
///
/// so bins that only time things are not charged for counting. Counts
/// are process-wide: client and server share the one process.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocations (and reallocations) made so far through
/// [`CountingAlloc`]; always 0 in a bin that does not install it.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A standard bench-quality cost model: calibrate quickly toward the
/// paper's 10x getpid target, falling back to the static default under
/// unusual hosts. Set `IDBOX_BENCH_FAST=1` to skip the calibration
/// sweep (CI smoke runs, where absolute ratios do not matter).
pub fn bench_model() -> CostModel {
    if fast() {
        eprintln!("IDBOX_BENCH_FAST set: using the static cost model, no calibration sweep");
        return CostModel::calibrated();
    }
    let (model, ratio) = idbox_interpose::calibrate::calibrate();
    eprintln!(
        "calibrated cost model: footprint={} bytes, boxed/direct getpid = {ratio:.1}x",
        model.switch_footprint_bytes
    );
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_measurement_is_sane() {
        // Tiny iteration counts: this is a smoke test of the harness,
        // not a benchmark.
        let r = time_micro_case(MicroCase::Getpid, None, 200, true);
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    fn cache_off_measurement_is_sane() {
        let r = time_micro_case(
            MicroCase::Stat,
            Some(CostModel::free_switches()),
            200,
            false,
        );
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    fn smoke_writes_target_and_full_run_writes_results() {
        let root = std::env::temp_dir().join(format!("idbox-bench-root-{}", std::process::id()));
        let smoke = output_path_in(&root, "x.tsv", true);
        let full = output_path_in(&root, "x.tsv", false);
        assert_eq!(smoke, root.join("target/x.tsv"));
        assert_eq!(full, root.join("results/x.tsv"));
        assert!(smoke.parent().unwrap().exists() && full.parent().unwrap().exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn window_override_and_smoke_rule() {
        let w = Window::new(400, None);
        assert_eq!((w.timed, w.smoke), (Duration::from_millis(400), false));
        let w = Window::new(400, Some("150"));
        assert_eq!((w.timed, w.smoke), (Duration::from_millis(150), true));
        // A longer window than the default is still a full run.
        let w = Window::new(400, Some("1000"));
        assert_eq!((w.timed, w.smoke), (Duration::from_millis(1000), false));
        // Junk falls back to the default.
        let w = Window::new(400, Some("fast"));
        assert_eq!((w.timed, w.smoke), (Duration::from_millis(400), false));
    }

    #[test]
    fn warmup_is_a_quarter_with_a_floor() {
        assert_eq!(Window::new(1500, None).warmup(), Duration::from_millis(375));
        assert_eq!(
            Window::new(1500, Some("150")).warmup(),
            Duration::from_millis(50)
        );
        assert_eq!(
            Window::new(1500, Some("0")).warmup(),
            Duration::from_millis(50)
        );
    }

    #[test]
    fn list_parsing() {
        let d = [1, 2, 4, 8];
        assert_eq!(parse_list(Some("1,2"), &d), vec![1, 2]);
        assert_eq!(
            parse_list(Some(" 4096 , 1048576 "), &d),
            vec![4096, 1048576]
        );
        // Junk entries are skipped; a list of nothing but junk, an empty
        // list and an unset variable all fall back to the default.
        assert_eq!(parse_list(Some("3,x,,5"), &d), vec![3, 5]);
        assert_eq!(parse_list(Some("x,-1"), &d), d.to_vec());
        assert_eq!(parse_list(Some(""), &d), d.to_vec());
        assert_eq!(parse_list(None, &d), d.to_vec());
    }
}
