//! Measurement plumbing shared by every workload: the seeded generator,
//! percentiles, process CPU time, the allocation counter, the scratch
//! directory and the host fingerprint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// splitmix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1DB0_C0FF_EE00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// A fast 64-bit content hash (multiply-rotate over 8-byte words in four
/// independent lanes), used to check that every byte a `get` returns
/// belongs to the version last written without the check costing more
/// than the transfer.
pub fn hash64(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("slices of 8 bytes"));
    let mut lanes = [data.len() as u64, 1, 2, 3];
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, word(&b[i * 8..i * 8 + 8]));
        }
    }
    let mut h = lanes.into_iter().fold(0, mix);
    for &b in blocks.remainder() {
        h = mix(h, u64::from(b));
    }
    h
}

/// Nearest-rank percentile of an unsorted sample set; 0 when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 50.0)
}

/// Percentile of a log2-µs bucket histogram (bucket `i` covers
/// `[2^i, 2^(i+1))`), interpolated linearly inside the bucket the rank
/// falls in, so the value moves with the counts instead of snapping to
/// a bucket edge.
pub fn log2_bucket_percentile(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (p / 100.0) * total as f64;
    let mut seen = 0.0;
    for (i, &b) in buckets.iter().enumerate() {
        let next = seen + b as f64;
        if b > 0 && next >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            return lo + (hi - lo) * ((rank - seen) / b as f64);
        }
        seen = next;
    }
    (1u64 << buckets.len()) as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` (Linux).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far: the
/// in-process client and the server's event loops, flusher and
/// snapshot threads alike.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec laid out
    // as the C ABI expects, and the clock id is a constant Linux
    // defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Allocation counter around the system allocator. Counting is off
/// unless a traced window switches it on, so untimed and untraced runs
/// pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counter never affects what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The benchmark's private directory inside the working directory (WAL
/// directories, probe files). Removed, with everything in it, on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Directory name, relative to the working directory.
    pub const DIR: &'static str = ".perfbench-tmp";

    pub fn create() -> std::io::Result<Scratch> {
        static CREATED: AtomicU64 = AtomicU64::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        let root = std::env::current_dir()?
            .join(Self::DIR)
            .join(format!("{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, not yet existing path under the scratch root.
    pub fn path(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The parent is shared between concurrent runs; remove it only
        // once it is empty.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Median cost of one `fdatasync` of a freshly written 400 KiB file in
/// `dir` — roughly one group-commit flush. A degraded shared disk shows
/// up here before it shows up as WAL noise.
pub fn fdatasync_probe(dir: &Path) -> std::io::Result<Duration> {
    use std::io::Write;
    let path = dir.join("fdatasync-probe");
    let mut costs = Vec::new();
    for _ in 0..5 {
        let mut f = std::fs::File::create(&path)?;
        f.write_all(&vec![0u8; 400 << 10])?;
        let t = Instant::now();
        f.sync_data()?;
        costs.push(t.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&path)?;
    Ok(Duration::from_secs_f64(median(&costs)))
}

#[repr(C)]
struct Utsname {
    sysname: [u8; 65],
    nodename: [u8; 65],
    release: [u8; 65],
    version: [u8; 65],
    machine: [u8; 65],
    domainname: [u8; 65],
}

extern "C" {
    fn uname(buf: *mut Utsname) -> i32;
}

fn c_field(field: &[u8]) -> String {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    String::from_utf8_lossy(&field[..end]).into_owned()
}

/// `sysname release machine` of the running kernel.
pub fn kernel_release() -> String {
    let mut u = Utsname {
        sysname: [0; 65],
        nodename: [0; 65],
        release: [0; 65],
        version: [0; 65],
        machine: [0; 65],
        domainname: [0; 65],
    };
    // SAFETY: `u` is a valid, exclusively borrowed struct utsname with
    // the Linux field sizes (65 bytes each); uname(2) only writes into it.
    if unsafe { uname(&mut u) } != 0 {
        return "unknown".to_string();
    }
    format!(
        "{} {} {}",
        c_field(&u.sysname),
        c_field(&u.release),
        c_field(&u.machine)
    )
}

/// First line of a command's standard output, or `unknown`. The child
/// is waited for before this returns.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        assert_eq!(Rng::new(7).next_u64(), Rng::new(7).next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn bucket_percentile_interpolates() {
        let mut b = [0u64; 8];
        b[3] = 10; // all samples in [8, 16)
        let p50 = log2_bucket_percentile(&b, 50.0);
        assert!((8.0..16.0).contains(&p50), "{p50}");
        assert!(log2_bucket_percentile(&b, 99.0) > p50);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu() > a, "{x}");
    }
}
