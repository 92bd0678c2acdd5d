//! Data-plane throughput: the zero-copy extent pipeline vs the copying
//! read path, across payload sizes from 4 KiB to 64 MiB.
//!
//! Outbound, `get` (and `pread`) replies carry `Arc`-backed extents
//! borrowed straight from the Vfs chunk store, queued as scatter-gather
//! segments and flushed with vectored writes — the file bytes are never
//! copied into guest memory or a flat connection buffer. Inbound, a
//! `put` payload is read off the socket into one exact-size buffer that
//! moves into the kernel's write call and becomes the file's chunks. This bench drives two servers,
//! one with the data plane on (default) and one ablated to the copying
//! paths (`copy_data_plane`), and reports MiB/s plus process-wide
//! allocations per operation for each transfer size and direction,
//! into `results/BENCH_dataplane.tsv`.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin dataplane
//! ```
//!
//! Knobs: `IDBOX_BENCH_WINDOW_MS` shrinks the per-mode measurement
//! window (CI smoke; a window under the full 800 ms writes
//! `target/BENCH_dataplane.tsv` instead, so only a full run updates
//! `results/`); `IDBOX_DATAPLANE_SIZES` (comma-separated bytes)
//! picks the sizes to sweep. With `IDBOX_BENCH_ASSERT` set,
//! the run fails unless, at the largest size swept, owned `put` and
//! zero-copy `get` each make at most twice the allocations per
//! operation of their 4 KiB row (which the sweep must include): a put
//! whose file copied its payload into fresh chunks, or a get that
//! copied the file into a flat reply, allocates per chunk and fails.
//! Allocation counts do not depend on the host's cores, so the gate
//! runs on every host; the speedup over the copying path stays a
//! reported column.

use idbox_bench::{alloc_calls, bench_server, connect, CountingAlloc, Window};
use idbox_chirp::ChirpClient;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WINDOW_MS: u64 = 800;
const MIB: f64 = (1u64 << 20) as f64;

/// Patterned payload: corruption anywhere in the pipeline fails the
/// length/content checks instead of passing silently.
fn payload(size: usize) -> Vec<u8> {
    (0..size as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect()
}

/// Run `f` repeatedly for `window` (at least once) and report
/// (ops/s, allocations/op).
fn timed(window: Duration, mut f: impl FnMut()) -> (f64, f64) {
    let t0 = Instant::now();
    let a0 = alloc_calls();
    let mut ops = 0u64;
    while ops == 0 || t0.elapsed() < window {
        f();
        ops += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    let allocs = alloc_calls() - a0;
    (ops as f64 / dt, allocs as f64 / ops as f64)
}

fn main() {
    let cores = idbox_bench::host_cores();
    let run = Window::from_env(WINDOW_MS);
    let (window, warmup) = (run.timed, run.warmup());
    let sizes = idbox_bench::env_list(
        "IDBOX_DATAPLANE_SIZES",
        &[4 << 10, 64 << 10, 1 << 20, 8 << 20, 64 << 20],
    );

    let (zc_handle, ca) = bench_server("dataplane", |_| {});
    let (cp_handle, _) = bench_server("dataplane", |c| c.copy_data_plane = true);
    let mut zc = connect(zc_handle.addr(), &ca, "Fred");
    let mut cp = connect(cp_handle.addr(), &ca, "Fred");
    zc.mkdir("/bench", 0o755).unwrap();
    cp.mkdir("/bench", 0o755).unwrap();

    let mut rows = Vec::new();
    // (size, zero-copy get allocs/op, owned put allocs/op) per size.
    let mut zc_allocs: Vec<(usize, f64, f64)> = Vec::new();
    println!("{:>10}  {:<14} {:>10}  {:>10}  notes", "size", "mode", "MiB/s", "allocs/op");
    for &size in &sizes {
        let data = payload(size);
        let path = format!("/bench/f{size}.dat");
        zc.put(&path, &data).unwrap();
        cp.put(&path, &data).unwrap();
        let mib = size as f64 / MIB;
        // Pipelining depth scaled so one burst stays near 32 MiB of
        // in-flight replies even at the top of the sweep.
        let depth = ((32 << 20) / size).clamp(2, 8);

        // Ablated baseline: the pre-extent copying path.
        timed(warmup, || assert_eq!(cp.get(&path).unwrap().len(), size));
        let (ops, allocs) = timed(window, || assert_eq!(cp.get(&path).unwrap().len(), size));
        let copy_rate = ops * mib;
        println!("{size:>10}  {:<14} {copy_rate:>10.1}  {allocs:>10.0}  baseline", "get/copy");
        rows.push(format!("get\tcopy\t{size}\t{copy_rate:.1}\t{allocs:.0}\t1.00\t{cores}"));

        // Zero-copy, serial.
        timed(warmup, || assert_eq!(zc.get(&path).unwrap().len(), size));
        let (ops, allocs) = timed(window, || assert_eq!(zc.get(&path).unwrap().len(), size));
        let zc_rate = ops * mib;
        let speedup = zc_rate / copy_rate;
        let get_allocs = allocs;
        println!("{size:>10}  {:<14} {zc_rate:>10.1}  {allocs:>10.0}  {speedup:.2}x copy", "get/zerocopy");
        rows.push(format!(
            "get\tzerocopy\t{size}\t{zc_rate:.1}\t{allocs:.0}\t{speedup:.2}\t{cores}"
        ));

        // Zero-copy, pipelined: `depth` gets in flight on one
        // connection, replies streamed under backpressure.
        let run_pipe = |c: &mut ChirpClient| {
            let mut p = c.pipeline();
            for _ in 0..depth {
                p.get(&path);
            }
            for r in p.run().unwrap() {
                assert_eq!(r.payload.as_ref().map(Vec::len), Some(size));
            }
        };
        timed(warmup, || run_pipe(&mut zc));
        let (bursts, allocs) = timed(window, || run_pipe(&mut zc));
        let pipe_rate = bursts * depth as f64 * mib;
        let allocs = allocs / depth as f64;
        let speedup = pipe_rate / copy_rate;
        println!(
            "{size:>10}  {:<14} {pipe_rate:>10.1}  {allocs:>10.0}  {speedup:.2}x copy, depth {depth}",
            "get/pipelined"
        );
        rows.push(format!(
            "get-pipelined\tzerocopy\t{size}\t{pipe_rate:.1}\t{allocs:.0}\t{speedup:.2}\t{cores}"
        ));

        // Inbound: `put` copied through guest memory and the I/O
        // channel (ablated baseline), then moved into the kernel.
        timed(warmup, || cp.put(&path, &data).unwrap());
        let (ops, allocs) = timed(window, || cp.put(&path, &data).unwrap());
        let put_copy_rate = ops * mib;
        println!("{size:>10}  {:<14} {put_copy_rate:>10.1}  {allocs:>10.0}  baseline", "put/copy");
        rows.push(format!("put\tcopy\t{size}\t{put_copy_rate:.1}\t{allocs:.0}\t1.00\t{cores}"));
        timed(warmup, || zc.put(&path, &data).unwrap());
        let (ops, allocs) = timed(window, || zc.put(&path, &data).unwrap());
        zc_allocs.push((size, get_allocs, allocs));
        let put_rate = ops * mib;
        let speedup = put_rate / put_copy_rate;
        println!("{size:>10}  {:<14} {put_rate:>10.1}  {allocs:>10.0}  {speedup:.2}x copy", "put/owned");
        rows.push(format!(
            "put\tzerocopy\t{size}\t{put_rate:.1}\t{allocs:.0}\t{speedup:.2}\t{cores}"
        ));
    }

    if cores < 2 {
        println!("note: only {cores} core(s) available; client and server are core-bound");
    }
    // Optional regression gate, on counts rather than wall clock: at the
    // largest size, the data plane allocates per operation, not per chunk.
    if idbox_bench::gates_on() {
        let &(_, get_small, put_small) = zc_allocs
            .iter()
            .find(|r| r.0 == 4096)
            .expect("the dataplane gate compares against a 4096-byte row");
        let &(large, get_large, put_large) =
            zc_allocs.iter().max_by_key(|r| r.0).expect("at least one size");
        assert!(
            put_large <= 2.0 * put_small,
            "owned put allocated {put_large:.0}/op at {large} bytes, over twice its \
             {put_small:.0}/op at 4 KiB"
        );
        assert!(
            get_large <= 2.0 * get_small,
            "zero-copy get allocated {get_large:.0}/op at {large} bytes, over twice its \
             {get_small:.0}/op at 4 KiB"
        );
        println!(
            "dataplane assertion passed at {large} bytes: put {put_large:.0} allocs/op \
             (4 KiB: {put_small:.0}), get {get_large:.0} (4 KiB: {get_small:.0})"
        );
    }

    idbox_bench::write_tsv(
        "BENCH_dataplane.tsv",
        run.smoke,
        "op\tmode\tsize_bytes\tmib_per_sec\tallocs_per_op\tspeedup_vs_copy\thost_cores",
        &rows,
    );
    let _ = zc.quit();
    let _ = cp.quit();
    zc_handle.shutdown();
    cp_handle.shutdown();
}
