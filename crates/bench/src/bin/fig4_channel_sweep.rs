//! Figure 4 — the trap mechanism's data paths.
//!
//! Figure 4(b) contrasts the two ways data crosses between supervisor
//! and tracee: word-at-a-time peek/poke for small amounts, the shared
//! I/O channel (one extra copy) for bulk. This sweep reads payloads of
//! increasing size through the box and reports µs/call and effective
//! bandwidth in both modes, locating the crossover that motivates the
//! channel.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin fig4_channel_sweep
//! ```

use idbox_interpose::{share, AllowAll, GuestCtx, Supervisor};
use idbox_kernel::{Kernel, OpenFlags};
use idbox_types::CostModel;
use idbox_vfs::Cred;
use std::time::Instant;

fn time_reads(ctx: &mut GuestCtx<'_>, size: usize, iters: u64) -> f64 {
    let fd = ctx.open("/tmp/sweep.dat", OpenFlags::rdonly(), 0).unwrap();
    let mut buf = vec![0u8; size];
    // Warm up.
    for _ in 0..iters / 10 + 1 {
        ctx.pread(fd, &mut buf, 0).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        ctx.pread(fd, &mut buf, 0).unwrap();
    }
    let per_call = start.elapsed().as_secs_f64() / iters as f64;
    ctx.close(fd).unwrap();
    per_call
}

fn setup(model: Option<CostModel>) -> (Supervisor, idbox_kernel::Pid) {
    let kernel = share(Kernel::new());
    let pid = kernel.lock().spawn(Cred::ROOT, "/tmp", "sweep").unwrap();
    let sup = match model {
        None => Supervisor::direct(kernel),
        Some(m) => Supervisor::interposed(kernel, Box::new(AllowAll), m),
    };
    (sup, pid)
}

fn main() {
    let model = idbox_bench::bench_model();
    println!("Figure 4(b): data movement — peek/poke vs I/O channel");
    println!(
        "(payloads <= {} bytes cross word-by-word; larger ones take the channel's extra copy)",
        idbox_interpose::SMALL_IO_MAX
    );
    println!("{}", "-".repeat(78));
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>14} {:>10}",
        "size", "direct µs", "boxed µs", "ratio", "boxed MB/s", "path"
    );
    println!("{}", "-".repeat(78));
    let mut tsv = Vec::new();
    for size in [1usize, 8, 64, 256, 512, 1024, 4096, 8192, 65536, 1 << 20] {
        let iters: u64 = if size >= 65536 { 300 } else { 3000 };
        let (mut dsup, dpid) = setup(None);
        let mut dctx = GuestCtx::new(&mut dsup, dpid);
        let data = vec![0xAB; size.max(1)];
        dctx.write_file("/tmp/sweep.dat", &data).unwrap();
        let direct = time_reads(&mut dctx, size, iters);

        let (mut bsup, bpid) = setup(Some(model));
        let mut bctx = GuestCtx::new(&mut bsup, bpid);
        bctx.write_file("/tmp/sweep.dat", &data).unwrap();
        let boxed = time_reads(&mut bctx, size, iters);

        let path = if size <= idbox_interpose::SMALL_IO_MAX {
            "peek/poke"
        } else {
            "channel"
        };
        let mbps = size as f64 / boxed / 1e6;
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>7.1}x {:>14.1} {:>10}",
            size,
            direct * 1e6,
            boxed * 1e6,
            boxed / direct,
            mbps,
            path
        );
        tsv.push(format!(
            "{size}\t{:.6}\t{:.6}\t{:.2}\t{path}",
            direct * 1e6,
            boxed * 1e6,
            boxed / direct
        ));
    }
    println!("{}", "-".repeat(78));
    println!("expected shape: ratio peaks for tiny calls (fixed trap cost dominates),");
    println!("falls toward ~2 copies/1 copy as the payload amortizes the trap.");
    idbox_bench::write_tsv(
        "fig4_channel_sweep.tsv",
        false,
        "size\tdirect_us\tboxed_us\tratio\tpath",
        &tsv,
    );
}
