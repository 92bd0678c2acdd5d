//! Figure 6 / Section 9 — the hierarchical identity namespace, and the
//! in-kernel vs. user-level ablation.
//!
//! Builds the figure's example tree, demonstrates subtree-scoped
//! management, then measures the same identity-box policy running (a)
//! behind the full interposition trap and (b) "in the kernel" (a direct
//! function call), supporting the paper's closing claim that an OS
//! implementation keeps the semantics and sheds the overhead.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin fig6_hierarchy
//! ```

use idbox_core::IdentityBoxPolicy;
use idbox_hier::{DomainTree, HierId, HierPolicy};
use idbox_interpose::{share, GuestCtx, SharedKernel, Supervisor};
use idbox_kernel::Pid;
use idbox_types::CostModel;
use idbox_vfs::Cred;
use parking_lot::Mutex;
use std::sync::Arc;

/// A deferred supervisor constructor (one per ablation config).
type SupFactory = Box<dyn Fn() -> Supervisor>;
use std::time::Instant;

fn policy(domain: &HierId, tree: &Arc<Mutex<DomainTree>>) -> Box<HierPolicy> {
    Box::new(HierPolicy::new(
        domain.clone(),
        Arc::clone(tree),
        IdentityBoxPolicy::new(
            domain.to_identity(),
            Cred::new(1000, 1000),
            "/tmp/.passwd",
            true,
        ),
    ))
}

fn spawn_in(kernel: &SharedKernel, tree: &Arc<Mutex<DomainTree>>, d: &HierId) -> Pid {
    let k = kernel.lock();
    let pid = k.spawn(Cred::new(1000, 1000), "/tmp", "proc").unwrap();
    k.set_identity(pid, d.to_identity()).unwrap();
    tree.lock().assign(pid, d.clone()).unwrap();
    pid
}

fn main() {
    let model = idbox_bench::bench_model();

    // --- The Figure 6 tree.
    let tree = Arc::new(Mutex::new(DomainTree::new()));
    let root = HierId::root();
    {
        let mut t = tree.lock();
        let dthain = t.create(&root, &root, "dthain").unwrap();
        let httpd = t.create(&root, &root, "httpd").unwrap();
        let grid = t.create(&root, &root, "grid").unwrap();
        t.create(&dthain, &dthain, "visitor").unwrap();
        t.create(&httpd, &httpd, "webapp").unwrap();
        for anon in ["anon2", "anon5"] {
            t.create(&grid, &grid, anon).unwrap();
        }
        println!("Figure 6: hierarchical user identity");
        fn show(t: &DomainTree, d: &HierId, depth: usize) {
            println!("{}{}", "  ".repeat(depth), d);
            for c in t.children(d) {
                show(t, &c, depth + 1);
            }
        }
        show(&t, &root, 0);
    }
    println!();

    // --- Ablation: getpid+stat mix under the same policy, three ways.
    let kernel = share(idbox_kernel::Kernel::new());
    let visitor = root
        .child("dthain")
        .unwrap()
        .child("visitor")
        .unwrap();
    assert!(tree.lock().exists(&visitor), "tree built above");
    let iters = 30_000u64;
    println!("Section 9 ablation: identity enforcement cost per call ({iters} iters)");
    println!("{}", "-".repeat(66));
    println!(
        "{:<34} {:>12} {:>12}",
        "configuration", "getpid µs", "stat µs"
    );
    println!("{}", "-".repeat(66));
    let mut tsv = Vec::new();
    let configs: [(&str, SupFactory); 3] = [
        (
            "no identity (plain kernel)",
            Box::new({
                let kernel = Arc::clone(&kernel);
                move || Supervisor::direct(Arc::clone(&kernel))
            }),
        ),
        (
            "identity box, in-kernel (proposed)",
            Box::new({
                let kernel = Arc::clone(&kernel);
                let tree = Arc::clone(&tree);
                let visitor = visitor.clone();
                move || Supervisor::in_kernel(Arc::clone(&kernel), policy(&visitor, &tree))
            }),
        ),
        (
            "identity box, interposed (this paper)",
            Box::new({
                let kernel = Arc::clone(&kernel);
                let tree = Arc::clone(&tree);
                let visitor = visitor.clone();
                move || {
                    Supervisor::interposed(
                        Arc::clone(&kernel),
                        policy(&visitor, &tree),
                        model,
                    )
                }
            }),
        ),
    ];
    for (name, make_sup) in configs {
        let pid = spawn_in(&kernel, &tree, &visitor);
        {
            // Stage the probe file outside any box, world-readable.
            let mut k = kernel.lock();
            let root = k.vfs().root();
            k.vfs_mut()
                .write_file(root, "/tmp/probe.dat", b"x", &Cred::ROOT)
                .unwrap();
            k.vfs_mut()
                .chmod(root, "/tmp/probe.dat", 0o666, &Cred::ROOT)
                .unwrap();
        }
        let mut sup = make_sup();
        let mut ctx = GuestCtx::new(&mut sup, pid);
        // getpid
        for _ in 0..1000 {
            ctx.getpid();
        }
        let start = Instant::now();
        for _ in 0..iters {
            ctx.getpid();
        }
        let getpid_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;
        // stat
        let start = Instant::now();
        for _ in 0..iters {
            ctx.stat("/tmp/probe.dat").unwrap();
        }
        let stat_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;
        println!("{name:<34} {getpid_us:>12.3} {stat_us:>12.3}");
        tsv.push(format!("{name}\t{getpid_us:.4}\t{stat_us:.4}"));
        let _ = CostModel::calibrated();
    }
    println!("{}", "-".repeat(66));
    println!("expected shape: in-kernel enforcement costs little over the plain");
    println!("kernel; interposition pays the order-of-magnitude trap penalty.");
    idbox_bench::write_tsv(
        "fig6_hier_ablation.tsv",
        false,
        "config\tgetpid_us\tstat_us",
        &tsv,
    );
}
