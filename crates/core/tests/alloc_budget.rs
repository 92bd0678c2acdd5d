//! Allocation budgets on the boxed-syscall fixed path.
//!
//! Heap allocations per call do not depend on the host's core count or
//! load, so unlike a wall-clock gate these budgets hold on every host.
//! The binary installs a counting global allocator; counts are kept per
//! thread, so the tests may run in parallel.
//!
//! * A warm `Vfs::stat` of a two-component path allocates nothing: the
//!   walk borrows its components, and a dentry-cache hit copies no name.
//! * A warm boxed `stat` through `IdentityBox::supervisor()` stays
//!   within a fixed budget: the path argument copied out of the tracee
//!   is the one allocation the Syscall itself needs; policy, dispatch
//!   and reply add no more than a few on top.

use idbox_core::IdentityBox;
use idbox_interpose::{share, GuestCtx};
use idbox_kernel::{Account, Kernel};
use idbox_vfs::{Cred, Vfs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counter never affects what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim, as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The supervising Unix user of the box.
const SUP: Cred = Cred {
    uid: 1000,
    gid: 1000,
};

#[test]
fn warm_vfs_stat_allocates_nothing() {
    let v = Vfs::new();
    let root = v.root();
    v.mkdir(root, "/src", 0o755, &Cred::ROOT).unwrap();
    v.write_file(root, "/src/main.c", b"int main;", &Cred::ROOT)
        .unwrap();
    // An unprivileged caller, so every step runs the search-permission
    // check; the first call fills the dentry cache.
    let st = v.stat(root, "/src/main.c", true, &SUP).unwrap();
    let n = allocs_in(|| {
        assert_eq!(v.stat(root, "/src/main.c", true, &SUP), Ok(st));
    });
    assert_eq!(n, 0, "warm two-component Vfs::stat allocated {n} times");
}

#[test]
fn warm_boxed_stat_stays_within_budget() {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new("dthain", SUP.uid, SUP.gid))
        .unwrap();
    let kernel = share(k);
    let b = IdentityBox::create(kernel, "globus:/O=UnivNowhere/CN=Fred", SUP).unwrap();
    let pid = b.spawn_process("budget").unwrap();
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    ctx.mkdir("src", 0o755).unwrap();
    ctx.write_file("src/main.c", b"int main;").unwrap();
    // Warm the dentry cache, the verdict cache and the guest VM.
    let st = ctx.stat("src/main.c").unwrap();
    let n = allocs_in(|| {
        assert_eq!(ctx.stat("src/main.c"), Ok(st));
    });
    assert!(n <= 8, "warm boxed stat allocated {n} times (budget 8)");
}
