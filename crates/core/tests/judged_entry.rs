//! Check and use judge the same object (Garfinkel's "race conditions"
//! pitfall): the kernel acts on the entry the identity box's policy
//! resolved and ruled on, never on whatever the path names by the time
//! the call runs.
//!
//! * Deterministic: a test policy wraps `IdentityBoxPolicy` and, right
//!   after it allows an `open` (or `stat`) of `sub/secret`, replaces
//!   `sub` with a symlink to the supervisor's private directory. The
//!   call must still act on the judged file.
//! * Threaded: two boxed processes of one identity race. One swaps
//!   `d/sub` between a real directory and a symlink to the supervisor's
//!   private directory, by renaming `d` between two directories (the
//!   box judges an unlink or rename of a symlink where its target lives,
//!   so a visitor cannot remove a link out of the box once made); the
//!   other opens and reads `d/sub/secret`. No read may return the
//!   supervisor's bytes, over a counted minimum of opens that a swap
//!   overlapped (a count, not a duration, so the test means the same on
//!   any host).

use idbox_core::{IdentityBox, IdentityBoxPolicy};
use idbox_interpose::{share, GuestCtx, PolicyDecision, SharedKernel, Supervisor, SyscallPolicy};
use idbox_kernel::{Account, Kernel, OpenFlags, Pid, SysRet, Syscall};
use idbox_types::{CostModel, Errno, Identity, SysResult};
use idbox_vfs::Cred;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const SUP: Cred = Cred {
    uid: 1000,
    gid: 1000,
};
const PRIVATE: &[u8] = b"the supervisor's own secret";
const PUBLIC: &[u8] = b"box";

/// A kernel whose supervising user `dthain` keeps a private file, and a
/// box for Fred whose home holds `sub/secret`.
fn machine() -> (SharedKernel, IdentityBox) {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new("dthain", SUP.uid, SUP.gid))
        .unwrap();
    let root = k.vfs().root();
    k.vfs()
        .mkdir(root, "/home/dthain", 0o700, &Cred::ROOT)
        .unwrap();
    k.vfs()
        .chown(root, "/home/dthain", SUP.uid, SUP.gid, &Cred::ROOT)
        .unwrap();
    k.vfs()
        .write_file(root, "/home/dthain/secret", PRIVATE, &SUP)
        .unwrap();
    k.vfs()
        .chmod(root, "/home/dthain/secret", 0o600, &SUP)
        .unwrap();
    let kernel = share(k);
    let b = IdentityBox::create(Arc::clone(&kernel), "Fred", SUP).unwrap();
    {
        let k = kernel.read();
        let root = k.vfs().root();
        k.vfs()
            .mkdir(root, &format!("{}/sub", b.home()), 0o755, &SUP)
            .unwrap();
        k.vfs()
            .write_file(root, &format!("{}/sub/secret", b.home()), PUBLIC, &SUP)
            .unwrap();
    }
    (kernel, b)
}

/// The box policy, plus an attacker who moves faster than the kernel:
/// while `armed`, right after the policy allows a call naming
/// `sub/secret`, `sub` is renamed away and replaced by a symlink to the
/// supervisor's private directory.
struct SwapAfterCheck {
    inner: IdentityBoxPolicy,
    home: String,
    armed: Arc<AtomicBool>,
}

impl SyscallPolicy for SwapAfterCheck {
    fn name(&self) -> &str {
        "swap-after-check"
    }

    fn check<'c>(&mut self, kernel: &Kernel, pid: Pid, call: &'c Syscall) -> PolicyDecision<'c> {
        let decision = self.inner.check(kernel, pid, call);
        let names_secret = call.paths().any(|p| p.ends_with("sub/secret"));
        if !matches!(decision, PolicyDecision::Deny(_)) && names_secret && self.armed.swap(false, Ordering::SeqCst) {
            let vfs = kernel.vfs();
            let root = vfs.root();
            let sub = format!("{}/sub", self.home);
            vfs.rename(root, &sub, &format!("{}/judged", self.home), &SUP)
                .unwrap();
            vfs.symlink(root, "/home/dthain", &sub, &SUP).unwrap();
        }
        decision
    }

    fn post(&mut self, kernel: &Kernel, pid: Pid, call: &Syscall, result: &mut SysResult<SysRet>) {
        self.inner.post(kernel, pid, call, result);
    }
}

/// Undo a swap: `sub` is the judged directory again.
fn unswap(kernel: &SharedKernel, home: &str) {
    let k = kernel.read();
    let root = k.vfs().root();
    k.vfs().unlink(root, &format!("{home}/sub"), &SUP).unwrap();
    k.vfs()
        .rename(
            root,
            &format!("{home}/judged"),
            &format!("{home}/sub"),
            &SUP,
        )
        .unwrap();
}

#[test]
fn the_kernel_acts_on_the_judged_file_after_a_swap() {
    let (kernel, b) = machine();
    let armed = Arc::new(AtomicBool::new(true));
    let policy = SwapAfterCheck {
        inner: IdentityBoxPolicy::new(Identity::new("Fred"), SUP, b.passwd_copy(), true),
        home: b.home().to_string(),
        armed: Arc::clone(&armed),
    };
    let mut sup = Supervisor::interposed(
        Arc::clone(&kernel),
        Box::new(policy),
        CostModel::free_switches(),
    );
    let pid = b.spawn_process("victim").unwrap();
    let mut ctx = GuestCtx::new(&mut sup, pid);

    let fd = ctx.open("sub/secret", OpenFlags::rdonly(), 0).unwrap();
    assert!(!armed.load(Ordering::SeqCst), "the swap must have run");
    let mut buf = [0u8; 64];
    let n = ctx.pread(fd, &mut buf, 0).unwrap();
    assert_eq!(&buf[..n], PUBLIC, "open acted on the supervisor's file");
    ctx.close(fd).unwrap();
    // Judged anew, the same path now leads outside the box: denied.
    assert_eq!(
        ctx.open("sub/secret", OpenFlags::rdonly(), 0),
        Err(Errno::EACCES)
    );

    unswap(&kernel, b.home());
    armed.store(true, Ordering::SeqCst);
    let st = ctx.stat("sub/secret").unwrap();
    assert!(!armed.load(Ordering::SeqCst), "the swap must have run");
    assert_eq!(
        st.size,
        PUBLIC.len() as u64,
        "stat acted on the supervisor's file"
    );
    ctx.exit(0);
}

/// Opens that a swap overlapped (a swap completed between the open's
/// start and the end of its read) before the race may end.
const MIN_OVERLAPPED: u64 = 200;

/// A ceiling on all opens, so a host that cannot overlap fails the test
/// instead of hanging it.
const MAX_OPENS: u64 = 2_000_000;

#[test]
fn two_boxes_racing_a_swap_never_read_the_supervisors_file() {
    let (kernel, b) = machine();
    {
        // d/sub is the real directory; e/sub leads out of the box.
        let k = kernel.read();
        let (root, home) = (k.vfs().root(), b.home());
        k.vfs()
            .mkdir(root, &format!("{home}/d"), 0o755, &SUP)
            .unwrap();
        k.vfs()
            .rename(root, &format!("{home}/sub"), &format!("{home}/d/sub"), &SUP)
            .unwrap();
        k.vfs()
            .mkdir(root, &format!("{home}/e"), 0o755, &SUP)
            .unwrap();
        k.vfs()
            .symlink(root, "/home/dthain", &format!("{home}/e/sub"), &SUP)
            .unwrap();
    }
    let swapper_box = IdentityBox::create(Arc::clone(&kernel), "Fred", SUP).unwrap();
    let swaps = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let swapper = {
        let (swaps, done) = (Arc::clone(&swaps), Arc::clone(&done));
        std::thread::spawn(move || {
            swapper_box.run("swapper", |ctx| {
                while !done.load(Ordering::Relaxed) {
                    // d/sub: real directory -> missing -> symlink ->
                    // missing -> real directory.
                    ctx.rename("d", "real").unwrap();
                    ctx.rename("e", "d").unwrap();
                    swaps.fetch_add(1, Ordering::SeqCst);
                    ctx.rename("d", "e").unwrap();
                    ctx.rename("real", "d").unwrap();
                    swaps.fetch_add(1, Ordering::SeqCst);
                }
                0
            })
        })
    };
    let (mut opens, mut overlapped, mut reads) = (0u64, 0u64, 0u64);
    b.run("reader", |ctx| {
        let mut buf = [0u8; 64];
        while overlapped < MIN_OVERLAPPED && opens < MAX_OPENS {
            let before = swaps.load(Ordering::SeqCst);
            opens += 1;
            let fd = match ctx.open("d/sub/secret", OpenFlags::rdonly(), 0) {
                Ok(fd) => fd,
                Err(Errno::ENOENT | Errno::EACCES) => continue,
                Err(e) => panic!("unexpected errno {e}"),
            };
            let n = ctx.pread(fd, &mut buf, 0).unwrap();
            ctx.close(fd).unwrap();
            assert_eq!(
                &buf[..n],
                PUBLIC,
                "a boxed read returned the supervisor's bytes"
            );
            reads += 1;
            if swaps.load(Ordering::SeqCst) != before {
                overlapped += 1;
            }
        }
        0
    })
    .unwrap();
    done.store(true, Ordering::Relaxed);
    swapper.join().unwrap().unwrap();
    eprintln!("{opens} opens, {reads} reads, {overlapped} overlapped a swap");
    assert!(
        overlapped >= MIN_OVERLAPPED,
        "only {overlapped} of {opens} opens overlapped a swap"
    );
}
