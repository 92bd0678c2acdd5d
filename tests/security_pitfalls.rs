//! Section 6: Garfinkel's five traps and pitfalls of system-call
//! interposition, tested against this implementation.

use idbox::core::IdentityBox;
use idbox::interpose::{share, GuestCtx, SharedKernel, Supervisor};
use idbox::kernel::{Account, Kernel, OpenFlags, Syscall, SysRet};
use idbox::types::{CostModel, Errno};
use idbox::vfs::Cred;

fn machine() -> (SharedKernel, Cred) {
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("dthain", 1000, 1000)).unwrap();
    let root = k.vfs().root();
    k.vfs_mut().mkdir(root, "/home/dthain", 0o700, &Cred::ROOT).unwrap();
    k.vfs_mut().chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT).unwrap();
    (share(k), Cred::new(1000, 1000))
}

/// Pitfall 1 — "incorrectly replicating the OS": the supervisor must not
/// mirror state that can desynchronize. Here the kernel is the single
/// holder of all state; two process trees mutating the same files stay
/// coherent.
#[test]
fn pitfall1_no_replicated_state() {
    let (kernel, sup_cred) = machine();
    let b1 = IdentityBox::create(kernel.clone(), "Fred", sup_cred).unwrap();
    let b2 = IdentityBox::create(kernel.clone(), "Fred", sup_cred).unwrap();
    // Two supervisors over the same identity interleave operations on
    // one file; every view is the kernel's view.
    let home = b1.home().to_string();
    let path = format!("{home}/shared.log");
    let p1 = path.clone();
    b1.run("writer", move |ctx| {
        ctx.write_file(&p1, b"round1").unwrap();
        0
    })
    .unwrap();
    let p2 = path.clone();
    b2.run("appender", move |ctx| {
        let fd = ctx.open(&p2, OpenFlags::append_create(), 0o644).unwrap();
        ctx.write(fd, b"+round2").unwrap();
        ctx.close(fd).unwrap();
        0
    })
    .unwrap();
    let p3 = path.clone();
    b1.run("reader", move |ctx| {
        assert_eq!(ctx.read_file(&p3).unwrap(), b"round1+round2");
        0
    })
    .unwrap();
}

/// Pitfall 2 — "overlooking indirect paths": symlinks must be judged by
/// their target's directory; unreadable targets cannot be reached
/// through links, nor captured by hard links.
#[test]
fn pitfall2_indirect_paths() {
    let (kernel, sup_cred) = machine();
    {
        let mut k = kernel.lock();
        let root = k.vfs().root();
        k.vfs_mut()
            .write_file(root, "/home/dthain/secret", b"shh", &sup_cred)
            .unwrap();
    }
    let b = IdentityBox::create(kernel, "Freddy", sup_cred).unwrap();
    let home = b.home().to_string();
    b.run("attacker", move |ctx| {
        // A symlink planted in the visitor's own home, pointing at the
        // supervisor's private file.
        ctx.symlink("/home/dthain/secret", &format!("{home}/alias"))
            .unwrap();
        // Opening through the visitor-controlled name must still fail:
        // the ACL consulted is the *target's* directory.
        assert_eq!(
            ctx.open(&format!("{home}/alias"), OpenFlags::rdonly(), 0),
            Err(Errno::EACCES)
        );
        // Hard links to unreadable files are refused outright.
        assert_eq!(
            ctx.link("/home/dthain/secret", &format!("{home}/captured")),
            Err(Errno::EACCES)
        );
        0
    })
    .unwrap();
}

/// Pitfall 3 — "incorrect subsetting of a complex interface": no call is
/// outlawed; every syscall has an implementation and containment comes
/// from access control. A denied operation returns an errno, the
/// program keeps running, and permitted work proceeds.
#[test]
fn pitfall3_no_interface_subsetting() {
    let (kernel, sup_cred) = machine();
    let b = IdentityBox::create(kernel, "Freddy", sup_cred).unwrap();
    let (code, _) = b
        .run("prober", |ctx| {
            // A spread of calls across the whole interface: none may
            // kill the process, each must give a real answer.
            let _ = ctx.stat("/etc/passwd");
            let _ = ctx.readdir("/");
            let _ = ctx.mkdir("/forbidden", 0o755);
            let _ = ctx.unlink("/etc/passwd");
            let _ = ctx.rename("/etc", "/etc2");
            let _ = ctx.symlink("/x", "/y");
            let _ = ctx.chmod("/etc", 0o777);
            let _ = ctx.chown("/etc", 1, 1);
            let _ = ctx.truncate("/etc/passwd", 0);
            // The process is alive and can still do legitimate work.
            ctx.write_file("proof.txt", b"still alive").unwrap();
            assert_eq!(ctx.read_file("proof.txt").unwrap(), b"still alive");
            0
        })
        .unwrap();
    assert_eq!(code, 0);
}

/// Pitfall 4 — "race conditions" between check and use. The supervisor
/// holds only a *shared* kernel guard across a trapped call, which other
/// boxed processes hold too, so a check and its use are not one
/// critical section. What makes them judge the same object is that the
/// kernel acts on the entry the policy resolved and ruled on, instead
/// of resolving the path again (`crates/core/tests/judged_entry.rs`
/// races a namespace swap against that). Here the flipper is itself a
/// boxed process, an administrator of the visitor's home rewriting its
/// ACL through its own supervisor (`syscall_shared` under the shared
/// guard), so its flips interleave with the reader's checks. Every read
/// must be judged consistently before or after a flip: either the open
/// is allowed and the whole read path works on the judged file, or it
/// is a clean `EACCES`. Both outcomes must occur, over a counted minimum
/// of opens that a flip overlapped.
#[test]
fn pitfall4_check_and_use_are_atomic() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    let (kernel, sup_cred) = machine();
    let b = IdentityBox::create(kernel.clone(), "Freddy", sup_cred).unwrap();
    let home = b.home().to_string();
    let path = format!("{home}/data");
    let (with_freddy, without) = ("Freddy rl\nAdmin rwlax\n", "Admin rwlax\n");
    {
        let k = kernel.read();
        let root = k.vfs().root();
        k.vfs().write_file(root, &path, b"payload", &sup_cred).unwrap();
        let acl = format!("{home}/.__acl");
        k.vfs().write_file(root, &acl, with_freddy.as_bytes(), &sup_cred).unwrap();
    }
    let admin = IdentityBox::create(kernel.clone(), "Admin", sup_cred).unwrap();
    let flips = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let flipper = {
        let (flips, stop, home) = (flips.clone(), stop.clone(), home.clone());
        std::thread::spawn(move || {
            admin.run("flipper", |ctx| {
                let acl = format!("{home}/.__acl");
                let mut on = false;
                while !stop.load(Ordering::Relaxed) {
                    let text = if on { with_freddy } else { without };
                    ctx.write_file(&acl, text.as_bytes()).unwrap();
                    flips.fetch_add(1, Ordering::SeqCst);
                    on = !on;
                }
                0
            })
        })
    };
    const MIN_OVERLAPPED: u64 = 100;
    const MAX_OPENS: u64 = 1_000_000;
    let (mut opens, mut overlapped, mut allowed, mut denied) = (0u64, 0u64, 0u64, 0u64);
    let p = path.clone();
    b.run("racer", |ctx| {
        while (overlapped < MIN_OVERLAPPED || allowed == 0 || denied == 0) && opens < MAX_OPENS {
            let before = flips.load(Ordering::SeqCst);
            opens += 1;
            match ctx.open(&p, OpenFlags::rdonly(), 0) {
                Ok(fd) => {
                    // Once opened, the whole read path works.
                    let mut buf = [0u8; 7];
                    assert_eq!(ctx.pread(fd, &mut buf, 0).unwrap(), 7);
                    assert_eq!(&buf, b"payload");
                    ctx.close(fd).unwrap();
                    allowed += 1;
                }
                Err(Errno::EACCES) => denied += 1,
                Err(e) => panic!("unexpected errno {e}"),
            }
            if flips.load(Ordering::SeqCst) != before {
                overlapped += 1;
            }
        }
        0
    })
    .unwrap();
    stop.store(true, Ordering::Relaxed);
    flipper.join().unwrap().unwrap();
    assert!(
        overlapped >= MIN_OVERLAPPED && allowed > 0 && denied > 0,
        "{opens} opens: {overlapped} overlapped a flip, {allowed} allowed, {denied} denied"
    );
}

/// Pitfall 5 — "side effects of denying system calls": the supervisor
/// can inject any return value, including precise errnos; denial is
/// never SIGKILL or a mangled result.
#[test]
fn pitfall5_clean_denial_values() {
    let (kernel, sup_cred) = machine();
    {
        let mut k = kernel.lock();
        let root = k.vfs().root();
        k.vfs_mut()
            .write_file(root, "/home/dthain/secret", b"x", &sup_cred)
            .unwrap();
    }
    let b = IdentityBox::create(kernel.clone(), "Freddy", sup_cred).unwrap();
    b.run("denied", |ctx| {
        // Exact errnos, distinguishing denial kinds.
        assert_eq!(
            ctx.open("/home/dthain/secret", OpenFlags::rdonly(), 0),
            Err(Errno::EACCES)
        );
        assert_eq!(ctx.chown("/tmp", 0, 0), Err(Errno::EPERM));
        assert_eq!(
            ctx.stat("/no/such/path/at/all"),
            Err(Errno::ENOENT)
        );
        0
    })
    .unwrap();
    // And the raw mechanism supports arbitrary injected results: a
    // DenyAll policy turns every path call into EACCES without killing.
    let pid = kernel.lock().spawn(sup_cred, "/tmp", "denied").unwrap();
    let mut sup = Supervisor::interposed(
        kernel,
        Box::new(idbox::interpose::DenyAll),
        CostModel::free_switches(),
    );
    let mut ctx = GuestCtx::new(&mut sup, pid);
    assert_eq!(ctx.stat("/tmp"), Err(Errno::EACCES));
    assert_eq!(ctx.getpid(), pid.0 as i64, "non-path calls still work");
}

/// The supervising user is effectively root with respect to the box: a
/// process *outside* the box modifies the same files freely.
#[test]
fn supervisor_is_omnipotent_outside_the_box() {
    let (kernel, sup_cred) = machine();
    let b = IdentityBox::create(kernel.clone(), "Freddy", sup_cred).unwrap();
    let path = format!("{}/visitors.dat", b.home());
    let p = path.clone();
    b.run("visitor", move |ctx| {
        ctx.write_file(&p, b"visitor data").unwrap();
        0
    })
    .unwrap();
    // dthain, outside any box, ignores the ACL entirely.
    let mut k = kernel.lock();
    let root = k.vfs().root();
    let data = k.vfs_mut().read_file(root, &path, &sup_cred).unwrap();
    assert_eq!(data, b"visitor data");
    k.vfs_mut()
        .write_file(root, &path, b"supervisor was here", &sup_cred)
        .unwrap();
}

/// Boundary probing: malformed register-level calls produce errnos, not
/// supervisor crashes (the "trigger bugs in the supervisor" resistance).
#[test]
fn malformed_syscalls_do_not_crash_the_supervisor() {
    let (kernel, sup_cred) = machine();
    let pid = kernel.lock().spawn(sup_cred, "/tmp", "fuzzer").unwrap();
    let mut k = kernel.lock();
    // Direct kernel-level garbage: out-of-range fds, dead pids, bad
    // whences are all clean errors.
    assert_eq!(k.syscall(pid, Syscall::Close(9999)), Err(Errno::EBADF));
    assert_eq!(k.syscall(pid, Syscall::Read(42, 10)), Err(Errno::EBADF));
    assert_eq!(
        k.syscall(pid, Syscall::Kill(idbox::kernel::Pid(4242), idbox::kernel::Signal::Term)),
        Err(Errno::ESRCH)
    );
    match k.syscall(pid, Syscall::Getpid) {
        Ok(SysRet::Num(n)) => assert_eq!(n, pid.0 as i64),
        other => panic!("unexpected {other:?}"),
    }
}
