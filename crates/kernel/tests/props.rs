//! Property tests for the kernel: process-table and fd-table invariants
//! under random lifecycle operations.

use idbox_kernel::{Kernel, OpenFlags, Pid, ProcState, Signal, Syscall, SysRet};
use idbox_types::Errno;
use idbox_vfs::Cred;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Fork(usize),
    Exit(usize, i32),
    Wait(usize),
    Kill(usize, usize),
    Open(usize),
    Close(usize, usize),
    Write(usize, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8).prop_map(Op::Fork),
        ((0usize..8), 0i32..100).prop_map(|(p, c)| Op::Exit(p, c)),
        (0usize..8).prop_map(Op::Wait),
        ((0usize..8), (0usize..8)).prop_map(|(a, b)| Op::Kill(a, b)),
        (0usize..8).prop_map(Op::Open),
        ((0usize..8), (0usize..6)).prop_map(|(p, fd)| Op::Close(p, fd)),
        ((0usize..8), any::<u8>()).prop_map(|(p, b)| Op::Write(p, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random lifecycle storms never corrupt the kernel: no panics, no
    /// zombie leaks beyond un-reaped children, inode pins balanced after
    /// all processes exit.
    #[test]
    fn process_storm_preserves_invariants(ops in proptest::collection::vec(op(), 1..80)) {
        let mut k = Kernel::new();
        let base_inodes = k.vfs().live_inodes();
        let root_proc = k.spawn(Cred::new(1000, 1000), "/tmp", "storm").unwrap();
        let mut pids: Vec<Pid> = vec![root_proc];
        for op in ops {
            match op {
                Op::Fork(i) => {
                    let p = pids[i % pids.len()];
                    if let Ok(SysRet::Num(child)) = k.syscall(p, Syscall::Fork) {
                        pids.push(Pid(child as u32));
                    }
                }
                Op::Exit(i, code) => {
                    let p = pids[i % pids.len()];
                    let _ = k.syscall(p, Syscall::Exit(code));
                }
                Op::Wait(i) => {
                    let p = pids[i % pids.len()];
                    if let Ok(SysRet::Reaped(child, _)) = k.syscall(p, Syscall::Wait) {
                        pids.retain(|&q| q != child);
                    }
                }
                Op::Kill(a, b) => {
                    let (pa, pb) = (pids[a % pids.len()], pids[b % pids.len()]);
                    let _ = k.syscall(pa, Syscall::Kill(pb, Signal::Kill));
                }
                Op::Open(i) => {
                    let p = pids[i % pids.len()];
                    let _ = k.syscall(
                        p,
                        Syscall::Open("/tmp/shared".into(), OpenFlags::rdwr_create(), 0o666),
                    );
                }
                Op::Close(i, fd) => {
                    let p = pids[i % pids.len()];
                    let _ = k.syscall(p, Syscall::Close(fd));
                }
                Op::Write(i, byte) => {
                    let p = pids[i % pids.len()];
                    let _ = k.syscall(p, Syscall::Write(0, vec![byte].into()));
                }
            }
            // Invariant: every tracked pid still resolves (alive or
            // zombie) until reaped.
            for &p in &pids {
                prop_assert!(k.process(p).is_ok(), "{p} vanished without a wait");
            }
        }
        // Drain: kill everything (as root-owned init would), reap from
        // init, and verify the file's inode pins unwind.
        let all: Vec<Pid> = pids.clone();
        for p in all {
            let _ = k.syscall(p, Syscall::Exit(0));
        }
        // Everything reparents to init (pid 1); reap until ECHILD.
        loop {
            match k.syscall(Pid(1), Syscall::Wait) {
                Ok(_) => {}
                Err(Errno::ECHILD) => break,
                Err(Errno::EAGAIN) => break, // only live procs left: none
                Err(e) => prop_assert!(false, "unexpected {e}"),
            }
        }
        // Only init (and maybe /tmp/shared with nlink 1) remain: pins
        // are balanced, so unlinking frees the inode.
        let root = k.vfs().root();
        let _ = k.vfs_mut().unlink(root, "/tmp/shared", &Cred::ROOT);
        prop_assert_eq!(k.vfs().live_inodes(), base_inodes);
    }

    /// fds are process-private: numbers from one process never work in
    /// another (freshly spawned) one.
    #[test]
    fn fds_are_per_process(n_opens in 1usize..6) {
        let mut k = Kernel::new();
        let a = k.spawn(Cred::ROOT, "/tmp", "a").unwrap();
        let b = k.spawn(Cred::ROOT, "/tmp", "b").unwrap();
        let mut fds = Vec::new();
        for i in 0..n_opens {
            let ret = k
                .syscall(a, Syscall::Open(
                    format!("/tmp/f{i}"),
                    OpenFlags::rdwr_create(),
                    0o644,
                ))
                .unwrap();
            fds.push(ret.num() as usize);
        }
        for fd in fds {
            prop_assert_eq!(
                k.syscall(b, Syscall::Close(fd)),
                Err(Errno::EBADF),
                "fd {} leaked across processes", fd
            );
            k.syscall(a, Syscall::Close(fd)).unwrap();
        }
    }

    /// Zombies hold their exit codes faithfully for any code value.
    #[test]
    fn exit_codes_roundtrip(code in any::<i32>()) {
        let mut k = Kernel::new();
        let parent = k.spawn(Cred::ROOT, "/tmp", "p").unwrap();
        let child = Pid(k.syscall(parent, Syscall::Fork).unwrap().num() as u32);
        k.syscall(child, Syscall::Exit(code)).unwrap();
        prop_assert_eq!(
            k.process(child).unwrap().state,
            ProcState::Zombie(code)
        );
        match k.syscall(parent, Syscall::Wait).unwrap() {
            SysRet::Reaped(p, c) => {
                prop_assert_eq!(p, child);
                prop_assert_eq!(c, code);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}
