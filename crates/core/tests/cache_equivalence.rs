//! Property test: the policy caches are a pure optimization.
//!
//! A cached identity-box policy and an uncached one, asked about the
//! same call against the same kernel state, must produce identical
//! `PolicyDecision`s (the entries they judged included) — across ACL
//! rewrites (a fresh mtime on the ACL file), ACL removal (ENOENT
//! fallback, a changed ACL binding), renames of the ACL
//! file itself, symlinks pointing across directories, subdirectory
//! creation and removal (inode recycling), permission flips on the
//! containing directory (non-ENOENT lookup errors, which must fail
//! closed in both modes), and the shared-borrow fast path
//! (`check_read`). Every check is asked twice of the cached policy so
//! the warm verdict-cache path is exercised explicitly.

use idbox_acl::{Acl, AclEntry, Rights};
use idbox_core::{write_acl, IdentityBoxPolicy};
use idbox_interpose::SyscallPolicy;
use idbox_kernel::{Account, Kernel, OpenFlags, Syscall};
use idbox_types::Identity;
use idbox_vfs::{Access, Cred};
use proptest::prelude::*;

const NDIRS: usize = 6;

#[derive(Debug, Clone)]
enum Op {
    /// Ask both policies about a call touching directory `d`.
    Check(usize, usize),
    /// Install ACL variant `v` on directory `d`.
    SetAcl(usize, usize),
    /// Remove directory `d`'s ACL file.
    DropAcl(usize),
    /// Flip directory `d`'s Unix mode (and owner, for the 0o707 case:
    /// supervisor locked out by group bits, `nobody` allowed by world
    /// bits — the non-ENOENT lookup-error scenario).
    Chmod(usize, u16),
    /// Rename directory `d`'s ACL file to a plain name (revoking the
    /// ACL without unlinking it) — or back, restoring it.
    RenameAcl(usize, bool),
    /// Create (`true`) or remove (`false`) subdirectory `d`/sub —
    /// churns inodes so recycled numbers land in live cache keys.
    Subdir(usize, bool),
    /// Plant (`true`) or unlink (`false`) a symlink at `a`/ln pointing
    /// into `b`'s namespace (the target's directory governs access).
    SymlinkAt(usize, usize, bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0usize..NDIRS), (0usize..10)).prop_map(|(d, k)| Op::Check(d, k)),
        ((0usize..NDIRS), (0usize..6)).prop_map(|(d, v)| Op::SetAcl(d, v)),
        (0usize..NDIRS).prop_map(Op::DropAcl),
        (
            (0usize..NDIRS),
            prop_oneof![
                Just(0o755u16),
                Just(0o700u16),
                Just(0o707u16),
                Just(0o777u16),
                Just(0o000u16)
            ]
        )
            .prop_map(|(d, m)| Op::Chmod(d, m)),
        ((0usize..NDIRS), any::<bool>()).prop_map(|(d, away)| Op::RenameAcl(d, away)),
        ((0usize..NDIRS), any::<bool>()).prop_map(|(d, mk)| Op::Subdir(d, mk)),
        ((0usize..NDIRS), (0usize..NDIRS), any::<bool>())
            .prop_map(|(a, b, mk)| Op::SymlinkAt(a, b, mk)),
    ]
}

fn dir_path(d: usize) -> String {
    format!("/w/d{d}")
}

fn acl_variant(v: usize) -> Acl {
    let fred = "globus:/O=UnivNowhere/CN=Fred";
    match v {
        0 => Acl::from_entries([AclEntry::new(fred, Rights::FULL)]),
        1 => Acl::from_entries([AclEntry::new(fred, Rights::READ | Rights::LIST)]),
        2 => {
            let mut acl = Acl::empty();
            acl.set("globus:*", Rights::READ | Rights::LIST);
            acl.set_reserve("globus:*", Rights::NONE, Rights::RWLAX);
            acl
        }
        3 => Acl::empty(),
        4 => Acl::from_entries([AclEntry::new("kerberos:george@realm", Rights::FULL)]),
        _ => Acl::from_entries([AclEntry::new(fred, Rights::RWLAX)]),
    }
}

fn call_kind(d: usize, k: usize) -> Syscall {
    let dir = dir_path(d);
    match k {
        0 => Syscall::Stat(format!("{dir}/file")),
        1 => Syscall::Open(format!("{dir}/file"), OpenFlags::rdonly(), 0),
        2 => Syscall::Open(format!("{dir}/new"), OpenFlags::wronly_create_trunc(), 0o644),
        3 => Syscall::Readdir(dir),
        4 => Syscall::Unlink(format!("{dir}/file")),
        5 => Syscall::Mkdir(format!("{dir}/sub"), 0o755),
        6 => Syscall::AccessCheck(format!("{dir}/file"), Access::R),
        7 => Syscall::Stat(format!("{dir}/ln")), // through a symlink
        8 => Syscall::Open(format!("{dir}/ln"), OpenFlags::rdonly(), 0),
        _ => Syscall::Stat("/etc/passwd".to_string()), // rewrite path
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_and_uncached_decisions_agree(ops in proptest::collection::vec(op(), 1..60)) {
        let mut k = Kernel::new();
        k.accounts_mut().add(Account::new("dthain", 1000, 1000)).unwrap();
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        k.vfs_mut().mkdir(root, "/w", 0o755, &Cred::ROOT).unwrap();
        k.vfs_mut().chown(root, "/w", 1000, 1000, &Cred::ROOT).unwrap();
        for d in 0..NDIRS {
            let dir = k.vfs_mut().mkdir(root, &dir_path(d), 0o755, &sup).unwrap();
            write_acl(k.vfs_mut(), dir, &acl_variant(0), &sup).unwrap();
            k.vfs_mut()
                .write_file(root, &format!("{}/file", dir_path(d)), b"x", &sup)
                .unwrap();
        }
        k.vfs_mut().write_file(root, "/w/.passwd", b"fred:x::\n", &sup).unwrap();
        let pid = k.spawn(sup, "/w", "prop").unwrap();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        k.set_identity(pid, fred.clone()).unwrap();

        let mut cached = IdentityBoxPolicy::new(fred.clone(), sup, "/w/.passwd", true);
        let mut uncached = IdentityBoxPolicy::new(fred, sup, "/w/.passwd", false);

        for op in ops {
            match op {
                Op::Check(d, kind) => {
                    let call = call_kind(d, kind);
                    let a = cached.check(&k, pid, &call);
                    let b = uncached.check(&k, pid, &call);
                    prop_assert_eq!(&a, &b, "cached vs uncached on {:?}", call);
                    // Ask again: the verdict cache is warm now, and the
                    // answer must not change.
                    let warm = cached.check(&k, pid, &call);
                    prop_assert_eq!(&warm, &b, "warm cache changed ruling on {:?}", call);
                }
                Op::SetAcl(d, v) => {
                    let dir = k
                        .vfs()
                        .resolve(root, &dir_path(d), true, &Cred::ROOT)
                        .unwrap();
                    write_acl(k.vfs_mut(), dir, &acl_variant(v), &Cred::ROOT).unwrap();
                }
                Op::DropAcl(d) => {
                    let dir = k
                        .vfs()
                        .resolve(root, &dir_path(d), true, &Cred::ROOT)
                        .unwrap();
                    let _ = k
                        .vfs_mut()
                        .unlink(dir, idbox_types::ACL_FILE_NAME, &Cred::ROOT);
                }
                Op::Chmod(d, mode) => {
                    let path = dir_path(d);
                    let (uid, gid) = if mode == 0o707 { (0, 1000) } else { (1000, 1000) };
                    k.vfs_mut().chown(root, &path, uid, gid, &Cred::ROOT).unwrap();
                    k.vfs_mut().chmod(root, &path, mode, &Cred::ROOT).unwrap();
                }
                Op::RenameAcl(d, away) => {
                    let dir = dir_path(d);
                    let acl = format!("{dir}/{}", idbox_types::ACL_FILE_NAME);
                    let plain = format!("{dir}/was_acl");
                    let (from, to) = if away { (acl, plain) } else { (plain, acl) };
                    // Fails cleanly when the source is absent.
                    let _ = k.vfs_mut().rename(root, &from, &to, &Cred::ROOT);
                }
                Op::Subdir(d, mk) => {
                    let sub = format!("{}/sub", dir_path(d));
                    if mk {
                        let _ = k.vfs_mut().mkdir(root, &sub, 0o755, &Cred::ROOT);
                    } else {
                        let _ = k.vfs_mut().rmdir(root, &sub, &Cred::ROOT);
                    }
                }
                Op::SymlinkAt(a, b, mk) => {
                    let ln = format!("{}/ln", dir_path(a));
                    if mk {
                        let target = format!("{}/file", dir_path(b));
                        let _ = k.vfs_mut().symlink(root, &target, &ln, &Cred::ROOT);
                    } else {
                        let _ = k.vfs_mut().unlink(root, &ln, &Cred::ROOT);
                    }
                }
            }
        }
    }
}
