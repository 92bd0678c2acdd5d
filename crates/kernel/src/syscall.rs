//! The typed system-call interface.
//!
//! This is the boundary the interposition agent traps: every action a
//! guest program can take is one of these calls. The register-level
//! encoding (syscall numbers, argument marshalling through guest memory)
//! lives in `idbox-interpose`; the kernel itself only sees these typed
//! values.

use crate::process::{OpenFlags, Pid, Signal};
use idbox_types::Identity;
use idbox_vfs::{Access, DirEntry, ExtentList, StatBuf};
use std::sync::Arc;

/// `lseek` origins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file.
    Set,
    /// From the current offset.
    Cur,
    /// From the end of the file.
    End,
}

/// A decoded system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// The null syscall; also what nullified calls become.
    Getpid,
    /// Parent pid.
    Getppid,
    /// Caller's uid.
    Getuid,
    /// Look up metadata by path (following symlinks).
    Stat(String),
    /// Look up metadata by path (not following the final symlink).
    Lstat(String),
    /// Metadata of an open fd.
    Fstat(usize),
    /// Open (and possibly create) a file.
    Open(String, OpenFlags, u16),
    /// Close an fd.
    Close(usize),
    /// Read up to `len` bytes at the current offset.
    Read(usize, usize),
    /// Write bytes at the current offset.
    Write(usize, Arc<[u8]>),
    /// Positioned read (no offset change).
    Pread(usize, usize, u64),
    /// Positioned write (no offset change). The buffer is the one
    /// payload type of both writes: a file the write appends to adopts
    /// it as its chunks ([`idbox_vfs::Vfs::write_owned`]).
    Pwrite(usize, Arc<[u8]>, u64),
    /// Move the file offset.
    Lseek(usize, i64, Whence),
    /// Duplicate an fd.
    Dup(usize),
    /// Create a directory.
    Mkdir(String, u16),
    /// Remove an empty directory.
    Rmdir(String),
    /// Remove a file name.
    Unlink(String),
    /// Create a hard link (old, new).
    Link(String, String),
    /// Create a symbolic link (target, linkpath).
    Symlink(String, String),
    /// Read a symlink's target.
    Readlink(String),
    /// Rename (old, new).
    Rename(String, String),
    /// Truncate a path to a length.
    Truncate(String, u64),
    /// Check accessibility.
    AccessCheck(String, Access),
    /// List a directory.
    Readdir(String),
    /// Change permission bits.
    Chmod(String, u16),
    /// Change ownership.
    Chown(String, u32, u32),
    /// Change working directory.
    Chdir(String),
    /// Report the working directory.
    Getcwd,
    /// Set the file-creation mask; returns the old one.
    Umask(u16),
    /// Create a child process.
    Fork,
    /// Replace the program image (simulated: records the name).
    Exec(String),
    /// Exit with a status.
    Exit(i32),
    /// Wait for any child to exit.
    Wait,
    /// Send a signal.
    Kill(Pid, Signal),
    /// Poll and clear pending signals.
    SigPending,
    /// Create a pipe; returns (read fd, write fd).
    Pipe,
    /// The new call the identity box adds: the caller's high-level name
    /// (paper, Section 3). Outside a box it reports the Unix account.
    GetUserName,
    /// Read one variable from the process's environment (simulated:
    /// the supervisor seeds the table, children inherit it on fork).
    Getenv(String),
    /// Positioned read (`fd`, `len`, `off`) whose extents the caller
    /// parks instead of copying into a guest buffer: the zero-copy data
    /// plane's read primitive. The kernel serves it exactly as `pread`.
    Preadx(usize, usize, u64),
}

impl Syscall {
    /// A short name for traces and statistics.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.slot()]
    }

    /// All syscall names, one per variant, in declaration order. The
    /// kernel's statistics table is indexed by [`Syscall::slot`], which
    /// must agree with this array (checked by a test below).
    pub const NAMES: [&'static str; 39] = [
        "getpid",
        "getppid",
        "getuid",
        "stat",
        "lstat",
        "fstat",
        "open",
        "close",
        "read",
        "write",
        "pread",
        "pwrite",
        "lseek",
        "dup",
        "mkdir",
        "rmdir",
        "unlink",
        "link",
        "symlink",
        "readlink",
        "rename",
        "truncate",
        "access",
        "readdir",
        "chmod",
        "chown",
        "chdir",
        "getcwd",
        "umask",
        "fork",
        "exec",
        "exit",
        "wait",
        "kill",
        "sigpending",
        "pipe",
        "get_user_name",
        "getenv",
        "preadx",
    ];

    /// This call's index into [`Syscall::NAMES`] (and into the kernel's
    /// fixed statistics table).
    pub fn slot(&self) -> usize {
        use Syscall::*;
        match self {
            Getpid => 0,
            Getppid => 1,
            Getuid => 2,
            Stat(_) => 3,
            Lstat(_) => 4,
            Fstat(_) => 5,
            Open(..) => 6,
            Close(_) => 7,
            Read(..) => 8,
            Write(..) => 9,
            Pread(..) => 10,
            Pwrite(..) => 11,
            Lseek(..) => 12,
            Dup(_) => 13,
            Mkdir(..) => 14,
            Rmdir(_) => 15,
            Unlink(_) => 16,
            Link(..) => 17,
            Symlink(..) => 18,
            Readlink(_) => 19,
            Rename(..) => 20,
            Truncate(..) => 21,
            AccessCheck(..) => 22,
            Readdir(_) => 23,
            Chmod(..) => 24,
            Chown(..) => 25,
            Chdir(_) => 26,
            Getcwd => 27,
            Umask(_) => 28,
            Fork => 29,
            Exec(_) => 30,
            Exit(_) => 31,
            Wait => 32,
            Kill(..) => 33,
            SigPending => 34,
            Pipe => 35,
            GetUserName => 36,
            Getenv(_) => 37,
            Preadx(..) => 38,
        }
    }

    /// The paths this call names, first to last (zero to two): what the
    /// identity box rules on, the audit ring records and a forensic
    /// trace reports.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        let (first, second, _) = self.path_args();
        first.into_iter().chain(second).map(String::as_str)
    }

    /// The path whose resolved entry is exactly the object the call
    /// acts on, when it has one: the object a symlink-following walk
    /// reaches, or its creation site for a creating `open`. A policy
    /// that resolved this path to judge the call hands the kernel that
    /// entry ([`crate::Kernel::syscall_judged`]), and the kernel acts on
    /// it instead of walking the path again. `lstat` and `readlink` act
    /// on a final symlink itself, and the namespace calls on a
    /// directory entry rather than the object it names, so they walk
    /// again.
    pub fn judged_path(&self) -> Option<&str> {
        match self.path_args() {
            (Some(p), None, true) => Some(p),
            _ => None,
        }
    }

    /// The one table behind [`Syscall::paths`] and
    /// [`Syscall::judged_path`]: the path arguments, and whether the
    /// only one is judged.
    fn path_args(&self) -> (Option<&String>, Option<&String>, bool) {
        use Syscall::*;
        match self {
            Stat(p) | Open(p, ..) | AccessCheck(p, _) | Readdir(p) | Chdir(p) | Exec(p) => {
                (Some(p), None, true)
            }
            Lstat(p) | Mkdir(p, _) | Rmdir(p) | Unlink(p) | Readlink(p) | Truncate(p, _)
            | Chmod(p, _) | Chown(p, ..) => (Some(p), None, false),
            Link(a, b) | Symlink(a, b) | Rename(a, b) => (Some(a), Some(b), false),
            _ => (None, None, false),
        }
    }
}

/// The result of a successful system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysRet {
    /// No interesting value (close, mkdir, ...).
    Unit,
    /// A small integer (pid, fd, count, old umask, uid...).
    Num(i64),
    /// A path or name (getcwd, readlink, get_user_name).
    Text(String),
    /// File metadata.
    Stat(StatBuf),
    /// Directory listing.
    Entries(Vec<DirEntry>),
    /// A reaped child: (pid, exit status).
    Reaped(Pid, i32),
    /// Pending signals, oldest first.
    Signals(Vec<Signal>),
    /// A pipe's (read fd, write fd) pair.
    PipeFds(usize, usize),
    /// The identity reported by `get_user_name`.
    Name(Identity),
    /// Bytes read (`read`, `pread`, `preadx`): for a local file, `Arc`
    /// clones of its chunks, no copy made. Compares by content, so
    /// chunking differences are invisible to equality-based tests.
    Extents(ExtentList),
}

impl SysRet {
    /// Extract a numeric result; panics on mismatch (test helper).
    pub fn num(&self) -> i64 {
        match self {
            SysRet::Num(n) => *n,
            other => panic!("expected Num, got {other:?}"),
        }
    }

    /// Extract the bytes read, copied into one buffer; panics on
    /// mismatch (test helper).
    pub fn data(&self) -> Vec<u8> {
        match self {
            SysRet::Extents(x) => x.to_vec(),
            other => panic!("expected Extents, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Syscall::Getpid.name(), "getpid");
        assert_eq!(Syscall::Stat("/x".into()).name(), "stat");
        assert_eq!(Syscall::GetUserName.name(), "get_user_name");
    }

    #[test]
    fn paths_are_the_names_a_call_rules_on() {
        let paths = |c: Syscall| c.paths().map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(paths(Syscall::Open("/f".into(), OpenFlags::rdonly(), 0)), ["/f"]);
        assert_eq!(paths(Syscall::Chown("/f".into(), 1, 2)), ["/f"]);
        assert_eq!(paths(Syscall::Rename("/a".into(), "/b".into())), ["/a", "/b"]);
        assert_eq!(paths(Syscall::Symlink("t".into(), "/l".into())), ["t", "/l"]);
        assert!(paths(Syscall::Getpid).is_empty());
        assert!(paths(Syscall::Read(0, 10)).is_empty());
        assert!(paths(Syscall::GetUserName).is_empty());
        assert!(paths(Syscall::Getenv("PATH".into())).is_empty());
    }

    #[test]
    fn judged_paths_are_the_objects_the_call_acts_on() {
        let judged = |c: Syscall| c.judged_path().map(str::to_owned);
        let create = OpenFlags::wronly_create_trunc();
        assert_eq!(judged(Syscall::Open("/f".into(), create, 0o644)).as_deref(), Some("/f"));
        assert_eq!(judged(Syscall::Stat("/f".into())).as_deref(), Some("/f"));
        assert_eq!(judged(Syscall::Exec("/bin/sh".into())).as_deref(), Some("/bin/sh"));
        assert_eq!(judged(Syscall::Readdir("/d".into())).as_deref(), Some("/d"));
        assert_eq!(judged(Syscall::Lstat("/f".into())), None);
        assert_eq!(judged(Syscall::Unlink("/f".into())), None);
        assert_eq!(judged(Syscall::Rename("/a".into(), "/b".into())), None);
        assert_eq!(judged(Syscall::Getpid), None);
    }

    #[test]
    fn slots_and_names_agree() {
        use Syscall::*;
        let samples: Vec<Syscall> = vec![
            Getpid,
            Getppid,
            Getuid,
            Stat("/".into()),
            Lstat("/".into()),
            Fstat(0),
            Open("/".into(), OpenFlags::rdonly(), 0),
            Close(0),
            Read(0, 0),
            Write(0, vec![].into()),
            Pread(0, 0, 0),
            Pwrite(0, vec![].into(), 0),
            Lseek(0, 0, Whence::Set),
            Dup(0),
            Mkdir("/".into(), 0),
            Rmdir("/".into()),
            Unlink("/".into()),
            Link("/".into(), "/".into()),
            Symlink("/".into(), "/".into()),
            Readlink("/".into()),
            Rename("/".into(), "/".into()),
            Truncate("/".into(), 0),
            AccessCheck("/".into(), Access::R),
            Readdir("/".into()),
            Chmod("/".into(), 0),
            Chown("/".into(), 0, 0),
            Chdir("/".into()),
            Getcwd,
            Umask(0),
            Fork,
            Exec("/".into()),
            Exit(0),
            Wait,
            Kill(Pid(1), Signal::Term),
            SigPending,
            Pipe,
            GetUserName,
            Getenv(String::new()),
            Preadx(0, 0, 0),
        ];
        assert_eq!(samples.len(), Syscall::NAMES.len());
        for (i, call) in samples.iter().enumerate() {
            assert_eq!(call.slot(), i, "{} out of order", call.name());
            assert_eq!(call.name(), Syscall::NAMES[i]);
        }
    }

    #[test]
    fn sysret_helpers() {
        assert_eq!(SysRet::Num(5).num(), 5);
        assert_eq!(SysRet::Extents(ExtentList::single(vec![1, 2])).data(), &[1, 2]);
    }
}
