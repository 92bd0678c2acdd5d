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
    Write(usize, Vec<u8>),
    /// Positioned read (no offset change).
    Pread(usize, usize, u64),
    /// Positioned write (no offset change).
    Pwrite(usize, Vec<u8>, u64),
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
    /// Positioned read returning borrowed extents instead of copied
    /// bytes (`fd`, `len`, `off`): the zero-copy data plane's read
    /// primitive. Like `pread`, the fd offset does not move.
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

    /// True for calls that observe kernel state without changing it
    /// (beyond a private fd offset), so concurrent supervisors may
    /// dispatch them under a *shared* kernel lock.
    ///
    /// The classification is deliberately conservative:
    ///
    /// * identity reads (`getpid`, `getppid`, `getuid`, `getcwd`,
    ///   `get_user_name`, `getenv`) only look at the process table;
    /// * metadata reads (`stat`, `lstat`, `fstat`, `readlink`, `access`,
    ///   `readdir`) only look at the VFS (reads are "noatime", so no
    ///   inode is touched);
    /// * data reads (`read`, `pread`) and `lseek` mutate nothing but the
    ///   calling process's own fd offset, which the kernel keeps in an
    ///   atomic so it can advance under the shared lock.
    ///
    /// Everything else — including `sigpending` (drains the queue),
    /// `umask` (swaps the mask), and pipe reads (consume bytes) —
    /// mutates shared state. Since the kernel went sharded, both kinds
    /// dispatch through `Kernel::syscall_shared`; the classification
    /// only describes what a call may touch.
    pub fn is_read_only(&self) -> bool {
        use Syscall::*;
        matches!(
            self,
            Getpid
                | Getppid
                | Getuid
                | Getcwd
                | GetUserName
                | Getenv(_)
                | Stat(_)
                | Lstat(_)
                | Fstat(_)
                | Readlink(_)
                | AccessCheck(..)
                | Readdir(_)
                | Read(..)
                | Pread(..)
                | Preadx(..)
                | Lseek(..)
        )
    }

    /// True for calls that name a path (the ones the identity box must
    /// run ACL checks for).
    pub fn is_path_call(&self) -> bool {
        use Syscall::*;
        matches!(
            self,
            Stat(_)
                | Lstat(_)
                | Open(..)
                | Mkdir(..)
                | Rmdir(_)
                | Unlink(_)
                | Link(..)
                | Symlink(..)
                | Readlink(_)
                | Rename(..)
                | Truncate(..)
                | AccessCheck(..)
                | Readdir(_)
                | Chmod(..)
                | Chown(..)
                | Chdir(_)
                | Exec(_)
        )
    }
}

/// The result of a successful system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysRet {
    /// No interesting value (close, mkdir, ...).
    Unit,
    /// A small integer (pid, fd, count, old umask, uid...).
    Num(i64),
    /// Bytes read.
    Data(Vec<u8>),
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
    /// Bytes read as borrowed extents (`preadx`): `Arc` clones of the
    /// file's chunks, no copy made. Compares by content, so chunking
    /// differences are invisible to equality-based tests.
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

    /// Extract data; panics on mismatch (test helper).
    pub fn data(&self) -> &[u8] {
        match self {
            SysRet::Data(d) => d,
            other => panic!("expected Data, got {other:?}"),
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
    fn path_call_classification() {
        assert!(Syscall::Open("/f".into(), OpenFlags::rdonly(), 0).is_path_call());
        assert!(Syscall::Rename("/a".into(), "/b".into()).is_path_call());
        assert!(!Syscall::Getpid.is_path_call());
        assert!(!Syscall::Read(0, 10).is_path_call());
        assert!(!Syscall::GetUserName.is_path_call());
        assert!(!Syscall::Getenv("PATH".into()).is_path_call());
    }

    #[test]
    fn read_only_classification() {
        // The shared-lock class.
        assert!(Syscall::Getpid.is_read_only());
        assert!(Syscall::Getcwd.is_read_only());
        assert!(Syscall::GetUserName.is_read_only());
        assert!(Syscall::Getenv("PATH".into()).is_read_only());
        assert!(Syscall::Stat("/x".into()).is_read_only());
        assert!(Syscall::Lstat("/x".into()).is_read_only());
        assert!(Syscall::Fstat(3).is_read_only());
        assert!(Syscall::Readlink("/x".into()).is_read_only());
        assert!(Syscall::AccessCheck("/x".into(), Access::R).is_read_only());
        assert!(Syscall::Readdir("/".into()).is_read_only());
        assert!(Syscall::Read(0, 16).is_read_only());
        assert!(Syscall::Pread(0, 16, 0).is_read_only());
        assert!(Syscall::Preadx(0, 16, 0).is_read_only());
        assert!(Syscall::Lseek(0, 0, Whence::Set).is_read_only());
        // Mutators must never be classified read-only.
        assert!(!Syscall::Open("/f".into(), OpenFlags::rdonly(), 0).is_read_only());
        assert!(!Syscall::Write(0, vec![1]).is_read_only());
        assert!(!Syscall::Close(0).is_read_only());
        assert!(!Syscall::Umask(0o022).is_read_only());
        assert!(!Syscall::SigPending.is_read_only());
        assert!(!Syscall::Fork.is_read_only());
        assert!(!Syscall::Pipe.is_read_only());
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
            Write(0, vec![]),
            Pread(0, 0, 0),
            Pwrite(0, vec![], 0),
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
        assert_eq!(SysRet::Data(vec![1, 2]).data(), &[1, 2]);
    }
}
