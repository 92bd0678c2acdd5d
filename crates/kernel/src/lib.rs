//! The simulated Unix kernel.
//!
//! Identity boxing was built on an unmodified Linux kernel reached through
//! `ptrace`. In this reproduction the kernel itself is simulated: this
//! crate provides the process table (fork / exec / exit / wait), per-process
//! file-descriptor tables, working directories, umasks, signals, the
//! `/etc/passwd` account database, and a typed system-call interface
//! dispatched over the [`idbox_vfs`] filesystem plus a mount table of
//! [`FsDriver`]s for external services (the Chirp driver mounts a remote
//! server under `/chirp/...`, exactly as Parrot attaches remote I/O
//! services to the file namespace).
//!
//! The kernel enforces ordinary **Unix** semantics: uid/gid permission
//! checks, uid-based signal rules. The *identity box* semantics — ACLs
//! keyed by free-form global identities, `nobody` fallback, same-identity
//! signalling — live one layer up, in `idbox-core`, which interposes on
//! this interface the way Parrot interposes on Linux.

mod accounts;
mod driver;
mod kernel;
mod process;
mod stats;
mod syscall;

pub use accounts::{Account, AccountDb, AccountsMut};
pub use driver::{DriverFd, FsDriver, MountTable};
pub use kernel::{JudgedEntry, Kernel};
pub use stats::{LatencySnapshot, LatencyStats, SyscallStats, LATENCY_BUCKETS};
pub use process::{
    FileBacking, OpenFile, OpenFlags, Pid, PipeEnd, ProcState, Process, Signal, MAX_FDS,
};
pub use syscall::{Syscall, SysRet, Whence};
// The zero-copy read path's payload types, re-exported so callers of
// `SysRet::Extents` need not depend on the vfs crate directly.
pub use idbox_vfs::{ByteExtent, ExtentList};
