//! The in-memory Unix filesystem substrate.
//!
//! Identity boxing was evaluated on a real Linux kernel; here the kernel is
//! simulated, and this crate provides its filesystem: a faithful
//! in-memory Unix file system with inodes, directories, regular files,
//! **symbolic links** (followed during resolution, with `ELOOP`
//! detection), **hard links** (shared inodes with link counts), Unix
//! permission bits, ownership, and logical timestamps.
//!
//! Symlinks and hard links are not incidental: the paper's security
//! analysis (Section 6, "overlooking indirect paths") hinges on them. The
//! identity box must check the ACL of a symlink *target's* directory and
//! must refuse hard links it cannot vet, so the substrate implements both
//! honestly.
//!
//! Everything is addressed by absolute or cwd-relative textual paths, just
//! like the syscall interface; inode numbers ([`Ino`]) appear in results
//! (`stat`) and in the open-file layer of the kernel.
//!
//! The filesystem is in-memory but not necessarily volatile: attach a
//! [`wal::Wal`] (see the [`wal`] module) and every mutation is logged
//! to disk, snapshotted periodically, and replayed on the next boot.

pub mod extent;
mod fs;
pub mod fxhash;
mod inode;
pub mod path;
pub mod wal;

pub use extent::{ByteExtent, ExtentList};
pub use fs::{Cred, DirEntry, Entry, FaultHook, Handle, SnapshotCut, Stale, Vfs};
pub use fxhash::{FxBuildHasher, IntMap};
pub use inode::{FileKind, Ino, StatBuf};
pub use wal::{Recovered, RecoveryReport, Wal, WalConfig, WalRecordRef, WalStats};

/// Access request bits used by permission checks (same encoding as the
/// Unix `access(2)` masks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access(pub u8);

impl Access {
    /// No permission bits: existence/traversal only.
    pub const NONE: Access = Access(0);
    /// Read permission.
    pub const R: Access = Access(4);
    /// Write permission.
    pub const W: Access = Access(2);
    /// Execute / search permission.
    pub const X: Access = Access(1);
    /// Read + write.
    pub const RW: Access = Access(6);

    /// Union of two access masks.
    pub fn and(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }
}
