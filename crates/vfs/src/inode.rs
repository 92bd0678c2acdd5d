//! Inodes and their metadata.

use crate::extent::FileContent;
use std::collections::BTreeMap;
use std::fmt;

/// An inode number. Stable for the lifetime of the inode; numbers are
/// recycled only after the inode is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

impl fmt::Display for Ino {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What kind of object an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

/// The result of `stat`: a snapshot of an inode's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatBuf {
    /// Inode number.
    pub ino: Ino,
    /// Object kind.
    pub kind: FileKind,
    /// Permission bits (`0o7777` space; type is in `kind`).
    pub mode: u16,
    /// Owning user id.
    pub uid: u32,
    /// Owning group id.
    pub gid: u32,
    /// Hard link count.
    pub nlink: u32,
    /// Size in bytes (file length, symlink target length, or number of
    /// directory entries).
    pub size: u64,
    /// Logical access time.
    pub atime: u64,
    /// Logical modification time.
    pub mtime: u64,
    /// Logical status-change time.
    pub ctime: u64,
}

impl StatBuf {
    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Dir
    }

    /// True for regular files.
    pub fn is_file(&self) -> bool {
        self.kind == FileKind::File
    }

    /// True for symbolic links.
    pub fn is_symlink(&self) -> bool {
        self.kind == FileKind::Symlink
    }
}

/// The content of an inode. Regular-file bytes live in the chunked,
/// `Arc`-backed [`FileContent`] so reads can borrow extents instead of
/// copying (see the `extent` module).
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    File(FileContent),
    Dir(BTreeMap<String, Ino>),
    Symlink(String),
}

impl Payload {
    pub(crate) fn kind(&self) -> FileKind {
        match self {
            Payload::File(_) => FileKind::File,
            Payload::Dir(_) => FileKind::Dir,
            Payload::Symlink(_) => FileKind::Symlink,
        }
    }

    pub(crate) fn size(&self) -> u64 {
        match self {
            Payload::File(data) => data.len() as u64,
            Payload::Dir(entries) => entries.len() as u64,
            Payload::Symlink(target) => target.len() as u64,
        }
    }
}

/// One inode: payload plus metadata.
#[derive(Debug, Clone)]
pub(crate) struct Inode {
    pub payload: Payload,
    pub mode: u16,
    pub uid: u32,
    pub gid: u32,
    /// Hard link count (directories count `.` and parent references).
    pub nlink: u32,
    /// Open-handle pins: the inode's storage survives `nlink == 0` while
    /// pinned (Unix unlink-while-open semantics).
    pub pins: u32,
    pub atime: u64,
    pub mtime: u64,
    pub ctime: u64,
}

impl Inode {
    /// A directory's entries; `None` for files and symlinks.
    pub(crate) fn entries_mut(&mut self) -> Option<&mut BTreeMap<String, Ino>> {
        match &mut self.payload {
            Payload::Dir(entries) => Some(entries),
            _ => None,
        }
    }

    pub(crate) fn stat(&self, ino: Ino) -> StatBuf {
        StatBuf {
            ino,
            kind: self.payload.kind(),
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            nlink: self.nlink,
            size: self.payload.size(),
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_of(bytes: &[u8]) -> FileContent {
        let mut f = FileContent::new(crate::extent::DEFAULT_CHUNK_SIZE);
        f.write_at(0, bytes);
        f
    }

    #[test]
    fn payload_kinds() {
        assert_eq!(Payload::File(file_of(b"")).kind(), FileKind::File);
        assert_eq!(Payload::Dir(BTreeMap::new()).kind(), FileKind::Dir);
        assert_eq!(Payload::Symlink("/x".into()).kind(), FileKind::Symlink);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::File(file_of(&[1, 2, 3])).size(), 3);
        assert_eq!(Payload::Symlink("/etc".into()).size(), 4);
        let mut d = BTreeMap::new();
        d.insert("a".to_string(), Ino(1));
        assert_eq!(Payload::Dir(d).size(), 1);
    }

    #[test]
    fn statbuf_predicates() {
        let mut s = StatBuf {
            ino: Ino(1),
            kind: FileKind::File,
            mode: 0o644,
            uid: 0,
            gid: 0,
            nlink: 1,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
        };
        assert!(s.is_file() && !s.is_dir() && !s.is_symlink());
        s.kind = FileKind::Dir;
        assert!(s.is_dir());
        s.kind = FileKind::Symlink;
        assert!(s.is_symlink());
    }
}
