//! The register-level system-call ABI.
//!
//! Guest programs marshal calls into [`TraceeVm`](crate::TraceeVm)
//! registers and memory using these conventions; the supervisor decodes
//! them back. Numbers follow Linux x86-64 where a counterpart exists, so
//! traces read naturally; calls the simulated kernel adds (like
//! `get_user_name`, the identity box's new syscall) live above 1000.

use idbox_kernel::{Signal, Whence};
use idbox_types::{Errno, SysResult};
use idbox_vfs::{DirEntry, FileKind, Ino, StatBuf};

/// Syscall numbers.
pub mod nr {
    /// read(fd, buf, len)
    pub const READ: u64 = 0;
    /// write(fd, buf, len)
    pub const WRITE: u64 = 1;
    /// open(path, pathlen, flags, mode)
    pub const OPEN: u64 = 2;
    /// close(fd)
    pub const CLOSE: u64 = 3;
    /// stat(path, pathlen, statbuf)
    pub const STAT: u64 = 4;
    /// fstat(fd, statbuf)
    pub const FSTAT: u64 = 5;
    /// lstat(path, pathlen, statbuf)
    pub const LSTAT: u64 = 6;
    /// lseek(fd, off, whence)
    pub const LSEEK: u64 = 8;
    /// pread(fd, buf, len, off)
    pub const PREAD: u64 = 17;
    /// pwrite(fd, buf, len, off)
    pub const PWRITE: u64 = 18;
    /// access(path, pathlen, mask)
    pub const ACCESS: u64 = 21;
    /// pipe(fdsbuf) — two u64 slots receive (read fd, write fd)
    pub const PIPE: u64 = 22;
    /// dup(fd)
    pub const DUP: u64 = 32;
    /// getpid()
    pub const GETPID: u64 = 39;
    /// fork()
    pub const FORK: u64 = 57;
    /// exec(path, pathlen)
    pub const EXEC: u64 = 59;
    /// exit(code)
    pub const EXIT: u64 = 60;
    /// wait(statusbuf)
    pub const WAIT: u64 = 61;
    /// kill(pid, sig)
    pub const KILL: u64 = 62;
    /// truncate(path, pathlen, size)
    pub const TRUNCATE: u64 = 76;
    /// getcwd(buf, cap)
    pub const GETCWD: u64 = 79;
    /// chdir(path, pathlen)
    pub const CHDIR: u64 = 80;
    /// rename(old, oldlen, new, newlen)
    pub const RENAME: u64 = 82;
    /// mkdir(path, pathlen, mode)
    pub const MKDIR: u64 = 83;
    /// rmdir(path, pathlen)
    pub const RMDIR: u64 = 84;
    /// link(old, oldlen, new, newlen)
    pub const LINK: u64 = 86;
    /// unlink(path, pathlen)
    pub const UNLINK: u64 = 87;
    /// symlink(target, targetlen, linkpath, linklen)
    pub const SYMLINK: u64 = 88;
    /// readlink(path, pathlen, buf, cap)
    pub const READLINK: u64 = 89;
    /// chmod(path, pathlen, mode)
    pub const CHMOD: u64 = 90;
    /// chown(path, pathlen, uid, gid)
    pub const CHOWN: u64 = 92;
    /// umask(mask)
    pub const UMASK: u64 = 95;
    /// getuid()
    pub const GETUID: u64 = 102;
    /// getppid()
    pub const GETPPID: u64 = 110;
    /// readdir(path, pathlen, buf, cap) — simulated kernel's directory API
    pub const READDIR: u64 = 1000;
    /// get_user_name(buf, cap) — the identity box's new syscall
    pub const GET_USER_NAME: u64 = 1001;
    /// sigpending(buf, cap_words)
    pub const SIGPENDING: u64 = 1002;
    /// getenv(name, namelen, buf, cap) — read one environment variable
    pub const GETENV: u64 = 1003;
    /// preadx(fd, len, off) — positioned read answered with borrowed
    /// extents held supervisor-side (the zero-copy data plane): the
    /// bytes never enter guest memory, only the total length returns.
    pub const PREADX: u64 = 1004;
    /// pwritex(fd, len, off) — positioned write of a payload the
    /// embedding context parked supervisor-side
    /// ([`crate::Supervisor::park_payload`]): the bytes never enter
    /// guest memory, only the length crosses in a register.
    pub const PWRITEX: u64 = 1005;
}

/// The environment variable a boxed child spawned by the `exec` RPC
/// finds its request's trace id in (via `getenv`).
pub const TRACE_ENV: &str = "IDBOX_TRACE_ID";

/// Encoded size of a stat buffer: ten 64-bit words.
pub const STAT_WORDS: usize = 10;

/// Byte size of an encoded stat buffer.
pub const STAT_BYTES: usize = STAT_WORDS * 8;

/// Serialize a [`StatBuf`] into ten words.
pub fn encode_stat(st: &StatBuf) -> [u64; STAT_WORDS] {
    [
        st.ino.0,
        kind_code(st.kind),
        st.mode as u64,
        st.uid as u64,
        st.gid as u64,
        st.nlink as u64,
        st.size,
        st.atime,
        st.mtime,
        st.ctime,
    ]
}

/// Deserialize a stat buffer.
pub fn decode_stat(words: &[u64; STAT_WORDS]) -> SysResult<StatBuf> {
    Ok(StatBuf {
        ino: Ino(words[0]),
        kind: kind_from_code(words[1])?,
        mode: words[2] as u16,
        uid: words[3] as u32,
        gid: words[4] as u32,
        nlink: words[5] as u32,
        size: words[6],
        atime: words[7],
        mtime: words[8],
        ctime: words[9],
    })
}

/// On-wire code of a file kind.
pub fn kind_code(kind: FileKind) -> u64 {
    match kind {
        FileKind::File => 0,
        FileKind::Dir => 1,
        FileKind::Symlink => 2,
    }
}

/// Decode a file kind.
pub fn kind_from_code(code: u64) -> SysResult<FileKind> {
    Ok(match code {
        0 => FileKind::File,
        1 => FileKind::Dir,
        2 => FileKind::Symlink,
        _ => return Err(Errno::EINVAL),
    })
}

/// On-wire code of an lseek origin.
pub fn whence_code(w: Whence) -> u64 {
    match w {
        Whence::Set => 0,
        Whence::Cur => 1,
        Whence::End => 2,
    }
}

/// Decode an lseek origin.
pub fn whence_from_code(code: u64) -> SysResult<Whence> {
    Ok(match code {
        0 => Whence::Set,
        1 => Whence::Cur,
        2 => Whence::End,
        _ => return Err(Errno::EINVAL),
    })
}

/// Serialize directory entries as `name\tino\tkind` lines (what the
/// kernel writes into the guest's readdir buffer).
pub fn encode_entries(entries: &[DirEntry]) -> String {
    let mut s = String::new();
    for e in entries {
        s.push_str(&e.name);
        s.push('\t');
        s.push_str(&e.ino.0.to_string());
        s.push('\t');
        s.push_str(&kind_code(e.kind).to_string());
        s.push('\n');
    }
    s
}

/// Parse serialized directory entries.
pub fn decode_entries(text: &str) -> SysResult<Vec<DirEntry>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut f = line.rsplitn(3, '\t');
        let kind = f.next().ok_or(Errno::EPROTO)?;
        let ino = f.next().ok_or(Errno::EPROTO)?;
        let name = f.next().ok_or(Errno::EPROTO)?;
        out.push(DirEntry {
            name: name.to_string(),
            ino: Ino(ino.parse().map_err(|_| Errno::EPROTO)?),
            kind: kind_from_code(kind.parse().map_err(|_| Errno::EPROTO)?)?,
        });
    }
    Ok(out)
}

/// Serialize pending signals as their numbers.
pub fn encode_signals(sigs: &[Signal]) -> Vec<u64> {
    sigs.iter().map(|s| s.number() as u64).collect()
}

/// Decode pending signals.
pub fn decode_signals(words: &[u64]) -> Vec<Signal> {
    words
        .iter()
        .filter_map(|&w| Signal::from_number(w as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_roundtrip() {
        let st = StatBuf {
            ino: Ino(42),
            kind: FileKind::Symlink,
            mode: 0o644,
            uid: 1000,
            gid: 1001,
            nlink: 3,
            size: 12345,
            atime: 1,
            mtime: 2,
            ctime: 3,
        };
        let words = encode_stat(&st);
        assert_eq!(decode_stat(&words).unwrap(), st);
    }

    #[test]
    fn bad_kind_code_rejected() {
        assert_eq!(kind_from_code(9), Err(Errno::EINVAL));
    }

    #[test]
    fn whence_roundtrip() {
        for w in [Whence::Set, Whence::Cur, Whence::End] {
            assert_eq!(whence_from_code(whence_code(w)).unwrap(), w);
        }
        assert!(whence_from_code(7).is_err());
    }

    #[test]
    fn entries_roundtrip() {
        let entries = vec![
            DirEntry {
                name: ".".into(),
                ino: Ino(1),
                kind: FileKind::Dir,
            },
            DirEntry {
                name: "with\ttab? no, names can't have tabs in practice".into(),
                ino: Ino(7),
                kind: FileKind::File,
            },
            DirEntry {
                name: "link".into(),
                ino: Ino(9),
                kind: FileKind::Symlink,
            },
        ];
        let text = encode_entries(&entries);
        let back = decode_entries(&text).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn signals_roundtrip() {
        let sigs = vec![Signal::Usr1, Signal::Term, Signal::Int];
        assert_eq!(decode_signals(&encode_signals(&sigs)), sigs);
    }

    #[test]
    fn garbage_entries_rejected() {
        assert!(decode_entries("nonsense").is_err());
        assert!(decode_entries("a\tnotanumber\t0\n").is_err());
    }
}
