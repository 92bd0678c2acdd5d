//! The durability plane: a write-ahead log plus namespace snapshots.
//!
//! The paper's storage servers are trusted with real data, so the
//! namespace (files, directories, ACL files, `/etc/passwd`) must survive
//! a server crash. The in-memory [`Vfs`] stays the hot path; durability is
//! layered *under* it:
//!
//! * Every mutating namespace operation appends one compact binary
//!   [`WalRecordRef`] to the log **while still holding the shard write
//!   locks that applied it**. The WAL mutex is a leaf lock below the
//!   shard locks, so the global append order is a valid serialization
//!   of the sharded execution: two operations that do not commute always
//!   share a shard lock, hence appear in the log in their real order.
//! * Records are framed `[len u32][crc32 u32][lsn varint + payload]`;
//!   header fixed-width little-endian, record fields LEB128 varints, all
//!   little-endian. Replay stops at the first frame that fails the
//!   length or CRC check, so a torn final record (the normal crash
//!   shape) silently truncates to the last durable prefix.
//! * A write's data is not copied on its way to the log, and the CRC
//!   is the only pass over it: the frame borrows, by `Arc` reference,
//!   every file chunk the write covers whole (copy-on-write keeps a
//!   borrowed chunk unchanged until it is written out), and batches go
//!   to the file with vectored writes. The CRC-32C is folded over the
//!   frame at append time, three hardware instruction lanes at a time.
//! * `fsync` is amortized by **group commit**: appends buffer in the OS
//!   file and a flusher thread syncs every [`WalConfig::sync_ms`]
//!   milliseconds, or inline once [`WalConfig::sync_ops`] appends
//!   accumulate. `sync_ops == 0` degenerates to sync-every-op (no loss
//!   window, every append pays the fsync).
//! * A **snapshot** captures the whole namespace under all shard read
//!   locks (file contents as shared chunk references, no bytes copied),
//!   rotates the log at an LSN watermark taken under those same locks,
//!   then — locks released — streams the capture to disk and purges
//!   segments older than the watermark. The snapshot file is a
//!   compacted segment: the same magic and frames, carrying one
//!   [`WalRecordRef::Inode`] per live inode, its directory entries and
//!   file data, and a closing [`WalRecordRef::Trailer`]. Boot runs the
//!   one streamed frame reader over the snapshot, then over the suffix
//!   (`lsn >= watermark`); only the damage policy differs.
//!
//! Records are *physical redo* records: they carry the inode number the
//! live operation assigned and the logical timestamp it ticked, so
//! replay does not have to reproduce allocator or clock behaviour — it
//! installs exactly the state the live operation installed. After
//! replay the inode allocator is rebuilt as `next = max(live) + 1` with
//! an empty free list, and open-handle pins reset to zero (processes do
//! not survive a crash; an inode that was unlinked-but-pinned is gone,
//! which is exactly the namespace a restarted server should see).
//!
//! Failure policy is **fail-stop on the log**: an append that cannot
//! reach the disk marks the log dead and counts an error; the in-memory
//! namespace keeps serving, and the error counter surfaces through the
//! `idbox_wal_errors_total` Prometheus family so an operator sees the
//! durability loss instead of a silent lie.

use crate::extent::ByteExtent;
use crate::fs::{SnapshotCut, Vfs};
use crate::inode::{FileKind, Payload};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, IoSlice, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Magic prefix of a log segment file, and of the snapshot file.
const SEG_MAGIC: &[u8; 8] = b"IDBXWAL1";
/// Upper bound accepted for one framed record (a frame claiming more is
/// treated as corrupt, not allocated; the snapshot writer refuses to
/// write one).
const MAX_FRAME: u32 = 1 << 30;
/// The snapshot file name; segments are `wal-<start_lsn>.log`.
const SNAP_NAME: &str = "snapshot.bin";

/// Configuration for [`Wal::open`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the snapshot and log segments (created when
    /// missing).
    pub dir: PathBuf,
    /// Appends accumulated before the flusher is woken early. `0` =
    /// sync every append before returning (no loss window); `n > 0` =
    /// group commit, syncing after every `n` appends or on the flusher
    /// tick, whichever comes first. The tick (`sync_ms`) is the primary
    /// pacing — this threshold is a backstop that bounds how much a
    /// burst can accumulate between ticks, so it should be large
    /// (thousands): a small value degrades to fsync-per-batch and taxes
    /// the mutation hot path with the fsync's kernel CPU.
    pub sync_ops: u64,
    /// Flusher cadence for group commit, in milliseconds — the loss
    /// window under power failure. Ignored (no flusher thread) when
    /// `sync_ops == 0`; clamped to at least 1 ms otherwise.
    pub sync_ms: u64,
}

impl WalConfig {
    /// Group-commit defaults (65536-op backstop / 25 ms tick) in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            sync_ops: 65536,
            sync_ms: 25,
        }
    }

    /// Switch to sync-every-op (every append fsyncs inline).
    pub fn sync_every_op(mut self) -> Self {
        self.sync_ops = 0;
        self
    }
}

/// One logged namespace mutation, exactly as the live operation applied
/// it. Field meanings mirror the corresponding [`Vfs`] operations; all
/// inode numbers are the raw `u64` the live operation assigned, and
/// `now` is the logical timestamp it ticked.
///
/// The record borrows its names and data, so neither direction copies
/// them: the vfs mutation paths build one on the stack out of the
/// caller's own strings and buffers and hand it to [`Wal::append`], and
/// replay [decodes](WalRecordRef::decode) one in place over the segment
/// bytes and applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordRef<'a> {
    /// `create`: a regular file `name` in directory `dir`.
    Create {
        /// Parent directory inode.
        dir: u64,
        /// Entry name.
        name: &'a str,
        /// Assigned inode number.
        ino: u64,
        /// Permission bits.
        mode: u16,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Logical timestamp.
        now: u64,
    },
    /// `mkdir`: a directory `name` in `dir`.
    Mkdir {
        /// Parent directory inode.
        dir: u64,
        /// Entry name.
        name: &'a str,
        /// Assigned inode number.
        ino: u64,
        /// Permission bits.
        mode: u16,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Logical timestamp.
        now: u64,
    },
    /// `symlink`: a link `name` in `dir` holding `target`.
    Symlink {
        /// Parent directory inode.
        dir: u64,
        /// Entry name.
        name: &'a str,
        /// Assigned inode number.
        ino: u64,
        /// Link target text.
        target: &'a str,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Logical timestamp.
        now: u64,
    },
    /// `link`: a new name for existing inode `target`.
    Link {
        /// Parent directory inode.
        dir: u64,
        /// Entry name.
        name: &'a str,
        /// Linked inode number.
        target: u64,
        /// Logical timestamp.
        now: u64,
    },
    /// `unlink`: remove `name` (bound to `target`) from `dir`.
    Unlink {
        /// Parent directory inode.
        dir: u64,
        /// Entry name.
        name: &'a str,
        /// Unlinked inode number.
        target: u64,
        /// Logical timestamp.
        now: u64,
    },
    /// `rmdir`: remove empty directory `name` (bound to `target`).
    Rmdir {
        /// Parent directory inode.
        dir: u64,
        /// Entry name.
        name: &'a str,
        /// Removed directory inode.
        target: u64,
        /// Logical timestamp.
        now: u64,
    },
    /// `rename`: move `src` from `odir/oname` to `ndir/nname`,
    /// replacing `replaced` (0 = nothing replaced).
    Rename {
        /// Old parent directory inode.
        odir: u64,
        /// Old entry name.
        oname: &'a str,
        /// New parent directory inode.
        ndir: u64,
        /// New entry name.
        nname: &'a str,
        /// Moved inode number.
        src: u64,
        /// Replaced destination inode (0 when the destination was
        /// empty).
        replaced: u64,
        /// Whether the replaced destination was a directory.
        replaced_is_dir: bool,
        /// Whether the moved inode is a directory.
        src_is_dir: bool,
        /// Logical timestamp.
        now: u64,
    },
    /// `write_at`: `data` written at byte offset `off` of file `ino`.
    Write {
        /// Target file inode.
        ino: u64,
        /// Byte offset.
        off: u64,
        /// Bytes written.
        data: &'a [u8],
        /// Logical timestamp.
        now: u64,
    },
    /// `truncate`: resize file `ino` to `len` bytes.
    Truncate {
        /// Target file inode.
        ino: u64,
        /// New length.
        len: u64,
        /// Logical timestamp.
        now: u64,
    },
    /// `chmod`: set permission bits on `ino`.
    Chmod {
        /// Target inode.
        ino: u64,
        /// New permission bits.
        mode: u16,
        /// Logical timestamp.
        now: u64,
    },
    /// `chown`: set ownership on `ino`.
    Chown {
        /// Target inode.
        ino: u64,
        /// New owner uid.
        uid: u32,
        /// New owner gid.
        gid: u32,
        /// Logical timestamp.
        now: u64,
    },
    /// A snapshot's image of one live inode, with an empty payload: the
    /// directory's [`Entry`](WalRecordRef::Entry) records and the
    /// file's `Write` records that follow fill it in.
    Inode {
        /// Inode number.
        ino: u64,
        /// File, directory or symlink.
        kind: FileKind,
        /// Permission bits.
        mode: u16,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Hard link count.
        nlink: u32,
        /// Access time.
        atime: u64,
        /// Modification time.
        mtime: u64,
        /// Status-change time.
        ctime: u64,
        /// Symlink target (empty unless `kind` is a symlink).
        target: &'a str,
    },
    /// A snapshot's directory entry: `name` in `dir` names `ino`.
    Entry {
        /// Directory inode.
        dir: u64,
        /// Entry name (`.` and `..` included).
        name: &'a str,
        /// The named inode.
        ino: u64,
    },
    /// A snapshot's last record; a snapshot without it is incomplete.
    Trailer {
        /// The first LSN the snapshot does not cover.
        watermark: u64,
        /// The root directory's inode number.
        root: u64,
        /// The logical clock at the cut.
        clock: u64,
        /// Unused: written as 0 and ignored at boot. The filesystem no
        /// longer keeps a global change generation; the field stays so
        /// that snapshots keep one format.
        change_gen: u64,
    },
}

/// The `Write` record's tag, shared by [`WalRecordRef::encode`] and
/// [`Wal::append_write`].
const WRITE_TAG: u8 = 8;
/// Tags an older format used for account records. Accounts now live in
/// `/etc/passwd`, so a log holding one was written by an older build:
/// boot refuses it rather than truncate the log there.
const RETIRED_TAGS: [u8; 2] = [12, 13];

impl WalRecordRef<'_> {
    fn tag(self) -> u8 {
        match self {
            WalRecordRef::Create { .. } => 1,
            WalRecordRef::Mkdir { .. } => 2,
            WalRecordRef::Symlink { .. } => 3,
            WalRecordRef::Link { .. } => 4,
            WalRecordRef::Unlink { .. } => 5,
            WalRecordRef::Rmdir { .. } => 6,
            WalRecordRef::Rename { .. } => 7,
            WalRecordRef::Write { .. } => WRITE_TAG,
            WalRecordRef::Truncate { .. } => 9,
            WalRecordRef::Chmod { .. } => 10,
            WalRecordRef::Chown { .. } => 11,
            WalRecordRef::Inode { .. } => 14,
            WalRecordRef::Entry { .. } => 15,
            WalRecordRef::Trailer { .. } => 16,
        }
    }

    /// Append the record's binary form (tag + fields) to `out`.
    pub fn encode(self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            WalRecordRef::Create {
                dir,
                name,
                ino,
                mode,
                uid,
                gid,
                now,
            }
            | WalRecordRef::Mkdir {
                dir,
                name,
                ino,
                mode,
                uid,
                gid,
                now,
            } => {
                put_vu64(out, dir);
                put_vstr(out, name);
                put_vu64(out, ino);
                put_vu64(out, u64::from(mode));
                put_vu64(out, u64::from(uid));
                put_vu64(out, u64::from(gid));
                put_vu64(out, now);
            }
            WalRecordRef::Symlink {
                dir,
                name,
                ino,
                target,
                uid,
                gid,
                now,
            } => {
                put_vu64(out, dir);
                put_vstr(out, name);
                put_vu64(out, ino);
                put_vstr(out, target);
                put_vu64(out, u64::from(uid));
                put_vu64(out, u64::from(gid));
                put_vu64(out, now);
            }
            WalRecordRef::Link {
                dir,
                name,
                target,
                now,
            }
            | WalRecordRef::Unlink {
                dir,
                name,
                target,
                now,
            }
            | WalRecordRef::Rmdir {
                dir,
                name,
                target,
                now,
            } => {
                put_vu64(out, dir);
                put_vstr(out, name);
                put_vu64(out, target);
                put_vu64(out, now);
            }
            WalRecordRef::Rename {
                odir,
                oname,
                ndir,
                nname,
                src,
                replaced,
                replaced_is_dir,
                src_is_dir,
                now,
            } => {
                put_vu64(out, odir);
                put_vstr(out, oname);
                put_vu64(out, ndir);
                put_vstr(out, nname);
                put_vu64(out, src);
                put_vu64(out, replaced);
                out.push(u8::from(replaced_is_dir));
                out.push(u8::from(src_is_dir));
                put_vu64(out, now);
            }
            WalRecordRef::Write {
                ino,
                off,
                data,
                now,
            } => {
                put_vu64(out, ino);
                put_vu64(out, off);
                put_vbytes(out, data);
                put_vu64(out, now);
            }
            WalRecordRef::Truncate { ino, len, now } => {
                put_vu64(out, ino);
                put_vu64(out, len);
                put_vu64(out, now);
            }
            WalRecordRef::Chmod { ino, mode, now } => {
                put_vu64(out, ino);
                put_vu64(out, u64::from(mode));
                put_vu64(out, now);
            }
            WalRecordRef::Chown { ino, uid, gid, now } => {
                put_vu64(out, ino);
                put_vu64(out, u64::from(uid));
                put_vu64(out, u64::from(gid));
                put_vu64(out, now);
            }
            WalRecordRef::Inode {
                ino,
                kind,
                mode,
                uid,
                gid,
                nlink,
                atime,
                mtime,
                ctime,
                target,
            } => {
                put_vu64(out, ino);
                out.push(match kind {
                    FileKind::File => 0,
                    FileKind::Dir => 1,
                    FileKind::Symlink => 2,
                });
                for v in [mode.into(), uid.into(), gid.into(), nlink.into(), atime, mtime, ctime] {
                    put_vu64(out, v);
                }
                put_vstr(out, target);
            }
            WalRecordRef::Entry { dir, name, ino } => {
                put_vu64(out, dir);
                put_vstr(out, name);
                put_vu64(out, ino);
            }
            WalRecordRef::Trailer {
                watermark,
                root,
                clock,
                change_gen,
            } => {
                for v in [watermark, root, clock, change_gen] {
                    put_vu64(out, v);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CRC-32C (Castagnoli polynomial; no external crates)
// ---------------------------------------------------------------------

fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        // Derived tables: t[k][b] advances byte b through k extra zero
        // bytes, letting the hot loop fold eight input bytes per step.
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// The CRC-32C register after `len` more zero bytes, as four byte-wise
/// tables: `t[k][b]` is the register `b << 8k` shifted through them.
/// Shifting is linear over GF(2), so the register's four bytes shift
/// independently and XOR together.
#[cfg(target_arch = "x86_64")]
fn crc32_zeros_table(len: usize) -> [[u32; 256]; 4] {
    let step = &crc32_tables()[0];
    // Column `j`: the single-bit register `1 << j` after `len` zeros.
    let mut cols = [0u32; 32];
    for (j, col) in cols.iter_mut().enumerate() {
        let mut c = 1u32 << j;
        for _ in 0..len {
            c = step[(c & 0xFF) as usize] ^ (c >> 8);
        }
        *col = c;
    }
    let mut t = [[0u32; 256]; 4];
    for (k, row) in t.iter_mut().enumerate() {
        for (b, entry) in row.iter_mut().enumerate() {
            *entry = (0..8)
                .filter(|bit| b >> bit & 1 != 0)
                .fold(0, |acc, bit| acc ^ cols[8 * k + bit]);
        }
    }
    t
}

/// The hardware path's lane block sizes: three lanes of `LANE_LONG`
/// bytes while that much is left, then three of `LANE_SHORT`.
#[cfg(target_arch = "x86_64")]
const LANE_LONG: usize = 8192;
#[cfg(target_arch = "x86_64")]
const LANE_SHORT: usize = 256;

/// Shift tables for [`LANE_LONG`] and [`LANE_SHORT`] zero bytes.
#[cfg(target_arch = "x86_64")]
fn crc32_lane_shifts() -> &'static [[[u32; 256]; 4]; 2] {
    static SHIFTS: std::sync::OnceLock<[[[u32; 256]; 4]; 2]> = std::sync::OnceLock::new();
    SHIFTS.get_or_init(|| [crc32_zeros_table(LANE_LONG), crc32_zeros_table(LANE_SHORT)])
}

/// CRC-32C of `data`, as used by the record frames of log segments and
/// the snapshot. The Castagnoli polynomial — the same choice ext4 and iSCSI
/// made — so the hot path can ride the SSE4.2 `crc32` instruction where
/// the CPU has it; table-driven slicing-by-8 elsewhere. The WAL
/// computes this once per namespace mutation under a shard write lock,
/// so the per-byte cost shows up directly in put latency.
///
/// On the hardware path an input of 768 bytes or more runs as three
/// independent instruction chains over adjacent blocks, merged with
/// precomputed "shift by N zero bytes" tables (Mark Adler's `crc32c`
/// method): one chain is bound by the instruction's three-cycle
/// latency, three keep its one-per-cycle throughput busy. The result
/// is bit-identical on every path.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Continue a CRC-32C: `crc32_extend(crc32(a), b) == crc32(a ++ b)`,
/// and `crc32_extend(0, b) == crc32(b)`. Lets a frame fold its owned
/// bytes and the file chunks it borrows in where they lie, without
/// copying them together.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the required CPU feature was just detected.
        return unsafe { crc32_hw(crc, data) };
    }
    crc32_sw(crc, data)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
    let mut c = u64::from(!crc);
    let mut data = data;
    if data.len() >= 3 * LANE_SHORT {
        let shifts = crc32_lane_shifts();
        for (block, zeros) in [(LANE_LONG, &shifts[0]), (LANE_SHORT, &shifts[1])] {
            while data.len() >= 3 * block {
                let (lanes, rest) = data.split_at(3 * block);
                let (a, bc) = lanes.split_at(block);
                let (b, d) = bc.split_at(block);
                let (mut c1, mut c2) = (0u64, 0u64);
                for ((x, y), z) in a
                    .chunks_exact(8)
                    .zip(b.chunks_exact(8))
                    .zip(d.chunks_exact(8))
                {
                    c = _mm_crc32_u64(c, word(x));
                    c1 = _mm_crc32_u64(c1, word(y));
                    c2 = _mm_crc32_u64(c2, word(z));
                }
                // Lane 1 started from a zero register, so the register
                // over `a ++ b` is `a`'s shifted past `b`'s bytes, XOR
                // lane 1's; likewise for lane 2.
                c = u64::from(crc32_shift(zeros, c as u32) ^ c1 as u32);
                c = u64::from(crc32_shift(zeros, c as u32) ^ c2 as u32);
                data = rest;
            }
        }
    }
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, word(ch));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Apply a [`crc32_zeros_table`] to the register `c`.
#[cfg(target_arch = "x86_64")]
fn crc32_shift(zeros: &[[u32; 256]; 4], c: u32) -> u32 {
    zeros[0][(c & 0xFF) as usize]
        ^ zeros[1][((c >> 8) & 0xFF) as usize]
        ^ zeros[2][((c >> 16) & 0xFF) as usize]
        ^ zeros[3][(c >> 24) as usize]
}

fn crc32_sw(crc: u32, data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = !crc;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

/// LEB128 varint writer, the record codec's integer form (see
/// [`Cursor::vu64`]).
pub(crate) fn put_vu64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

pub(crate) fn put_vbytes(out: &mut Vec<u8>, v: &[u8]) {
    put_vu64(out, v.len() as u64);
    out.extend_from_slice(v);
}

pub(crate) fn put_vstr(out: &mut Vec<u8>, v: &str) {
    put_vbytes(out, v.as_bytes());
}

/// A bounds-checked little-endian reader over a byte slice; every `get`
/// returns `None` past the end, so a truncated payload surfaces as a
/// decode failure instead of a panic.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// LEB128 varint: the record codec's integer form (records are
    /// dominated by small integers — inode numbers, uids, logical
    /// ticks — so this halves the logged bytes versus fixed width).
    pub(crate) fn vu64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return None; // overflow: not a canonical u64
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    pub(crate) fn vbytes(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.vu64()?).ok()?;
        self.take(n)
    }

    pub(crate) fn vstr(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.vbytes()?).ok()
    }

    /// Bytes consumed so far.
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl<'a> WalRecordRef<'a> {
    /// Decode one record from `buf` (which must contain exactly one
    /// record), borrowing its names and data from `buf`. `None` on any
    /// truncation, unknown tag, trailing garbage, over-long varint,
    /// integer out of its field's range, or invalid UTF-8.
    pub fn decode(buf: &'a [u8]) -> Option<WalRecordRef<'a>> {
        let mut c = Cursor::new(buf);
        let tag = c.u8()?;
        let rec = match tag {
            1 | 2 => {
                let dir = c.vu64()?;
                let name = c.vstr()?;
                let ino = c.vu64()?;
                let mode = u16::try_from(c.vu64()?).ok()?;
                let uid = u32::try_from(c.vu64()?).ok()?;
                let gid = u32::try_from(c.vu64()?).ok()?;
                let now = c.vu64()?;
                if tag == 1 {
                    WalRecordRef::Create {
                        dir,
                        name,
                        ino,
                        mode,
                        uid,
                        gid,
                        now,
                    }
                } else {
                    WalRecordRef::Mkdir {
                        dir,
                        name,
                        ino,
                        mode,
                        uid,
                        gid,
                        now,
                    }
                }
            }
            3 => WalRecordRef::Symlink {
                dir: c.vu64()?,
                name: c.vstr()?,
                ino: c.vu64()?,
                target: c.vstr()?,
                uid: u32::try_from(c.vu64()?).ok()?,
                gid: u32::try_from(c.vu64()?).ok()?,
                now: c.vu64()?,
            },
            4..=6 => {
                let dir = c.vu64()?;
                let name = c.vstr()?;
                let target = c.vu64()?;
                let now = c.vu64()?;
                match tag {
                    4 => WalRecordRef::Link {
                        dir,
                        name,
                        target,
                        now,
                    },
                    5 => WalRecordRef::Unlink {
                        dir,
                        name,
                        target,
                        now,
                    },
                    _ => WalRecordRef::Rmdir {
                        dir,
                        name,
                        target,
                        now,
                    },
                }
            }
            7 => WalRecordRef::Rename {
                odir: c.vu64()?,
                oname: c.vstr()?,
                ndir: c.vu64()?,
                nname: c.vstr()?,
                src: c.vu64()?,
                replaced: c.vu64()?,
                replaced_is_dir: c.u8()? != 0,
                src_is_dir: c.u8()? != 0,
                now: c.vu64()?,
            },
            WRITE_TAG => WalRecordRef::Write {
                ino: c.vu64()?,
                off: c.vu64()?,
                data: c.vbytes()?,
                now: c.vu64()?,
            },
            9 => WalRecordRef::Truncate {
                ino: c.vu64()?,
                len: c.vu64()?,
                now: c.vu64()?,
            },
            10 => WalRecordRef::Chmod {
                ino: c.vu64()?,
                mode: u16::try_from(c.vu64()?).ok()?,
                now: c.vu64()?,
            },
            11 => WalRecordRef::Chown {
                ino: c.vu64()?,
                uid: u32::try_from(c.vu64()?).ok()?,
                gid: u32::try_from(c.vu64()?).ok()?,
                now: c.vu64()?,
            },
            14 => {
                let ino = c.vu64()?;
                let kind = match c.u8()? {
                    0 => FileKind::File,
                    1 => FileKind::Dir,
                    2 => FileKind::Symlink,
                    _ => return None,
                };
                let mode = u16::try_from(c.vu64()?).ok()?;
                let uid = u32::try_from(c.vu64()?).ok()?;
                let gid = u32::try_from(c.vu64()?).ok()?;
                let nlink = u32::try_from(c.vu64()?).ok()?;
                let (atime, mtime, ctime) = (c.vu64()?, c.vu64()?, c.vu64()?);
                let target = c.vstr()?;
                if kind != FileKind::Symlink && !target.is_empty() {
                    return None;
                }
                WalRecordRef::Inode {
                    ino,
                    kind,
                    mode,
                    uid,
                    gid,
                    nlink,
                    atime,
                    mtime,
                    ctime,
                    target,
                }
            }
            15 => WalRecordRef::Entry {
                dir: c.vu64()?,
                name: c.vstr()?,
                ino: c.vu64()?,
            },
            16 => WalRecordRef::Trailer {
                watermark: c.vu64()?,
                root: c.vu64()?,
                clock: c.vu64()?,
                change_gen: c.vu64()?,
            },
            _ => return None,
        };
        c.done().then_some(rec)
    }
}

// ---------------------------------------------------------------------
// The log proper
// ---------------------------------------------------------------------

/// Counters describing one [`Wal`]'s activity, rendered into the
/// `idbox_wal_*` Prometheus families by the server. All values are
/// cumulative since [`Wal::open`] except `log_bytes` (current segment
/// size) and the recovery fields (fixed at open time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Framed bytes appended.
    pub append_bytes: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// Snapshot attempts that failed (log rotation, write, sync or
    /// rename error, or a record over the frame limit). The log
    /// itself stays healthy; the previous snapshot and the full log
    /// suffix remain authoritative.
    pub snapshot_failures: u64,
    /// Append/sync failures after which the log went fail-stop.
    pub errors: u64,
    /// Bytes in the active segment.
    pub log_bytes: u64,
    /// Records at or after the last snapshot's watermark, including a
    /// replayed suffix (drives auto-snapshot).
    pub since_snapshot: u64,
    /// Records replayed at open.
    pub replayed: u64,
    /// Whether replay stopped at a torn tail (normal crash shape).
    pub torn_tail: bool,
    /// Whether replay stopped at a mid-log CRC/length mismatch.
    pub corrupt_frame: bool,
    /// Whether a snapshot was restored at open.
    pub snapshot_loaded: bool,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// The restored namespace (`None` when the directory held no
    /// durable state — a first boot). The returned filesystem has no
    /// WAL attached; the caller attaches the log with [`Vfs::set_wal`]
    /// once it is ready to resume logging.
    pub vfs: Option<Vfs>,
    /// Replay statistics, also visible via [`Wal::stats`].
    pub report: RecoveryReport,
}

/// Replay statistics from one [`Wal::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when durable state was found and restored (snapshot, log
    /// records, or both).
    pub restored: bool,
    /// Records replayed from log segments.
    pub replayed: u64,
    /// Replay stopped at a torn final record.
    pub torn_tail: bool,
    /// Replay stopped at a mid-log corruption (CRC or length mismatch
    /// with further bytes behind it).
    pub corrupt_frame: bool,
    /// A snapshot was restored.
    pub snapshot_loaded: bool,
    /// The snapshot's LSN watermark (0 without a snapshot).
    pub watermark: u64,
}

struct WalInner {
    file: File,
    /// Next LSN to assign.
    next_lsn: u64,
    /// First LSN of the active segment (names the file).
    seg_start: u64,
    /// Appends since the last fsync.
    dirty: u64,
    /// Frames appended but not yet written to the file. Group commit
    /// keeps the syscall off the hot path entirely: appends only
    /// extend this buffer, and the flusher writes + fsyncs it. Within
    /// one fsync window the distinction is invisible to crash safety —
    /// un-fsynced bytes are lost either way.
    buf: Pending,
    /// Bytes appended to the active segment (including still-buffered
    /// bytes).
    seg_bytes: u64,
    /// Lifetime append count. Plain (non-atomic) because every append
    /// already holds this mutex; keeping it here spares the hot path an
    /// atomic read-modify-write per counter.
    appends: u64,
    /// Lifetime appended frame bytes.
    append_bytes: u64,
    /// Watermark of the last installed snapshot (at open, the restored
    /// one's, else 0). `next_lsn - snap_watermark` is the
    /// auto-snapshot cadence input: derived, so records logged between
    /// a cut and its install still count toward the next snapshot.
    snap_watermark: u64,
    /// Remaining byte budget before a simulated crash (testing knob):
    /// writes beyond the budget are silently dropped, exactly like
    /// power loss mid-write. `None` = disabled.
    crash_after: Option<u64>,
    /// Fail-stop flag: a real I/O error stops all further logging.
    dead: bool,
}

/// Frames appended but not yet written: owned bytes, with file chunks
/// spliced in by reference. The byte stream they stand for is `bytes`
/// with each splice's chunk inserted before `bytes[at]`, in splice
/// order; it is exactly what a copying framer would have buffered.
///
/// A spliced chunk cannot change while it waits here: file contents
/// are copy-on-write per chunk, and the reference held here makes the
/// chunk shared, so a later write to it rebuilds the file's copy.
#[derive(Default)]
struct Pending {
    bytes: Vec<u8>,
    /// `(at, chunk)` pairs, `at` non-decreasing.
    splices: Vec<(usize, ByteExtent)>,
    /// Bytes held by the splices.
    spliced: usize,
}

impl Pending {
    /// Length of the stream.
    fn len(&self) -> usize {
        self.bytes.len() + self.spliced
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.splices.clear();
        self.spliced = 0;
    }

    /// Append `chunk` to the stream by reference.
    fn splice(&mut self, chunk: ByteExtent) {
        self.spliced += chunk.len();
        self.splices.push((self.bytes.len(), chunk));
    }

    /// Frame one record: `[len u32][crc u32]`, then `lsn` as a varint
    /// and whatever `encode` appends. The header is reserved up front
    /// and back-filled once the payload is in place, and the CRC folds
    /// over spliced chunks where they lie. Returns the payload length.
    /// A payload over [`MAX_FRAME`] gets no CRC: every reader refuses
    /// the frame on its length alone.
    fn frame(&mut self, lsn: u64, encode: impl FnOnce(&mut Pending)) -> usize {
        let (start, first, before) = (self.bytes.len(), self.splices.len(), self.len());
        self.bytes.extend_from_slice(&[0u8; 8]);
        put_vu64(&mut self.bytes, lsn);
        encode(self);
        let payload_len = self.len() - before - 8;
        let crc = if payload_len > MAX_FRAME as usize {
            0
        } else {
            self.parts(start + 8, first).fold(0, crc32_extend)
        };
        self.bytes[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        payload_len
    }

    /// Append the `Write` record of the `len` bytes at `off` of file
    /// `ino`, given as extents each with whether it covers its whole
    /// chunk: whole chunks are spliced by reference, partial ones
    /// copied. The bytes are exactly those [`WalRecordRef::encode`]
    /// gives for the same record.
    fn put_write(
        &mut self,
        ino: u64,
        off: u64,
        len: usize,
        data: impl Iterator<Item = (ByteExtent, bool)>,
        now: u64,
    ) {
        self.bytes.push(WRITE_TAG);
        put_vu64(&mut self.bytes, ino);
        put_vu64(&mut self.bytes, off);
        put_vu64(&mut self.bytes, len as u64);
        for (part, whole) in data {
            if whole {
                self.splice(part);
            } else {
                self.bytes.extend_from_slice(part.as_slice());
            }
        }
        put_vu64(&mut self.bytes, now);
    }

    /// The stream from `bytes[from]` on, given that the splices from
    /// index `first` on are exactly those at or after `from`, in order.
    fn parts(&self, from: usize, first: usize) -> impl Iterator<Item = &[u8]> {
        let splices = &self.splices[first..];
        let tail = splices.last().map_or(from, |&(at, _)| at);
        let mut own = from;
        splices
            .iter()
            .flat_map(move |(at, chunk)| {
                let before = &self.bytes[own..*at];
                own = *at;
                [before, chunk.as_slice()]
            })
            .chain([&self.bytes[tail..]])
    }

    /// Write the first `limit` bytes of the stream to `w`, in vectored
    /// writes of up to [`IOV_BATCH`] parts.
    fn write_to(&self, w: &mut impl Write, mut limit: usize) -> std::io::Result<()> {
        let mut parts = self.parts(0, 0).filter(|p| !p.is_empty());
        loop {
            let mut iov = [IoSlice::new(&[]); IOV_BATCH];
            let mut n = 0;
            while n < IOV_BATCH && limit > 0 {
                let Some(p) = parts.next() else { break };
                let p = &p[..p.len().min(limit)];
                limit -= p.len();
                iov[n] = IoSlice::new(p);
                n += 1;
            }
            if n == 0 {
                return Ok(());
            }
            let mut bufs = &mut iov[..n];
            while !bufs.is_empty() {
                match w.write_vectored(bufs) {
                    Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                    Ok(k) => IoSlice::advance_slices(&mut bufs, k),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// Parts handed to one `write_vectored` call (Linux takes up to 1024).
const IOV_BATCH: usize = 64;

/// The write-ahead log. One instance per [`Vfs`]; shared behind an
/// `Arc` between the filesystem (which appends), the kernel (which
/// snapshots), and the server (which renders stats and drives
/// auto-snapshots). The group-commit flusher holds only a `Weak`, so
/// dropping the last owner stops it and syncs what it had not.
pub struct Wal {
    cfg: WalConfig,
    inner: Mutex<WalInner>,
    fsyncs: AtomicU64,
    snapshots: AtomicU64,
    snapshot_failures: AtomicU64,
    errors: AtomicU64,
    report: RecoveryReport,
    /// Serializes flushers (the flusher thread, `rotate`, manual
    /// `sync` callers) so batches hit the file and the disk in LSN
    /// order. Ordered **above** `inner`: a flusher takes `flush_lock`
    /// then `inner`; the append hot path takes only `inner`. The
    /// guarded buffer is the spare batch the flusher swaps with
    /// [`WalInner::buf`], so neither side ever reallocates steady-state.
    flush_lock: Mutex<Pending>,
    /// Set when an appender has already asked for a flush this batch;
    /// throttles threshold wakeups to one unpark per flush cycle.
    flush_pending: AtomicBool,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The flusher's thread handle, for threshold wakeups. Unset until
    /// [`Wal::start_flusher`] runs; while unset, the threshold falls
    /// back to an inline flush so group commit is never *less* durable
    /// than configured.
    flusher_thread: std::sync::OnceLock<std::thread::Thread>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Wal({:?}, sync_ops {}, sync_ms {})",
            self.cfg.dir, self.cfg.sync_ops, self.cfg.sync_ms
        )
    }
}

fn seg_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:020}.log")
}

fn parse_seg_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

fn open_segment(dir: &Path, start_lsn: u64) -> std::io::Result<File> {
    let path = dir.join(seg_name(start_lsn));
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    if f.metadata()?.len() == 0 {
        f.write_all(SEG_MAGIC)?;
        f.sync_data()?;
    }
    Ok(f)
}

/// Fsync a directory, so the creates, renames and removes of snapshot
/// and segment files in it are themselves durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

impl Wal {
    /// Open (or create) the log in `cfg.dir`, replaying any durable
    /// state found there. Returns the log plus what was recovered; the
    /// caller wires the recovered namespace back into a kernel and then
    /// attaches the log with [`Vfs::set_wal`].
    pub fn open(cfg: WalConfig) -> std::io::Result<(Wal, Recovered)> {
        fs::create_dir_all(&cfg.dir)?;
        // A leftover `snapshot.tmp` is a snapshot that never committed;
        // the previous snapshot (or the full log) is still authoritative.
        let _ = fs::remove_file(cfg.dir.join("snapshot.tmp"));
        let (recovered, next_lsn) = replay_dir(&cfg.dir)?;
        let report = recovered.report;
        // Appends resume in a fresh segment starting at the next LSN:
        // old segments stay as replayable prefixes (any garbage past
        // the last good record was truncated by `replay_dir`).
        let file = open_segment(&cfg.dir, next_lsn)?;
        sync_dir(&cfg.dir)?;
        let seg_bytes = file.metadata()?.len();
        let wal = Wal {
            inner: Mutex::new(WalInner {
                file,
                next_lsn,
                seg_start: next_lsn,
                dirty: 0,
                buf: Pending::default(),
                seg_bytes,
                appends: 0,
                append_bytes: 0,
                snap_watermark: report.watermark,
                crash_after: None,
                dead: false,
            }),
            fsyncs: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            report,
            flush_lock: Mutex::new(Pending::default()),
            flush_pending: AtomicBool::new(false),
            flusher: Mutex::new(None),
            flusher_thread: std::sync::OnceLock::new(),
            cfg,
        };
        Ok((wal, recovered))
    }

    /// Spawn the group-commit flusher thread against `self` (called by
    /// the owner once the log is in its final `Arc`). A no-op in
    /// sync-every-op mode, where appends sync inline.
    ///
    /// With the flusher running, the append hot path does no file I/O
    /// at all: it buffers the frame and, at the `sync_ops` threshold,
    /// unparks this thread, which writes and fsyncs the batch. The
    /// thread also wakes itself every `sync_ms` so a quiet log still
    /// drains promptly. It holds the log by a `Weak` and exits once the
    /// last owner has dropped it, so [`Wal`]'s drop still runs, joins it
    /// and syncs the last batch.
    pub fn start_flusher(self: &Arc<Self>) {
        if self.cfg.sync_ops == 0 {
            return;
        }
        let period = Duration::from_millis(self.cfg.sync_ms.max(1));
        let wal = Arc::downgrade(self);
        let handle = std::thread::spawn(move || loop {
            std::thread::park_timeout(period);
            match wal.upgrade() {
                Some(wal) => wal.sync(),
                None => return,
            }
        });
        let _ = self.flusher_thread.set(handle.thread().clone());
        *self.flusher.lock() = Some(handle);
    }

    /// The replay outcome fixed at open time.
    pub fn report(&self) -> RecoveryReport {
        self.report
    }

    /// Live counters (see [`WalStats`]).
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        WalStats {
            appends: inner.appends,
            append_bytes: inner.append_bytes,
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_failures: self.snapshot_failures.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            log_bytes: inner.seg_bytes,
            since_snapshot: inner.next_lsn - inner.snap_watermark,
            replayed: self.report.replayed,
            torn_tail: self.report.torn_tail,
            corrupt_frame: self.report.corrupt_frame,
            snapshot_loaded: self.report.snapshot_loaded,
        }
    }

    /// Records at or after the last snapshot's watermark, including a
    /// replayed suffix (drives the server's auto-snapshot cadence).
    pub fn since_snapshot(&self) -> u64 {
        let inner = self.inner.lock();
        inner.next_lsn - inner.snap_watermark
    }

    /// Testing knob: silently drop every byte written after `budget`
    /// more bytes reach the file — the write-side shape of a crash,
    /// including a torn final record when the budget lands mid-frame.
    /// The crash-point proptest drives this from the seeded fault
    /// plane.
    pub fn set_crash_after_bytes(&self, budget: u64) {
        self.inner.lock().crash_after = Some(budget);
    }

    /// Append one record; called by the vfs under the mutating shard
    /// write locks (the WAL mutex is a leaf below them). Assigns the
    /// next LSN; honours the group-commit policy before returning.
    pub fn append(&self, rec: WalRecordRef<'_>) {
        self.append_frame(|out| rec.encode(&mut out.bytes));
    }

    /// Append the `Write` record of the `len` bytes written at `off` of
    /// file `ino`, given as the file's own extents over the written
    /// range (taken under the same shard write lock), each with whether
    /// it covers its whole chunk. A chunk the write covers whole is
    /// framed by reference, not copied, whether it is a buffer of its
    /// own or a window of an adopted one; partial edge chunks are
    /// copied. The frame's bytes on disk are exactly those
    /// [`WalRecordRef::encode`] gives for the same record.
    pub(crate) fn append_write(
        &self,
        ino: u64,
        off: u64,
        len: usize,
        data: impl Iterator<Item = (ByteExtent, bool)>,
        now: u64,
    ) {
        self.append_frame(|out| out.put_write(ino, off, len, data, now));
    }

    /// Frame one record, which `encode` appends to the pending buffer
    /// after its LSN.
    fn append_frame(&self, encode: impl FnOnce(&mut Pending)) {
        let mut inner = self.inner.lock();
        if inner.dead {
            return;
        }
        // Frame straight into the pending buffer — the hot path does
        // no file I/O and no allocation (steady-state); the flusher
        // (or the inline sync below) writes and fsyncs batches. The
        // CRC folds over the spliced chunks here, under the shard lock,
        // rather than in the flusher: a reply that waits on the flush
        // for durability would wait on the CRC too.
        let i = &mut *inner;
        let frame_len = 8 + i.buf.frame(i.next_lsn, encode) as u64;
        i.next_lsn += 1;
        i.dirty += 1;
        i.seg_bytes += frame_len;
        i.appends += 1;
        i.append_bytes += frame_len;
        if self.cfg.sync_ops == 0 {
            // Sync-every-op: the record is on disk before the mutation
            // returns.
            Self::sync_locked(&mut inner, &self.fsyncs, &self.errors);
        } else if inner.dirty >= self.cfg.sync_ops {
            // Group-commit threshold: hand the batch to the flusher
            // without blocking this (shard-lock-holding) thread, waking
            // it once per batch. Until a flusher exists, flush inline —
            // never weaker than the configured policy.
            match self.flusher_thread.get() {
                Some(t) => {
                    drop(inner);
                    if !self.flush_pending.swap(true, Ordering::Relaxed) {
                        t.unpark();
                    }
                }
                None => Self::sync_locked(&mut inner, &self.fsyncs, &self.errors),
            }
        }
    }

    fn sync_locked(inner: &mut WalInner, fsyncs: &AtomicU64, errors: &AtomicU64) {
        if inner.dead {
            inner.buf.clear();
            inner.dirty = 0;
            return;
        }
        // Simulated crash: persist only the remaining byte budget and
        // drop the rest, exactly like power loss mid-write — and never
        // fsync, the machine is "off".
        if let Some(budget) = inner.crash_after {
            let n = (budget as usize).min(inner.buf.len());
            let _ = inner.buf.write_to(&mut inner.file, n);
            inner.crash_after = Some(budget - n as u64);
            inner.buf.clear();
            inner.dirty = 0;
            return;
        }
        if !inner.buf.is_empty() {
            if inner.buf.write_to(&mut inner.file, usize::MAX).is_err() {
                inner.dead = true;
                inner.buf.clear();
                inner.dirty = 0;
                errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            inner.buf.clear();
        }
        if inner.dirty == 0 {
            return;
        }
        match inner.file.sync_data() {
            Ok(()) => {
                inner.dirty = 0;
                fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                inner.dead = true;
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Force an fsync of any unsynced appends (the group-commit
    /// flusher's tick; also safe to call manually).
    ///
    /// Double-buffered: the pending frames are written to the file
    /// under the append mutex (a cheap buffered syscall), but the
    /// fsync — the expensive part — runs on a duplicated handle
    /// *outside* it, so appenders holding vfs shard locks never wait
    /// on the disk. `flush_lock` keeps concurrent flushers in order.
    pub fn sync(&self) {
        let mut batch = self.flush_lock.lock();
        let (file, covered) = {
            let mut inner = self.inner.lock();
            if inner.dead || inner.crash_after.is_some() {
                Self::sync_locked(&mut inner, &self.fsyncs, &self.errors);
                return;
            }
            if inner.dirty == 0 {
                return;
            }
            // Steal the pending frames by swapping in the (empty)
            // spare buffer; appends landing from here on belong to the
            // next batch and may wake us again.
            std::mem::swap(&mut inner.buf, &mut *batch);
            self.flush_pending.store(false, Ordering::Relaxed);
            match inner.file.try_clone() {
                Ok(f) => (f, inner.dirty),
                Err(_) => {
                    // Cannot dup the handle: put the frames back and
                    // flush inline rather than skip the sync.
                    std::mem::swap(&mut inner.buf, &mut *batch);
                    Self::sync_locked(&mut inner, &self.fsyncs, &self.errors);
                    return;
                }
            }
        };
        // Write and fsync with no appender-visible lock held. The file
        // sees writes only under `flush_lock` in this mode, so batches
        // stay in LSN order.
        let wrote = batch.write_to(&mut &file, usize::MAX);
        batch.clear();
        match wrote.and_then(|()| file.sync_data()) {
            Ok(()) => {
                // Only the records this fsync covered become clean;
                // anything appended meanwhile stays dirty for the next
                // batch.
                let mut inner = self.inner.lock();
                inner.dirty = inner.dirty.saturating_sub(covered);
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.inner.lock().dead = true;
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Rotate to a fresh segment and return the first LSN that will
    /// land in it — the snapshot watermark. Called by
    /// [`Vfs::snapshot_cut`] **while all shard read locks are held**,
    /// so no namespace record can be in flight: every record below the
    /// watermark is already applied to the state being serialized, and
    /// every record at or above it will be replayed on top.
    pub(crate) fn rotate(&self) -> std::io::Result<u64> {
        // Keep the out-of-band flusher from fsyncing the old handle
        // while we swap segments underneath it.
        let _serialize = self.flush_lock.lock();
        let mut inner = self.inner.lock();
        Self::sync_locked(&mut inner, &self.fsyncs, &self.errors);
        let watermark = inner.next_lsn;
        let file = open_segment(&self.cfg.dir, watermark)?;
        // A segment whose create is not durable could vanish after a
        // crash with records acknowledged in it: the log is dead, as
        // after a failed fdatasync.
        if let Err(e) = sync_dir(&self.cfg.dir) {
            inner.dead = true;
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        inner.seg_bytes = file.metadata()?.len();
        inner.file = file;
        inner.seg_start = watermark;
        Ok(watermark)
    }

    /// Count one failed snapshot attempt (see
    /// [`WalStats::snapshot_failures`]).
    pub(crate) fn snapshot_failed(&self) {
        self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Commit a snapshot: stream it to `snapshot.tmp`, fsync, rename
    /// over `snapshot.bin`, then purge every segment older than the
    /// watermark (their records are all below it). Called by the kernel
    /// after [`Vfs::snapshot_cut`] captured the namespace.
    ///
    /// The file is a compacted segment, written in one pass by the
    /// framer log appends use: per live inode (ascending) an `Inode`
    /// record, then a directory's `Entry` records or a file's `Write`
    /// records, one per chunk, each chunk spliced by reference from the
    /// cut; then a `Trailer` with the watermark and the namespace
    /// counters. A record over the frame limit is refused before the
    /// rename, so the segments it would have replaced are never purged. Any failure is counted in
    /// [`WalStats::snapshot_failures`] and leaves the previous snapshot
    /// and the log authoritative.
    pub fn install_snapshot(&self, cut: &SnapshotCut) -> std::io::Result<()> {
        let tmp = self.cfg.dir.join("snapshot.tmp");
        if let Err(e) = self.write_snapshot(&tmp, cut) {
            // Never leave a partial file behind (a directory squatting
            // on the name is not ours to remove, and fails harmlessly).
            let _ = fs::remove_file(&tmp);
            self.snapshot_failed();
            return Err(e);
        }
        // Until the rename is durable the segments are the only copy of
        // what they hold: purge none of them.
        if let Err(e) = sync_dir(&self.cfg.dir) {
            self.snapshot_failed();
            return Err(e);
        }
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().snap_watermark = cut.watermark();
        // Older segments are now redundant; losing one early is safe
        // (the snapshot covers it), and one that survives a crash is
        // skipped by replay as below the watermark, so purge failures,
        // the removes' dir-sync included, are ignored.
        if let Ok(entries) = fs::read_dir(&self.cfg.dir) {
            for e in entries.flatten() {
                if let Some(start) = e.file_name().to_str().and_then(parse_seg_name) {
                    if start < cut.watermark() {
                        let _ = fs::remove_file(e.path());
                    }
                }
            }
        }
        let _ = sync_dir(&self.cfg.dir);
        Ok(())
    }

    /// Write, sync and rename the snapshot file: everything in
    /// [`Wal::install_snapshot`] that can fail.
    fn write_snapshot(&self, tmp: &Path, cut: &SnapshotCut) -> std::io::Result<()> {
        let mut w = SnapshotWriter {
            file: File::create(tmp)?,
            out: Pending::default(),
            lsn: 0,
        };
        w.file.write_all(SEG_MAGIC)?;
        for (ino, inode) in &cut.inodes {
            let ino = *ino;
            let (kind, target) = match &inode.payload {
                Payload::Symlink(t) => (FileKind::Symlink, t.as_str()),
                p => (p.kind(), ""),
            };
            w.record(WalRecordRef::Inode {
                ino,
                kind,
                mode: inode.mode,
                uid: inode.uid,
                gid: inode.gid,
                nlink: inode.nlink,
                atime: inode.atime,
                mtime: inode.mtime,
                ctime: inode.ctime,
                target,
            })?;
            match &inode.payload {
                Payload::Dir(entries) => {
                    for (name, child) in entries {
                        w.record(WalRecordRef::Entry {
                            dir: ino,
                            name,
                            ino: child.0,
                        })?;
                    }
                }
                Payload::File(f) => {
                    let mut off = 0;
                    for (chunk, _) in f.extent_iter(0, f.len()) {
                        let len = chunk.len();
                        let data = std::iter::once((chunk, true));
                        w.frame(|out| out.put_write(ino, off, len, data, inode.mtime))?;
                        off += len as u64;
                    }
                }
                Payload::Symlink(_) => {}
            }
        }
        w.record(WalRecordRef::Trailer {
            watermark: cut.watermark(),
            root: cut.root,
            clock: cut.clock,
            change_gen: 0,
        })?;
        w.flush()?;
        w.file.sync_data()?;
        fs::rename(tmp, self.cfg.dir.join(SNAP_NAME))
    }
}

/// Buffer size for streaming a snapshot or segment file in or out.
const IO_BUF: usize = 64 * 1024;

/// Streams a snapshot's frames into its file through a bounded
/// [`Pending`] batch, written out with vectored writes whenever it
/// passes [`IO_BUF`]. Frames carry their index in the file as their
/// LSN, so boot can tell a dropped, repeated or reordered frame.
struct SnapshotWriter {
    file: File,
    out: Pending,
    lsn: u64,
}

impl SnapshotWriter {
    fn record(&mut self, rec: WalRecordRef<'_>) -> std::io::Result<()> {
        self.frame(|out| rec.encode(&mut out.bytes))
    }

    /// Frame one record, refusing one over [`MAX_FRAME`]: boot would
    /// reject the file.
    fn frame(&mut self, encode: impl FnOnce(&mut Pending)) -> std::io::Result<()> {
        if self.out.frame(self.lsn, encode) > MAX_FRAME as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::FileTooLarge,
                "snapshot record over the frame limit",
            ));
        }
        self.lsn += 1;
        if self.out.len() >= IO_BUF {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.write_to(&mut self.file, usize::MAX)?;
        self.out.clear();
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(t) = self.flusher_thread.get() {
            t.unpark();
        }
        // The flusher may itself have held the last reference for the
        // length of one `sync`; it is leaving, and cannot join itself.
        if let Some(h) = self.flusher.lock().take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        let mut inner = self.inner.lock();
        Self::sync_locked(&mut inner, &self.fsyncs, &self.errors);
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What [`FrameReader::next`] found.
enum Frame<'a> {
    /// A whole, valid frame: its LSN and record.
    Record(u64, WalRecordRef<'a>),
    /// The clean end of the file.
    End,
    /// A frame cut short by EOF (header or payload incomplete) — the
    /// shape a power cut mid-write leaves behind.
    Torn,
    /// A fully present frame that claims an implausible length, fails
    /// its CRC or holds no decodable record: the bytes were durable and
    /// are now wrong. (A frame whose CRC holds but whose tag is retired
    /// is an older format, and fails the read instead.)
    Corrupt,
}

/// The one reader of durable bytes: a segment or snapshot file's
/// frames, streamed through a bounded buffer into one reusable payload
/// buffer. A frame's declared length is checked against the bytes left
/// in the file before anything is allocated for it, so a damaged
/// length costs nothing.
struct FrameReader {
    r: BufReader<File>,
    /// File offset of the next frame.
    pos: u64,
    /// File length.
    len: u64,
    payload: Vec<u8>,
}

impl FrameReader {
    /// A reader past `path`'s magic; `None` when the file is too short
    /// for one or holds another (a segment that never completed its
    /// first write, or a file that is not a log).
    fn open(path: &Path) -> std::io::Result<Option<FrameReader>> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = BufReader::with_capacity(IO_BUF, file);
        let mut magic = [0u8; SEG_MAGIC.len()];
        if len < magic.len() as u64 {
            return Ok(None);
        }
        r.read_exact(&mut magic)?;
        Ok((&magic == SEG_MAGIC).then(|| FrameReader {
            r,
            pos: magic.len() as u64,
            len,
            payload: Vec::new(),
        }))
    }

    fn next(&mut self) -> std::io::Result<Frame<'_>> {
        let left = self.len - self.pos;
        if left == 0 {
            return Ok(Frame::End);
        }
        if left < 8 {
            return Ok(Frame::Torn);
        }
        let mut header = [0u8; 8];
        self.r.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        // Smallest legal payload: 1-byte LSN varint + tag + a 1-byte field.
        if !(3..=MAX_FRAME).contains(&len) {
            return Ok(Frame::Corrupt);
        }
        if u64::from(len) > left - 8 {
            return Ok(Frame::Torn);
        }
        let len = len as usize;
        if self.payload.len() < len {
            self.payload = vec![0; len];
        }
        self.r.read_exact(&mut self.payload[..len])?;
        let payload = &self.payload[..len];
        if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return Ok(Frame::Corrupt);
        }
        self.pos += 8 + len as u64;
        let mut c = Cursor::new(payload);
        let Some(lsn) = c.vu64() else {
            return Ok(Frame::Corrupt);
        };
        let body = &payload[c.consumed()..];
        match WalRecordRef::decode(body) {
            Some(rec) => Ok(Frame::Record(lsn, rec)),
            None if body.first().is_some_and(|t| RETIRED_TAGS.contains(t)) => {
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "WAL record of a retired format (an account record)",
                ))
            }
            None => Ok(Frame::Corrupt),
        }
    }
}

/// What boot has restored so far.
#[derive(Default)]
struct Replay {
    vfs: Option<Vfs>,
    report: RecoveryReport,
    next_lsn: u64,
}

impl Replay {
    /// Apply the frames of `path`, the snapshot or a log segment, in
    /// order. Returns where the file stops at a bad frame, if it does:
    /// whether the frame is torn, and its offset.
    fn file(&mut self, path: &Path, snapshot: bool) -> std::io::Result<Option<(bool, u64)>> {
        let Some(mut frames) = FrameReader::open(path)? else {
            return Ok(Some((true, 0)));
        };
        let mut seq = 0;
        loop {
            let at = frames.pos;
            let (lsn, rec) = match frames.next()? {
                Frame::Record(lsn, rec) => (lsn, rec),
                Frame::End => return Ok(None),
                Frame::Torn => return Ok(Some((true, at))),
                Frame::Corrupt => return Ok(Some((false, at))),
            };
            if snapshot {
                // Snapshot frames are numbered from 0, and nothing
                // follows the trailer.
                if lsn != seq || self.report.snapshot_loaded {
                    return Ok(Some((false, at)));
                }
                seq += 1;
            } else if lsn < self.report.watermark {
                // Pre-watermark leftovers (crash between rotation and
                // purge); the snapshot already covers them.
                continue;
            }
            let v = self.vfs.get_or_insert_with(Vfs::new);
            if let WalRecordRef::Trailer {
                watermark, root, ..
            } = rec
            {
                if !snapshot || root != v.root().0 {
                    return Ok(Some((false, at)));
                }
                self.report.snapshot_loaded = true;
                self.report.watermark = watermark;
                self.next_lsn = watermark;
            }
            v.apply_record(rec);
            self.report.restored = true;
            if !snapshot {
                self.report.replayed += 1;
                self.next_lsn = lsn + 1;
            }
        }
    }
}

/// Restore everything durable in `dir` with one frame reader: the
/// snapshot first, then every log segment in LSN order. Returns what
/// was restored and the next LSN to assign. Only the damage policy
/// differs. Any bad frame in the snapshot, a frame out of sequence or a
/// missing trailer fails the boot with `InvalidData`: the snapshot
/// replaced the log it compacted. A log segment stops at its first
/// torn or corrupt frame, which is then truncated away (and every
/// later segment dropped) so the on-disk state is a clean prefix.
fn replay_dir(dir: &Path) -> std::io::Result<(Recovered, u64)> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    for e in fs::read_dir(dir)? {
        let e = e?;
        if let Some(start) = e.file_name().to_str().and_then(parse_seg_name) {
            segs.push((start, e.path()));
        }
    }
    segs.sort();
    let mut r = Replay::default();
    let snapshot = dir.join(SNAP_NAME);
    if fs::exists(&snapshot)?
        && (r.file(&snapshot, true)?.is_some() || !r.report.snapshot_loaded)
    {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "corrupt WAL snapshot",
        ));
    }
    let mut stopped = false;
    for (i, (_, path)) in segs.iter().enumerate() {
        if stopped {
            // Everything past a bad frame is untrusted; drop the whole
            // later segment so the next boot sees a clean prefix.
            let _ = fs::remove_file(path);
            continue;
        }
        if let Some((torn, at)) = r.file(path, false)? {
            // An incomplete frame running to EOF is the normal crash
            // shape in the final segment. The same shape inside an
            // earlier segment means records were lost before later ones
            // were written — corruption.
            if torn && i + 1 == segs.len() {
                r.report.torn_tail = true;
            } else {
                r.report.corrupt_frame = true;
            }
            truncate_file(path, at)?;
            stopped = true;
        }
    }
    if let Some(v) = &r.vfs {
        v.finish_recovery();
    }
    let recovered = Recovered {
        vfs: r.vfs.filter(|_| r.report.restored),
        report: r.report,
    };
    Ok((recovered, r.next_lsn))
}

fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_data()?;
    // Truncating to (or before) the magic leaves a stub that would be
    // re-reported as torn forever; drop empty segments entirely.
    if len <= SEG_MAGIC.len() as u64 {
        drop(f);
        let _ = fs::remove_file(path);
    } else if let Some(parent) = path.parent() {
        sync_dir(parent)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cred, Vfs};
    use std::sync::atomic::AtomicU32;

    const ROOT: Cred = Cred { uid: 0, gid: 0 };

    /// A fresh, empty scratch directory unique to this test run.
    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "idbox-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sync_dir_of_a_missing_directory_is_an_error() {
        let dir = tmpdir("nodir");
        assert_eq!(
            sync_dir(&dir).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Open a sync-every-op WAL in `dir` and attach it to a fresh Vfs.
    fn fresh(dir: &Path) -> (Vfs, Arc<Wal>) {
        let (wal, rec) = Wal::open(WalConfig::new(dir).sync_every_op()).unwrap();
        assert!(rec.vfs.is_none(), "fresh dir must have nothing to restore");
        let wal = Arc::new(wal);
        let mut vfs = Vfs::new();
        vfs.set_wal(Some(Arc::clone(&wal)));
        (vfs, wal)
    }

    /// Reopen `dir` and return the recovered state.
    fn reopen(dir: &Path) -> Recovered {
        let (_wal, rec) = Wal::open(WalConfig::new(dir)).unwrap();
        rec
    }

    #[test]
    fn crc32_known_answer() {
        // CRC-32C check value, plus lengths that exercise the
        // slicing-by-8 remainder path, the hardware/software split, and
        // the edges of the hardware path's three-lane blocks (768 B =
        // 3 x 256, 24 KiB = 3 x 8 KiB).
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
        let bytewise = |data: &[u8]| {
            let mut c = !0u32;
            for &b in data {
                let mut x = (c ^ b as u32) & 0xFF;
                for _ in 0..8 {
                    x = if x & 1 != 0 { 0x82F6_3B78 ^ (x >> 1) } else { x >> 1 };
                }
                c = x ^ (c >> 8);
            }
            !c
        };
        let lens = [
            1usize, 7, 8, 9, 63, 64, 65, 255, 767, 768, 769, 24575, 24576, 24577,
        ];
        for len in lens.into_iter().chain([(1 << 20) + 5]) {
            let data: Vec<u8> = (0..len as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
                .collect();
            let want = bytewise(&data);
            assert_eq!(crc32(&data), want, "dispatch, len {len}");
            assert_eq!(crc32_sw(0, &data), want, "software, len {len}");
            // Streaming: any split point folds to the one-shot value,
            // on both the dispatched and the table path. A cut at 5
            // leaves the rest unaligned; one at 8 KiB + 3 falls inside
            // the middle lane of the first 24 KiB block.
            for cut in [0, 5, len / 3, 8192 + 3, len] {
                let Some((a, b)) = data.split_at_checked(cut) else {
                    continue;
                };
                let at = format!("len {len} cut {cut}");
                assert_eq!(crc32_extend(crc32(a), b), want, "extend, {at}");
                assert_eq!(crc32_sw(crc32_sw(0, a), b), want, "sw extend, {at}");
            }
        }
    }

    /// The path of the only log segment in `dir` (asserts exactly one).
    fn only_segment(dir: &Path) -> PathBuf {
        let segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.starts_with("wal-")))
            .map(|e| e.path())
            .collect();
        assert_eq!(segs.len(), 1, "expected one segment, got {segs:?}");
        segs.into_iter().next().unwrap()
    }

    /// Apply a little bit of everything and record the fingerprint after
    /// every step (index 0 = untouched root).
    fn scripted_ops(vfs: &Vfs) -> Vec<String> {
        let mut fps = vec![vfs.namespace_fingerprint()];
        let mut step = |v: &Vfs| fps.push(v.namespace_fingerprint());
        vfs.mkdir(vfs.root(), "/home", 0o755, &ROOT).unwrap();
        step(vfs);
        vfs.mkdir(vfs.root(), "/home/fred", 0o700, &ROOT).unwrap();
        step(vfs);
        let f = vfs.create(vfs.root(), "/home/fred/data", 0o644, &ROOT).unwrap();
        step(vfs);
        vfs.write_at(f, 0, b"hello durable world").unwrap();
        step(vfs);
        vfs.chown(vfs.root(), "/home/fred", 1000, 1000, &ROOT).unwrap();
        step(vfs);
        vfs.chmod(vfs.root(), "/home/fred/data", 0o600, &ROOT).unwrap();
        step(vfs);
        vfs.symlink(vfs.root(), "/home/fred/data", "/home/fred/alias", &ROOT)
            .unwrap();
        step(vfs);
        vfs.link(vfs.root(), "/home/fred/data", "/home/fred/hard", &ROOT)
            .unwrap();
        step(vfs);
        vfs.rename(vfs.root(), "/home/fred/data", "/home/fred/data2", &ROOT)
            .unwrap();
        step(vfs);
        vfs.truncate(f, 5).unwrap();
        step(vfs);
        vfs.unlink(vfs.root(), "/home/fred/hard", &ROOT).unwrap();
        step(vfs);
        vfs.write_file(vfs.root(), "/home/fred/.__acl", b"globus:/O=U/CN=Fred rwl\n", &ROOT)
            .unwrap();
        step(vfs);
        fps
    }

    #[test]
    fn record_codec_roundtrip() {
        let records = vec![
            WalRecordRef::Create {
                dir: 1,
                name: "f",
                ino: 2,
                mode: 0o644,
                uid: 10,
                gid: 20,
                now: 7,
            },
            WalRecordRef::Mkdir {
                dir: 1,
                name: "d",
                ino: 3,
                mode: 0o755,
                uid: 0,
                gid: 0,
                now: 8,
            },
            WalRecordRef::Symlink {
                dir: 3,
                name: "s",
                ino: 4,
                target: "/elsewhere",
                uid: 1,
                gid: 2,
                now: 9,
            },
            WalRecordRef::Link {
                dir: 1,
                name: "h",
                target: 2,
                now: 10,
            },
            WalRecordRef::Unlink {
                dir: 1,
                name: "h",
                target: 2,
                now: 11,
            },
            WalRecordRef::Rmdir {
                dir: 1,
                name: "d",
                target: 3,
                now: 12,
            },
            WalRecordRef::Rename {
                odir: 1,
                oname: "a",
                ndir: 3,
                nname: "b",
                src: 2,
                replaced: 5,
                replaced_is_dir: false,
                src_is_dir: true,
                now: 13,
            },
            WalRecordRef::Write {
                ino: 2,
                off: 4096,
                data: &[0, 1, 2, 255],
                now: 14,
            },
            WalRecordRef::Truncate {
                ino: 2,
                len: 12,
                now: 15,
            },
            WalRecordRef::Chmod {
                ino: 2,
                mode: 0o4755,
                now: 16,
            },
            WalRecordRef::Chown {
                ino: 2,
                uid: 1000,
                gid: 1000,
                now: 17,
            },
        ];
        for rec in records {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(WalRecordRef::decode(&buf), Some(rec), "{rec:?}");
        }
        // Truncated payloads and unknown tags must decode to None, never panic.
        let mut buf = Vec::new();
        WalRecordRef::Write {
            ino: 1,
            off: 0,
            data: &[7; 32],
            now: 1,
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(WalRecordRef::decode(&buf[..cut]), None, "cut at {cut}");
        }
        assert_eq!(WalRecordRef::decode(&[200]), None);
        // The retired account tags decode to nothing, whatever follows.
        for tag in RETIRED_TAGS {
            let mut buf = vec![tag];
            put_vstr(&mut buf, "fred:x:1000:1000::/home/fred:/bin/sh");
            assert_eq!(WalRecordRef::decode(&buf), None, "tag {tag}");
        }
    }

    #[test]
    fn clean_shutdown_replays_identically() {
        let dir = tmpdir("clean");
        let (vfs, _wal) = fresh(&dir);
        let fps = scripted_ops(&vfs);
        let live = vfs.namespace_fingerprint();
        assert_eq!(&live, fps.last().unwrap());
        drop(vfs);
        let rec = reopen(&dir);
        assert!(rec.report.restored && !rec.report.torn_tail && !rec.report.corrupt_frame);
        assert_eq!(rec.vfs.unwrap().namespace_fingerprint(), live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_recovers_the_prefix() {
        let dir = tmpdir("torn");
        let (vfs, _wal) = fresh(&dir);
        scripted_ops(&vfs);
        let before_tail = vfs.namespace_fingerprint();
        // One final single-record op; the cut below tears exactly it.
        vfs.mkdir(vfs.root(), "/tail", 0o755, &ROOT).unwrap();
        drop(vfs);
        // Cut the final frame short by a few bytes: the classic torn write.
        let seg = only_segment(&dir);
        let len = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let rec = reopen(&dir);
        assert!(rec.report.torn_tail, "a cut tail must be reported as torn");
        assert!(!rec.report.corrupt_frame);
        let recovered = rec.vfs.unwrap().namespace_fingerprint();
        assert_eq!(
            recovered, before_tail,
            "losing the last record must recover exactly the previous state"
        );
        // The truncation is persisted: a second reopen sees a clean log.
        let rec2 = reopen(&dir);
        assert!(!rec2.report.torn_tail, "replay must have trimmed the torn tail");
        assert_eq!(rec2.vfs.unwrap().namespace_fingerprint(), recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_mismatch_mid_log_stops_at_the_prefix() {
        let dir = tmpdir("crc");
        let (vfs, _wal) = fresh(&dir);
        let fps = scripted_ops(&vfs);
        drop(vfs);
        // Walk the frames and flip one payload byte inside the 4th record.
        let seg = only_segment(&dir);
        let bytes = fs::read(&seg).unwrap();
        let mut pos = SEG_MAGIC.len();
        for _ in 0..3 {
            pos += 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        }
        let mut mutated = bytes.clone();
        mutated[pos + 12] ^= 0xFF; // inside the 4th frame's payload
        fs::write(&seg, &mutated).unwrap();
        let rec = reopen(&dir);
        assert!(rec.report.corrupt_frame, "a CRC flip must be reported as corruption");
        assert_eq!(rec.report.replayed, 3);
        let recovered = rec.vfs.unwrap().namespace_fingerprint();
        assert_eq!(recovered, fps[3], "replay must stop exactly before the bad frame");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_only_boot() {
        let dir = tmpdir("snaponly");
        let (vfs, wal) = fresh(&dir);
        let fps = scripted_ops(&vfs);
        let cut = vfs.snapshot_cut().unwrap();
        let watermark = cut.watermark();
        wal.install_snapshot(&cut).unwrap();
        let live = vfs.namespace_fingerprint();
        assert_eq!(&live, fps.last().unwrap());
        drop(vfs);
        drop(wal);
        let rec = reopen(&dir);
        assert!(rec.report.snapshot_loaded);
        assert_eq!(rec.report.replayed, 0, "no suffix was written after the snapshot");
        assert_eq!(rec.report.watermark, watermark);
        assert_eq!(rec.vfs.unwrap().namespace_fingerprint(), live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_suffix_replay() {
        let dir = tmpdir("snapsuffix");
        let (vfs, wal) = fresh(&dir);
        scripted_ops(&vfs);
        let cut = vfs.snapshot_cut().unwrap();
        wal.install_snapshot(&cut).unwrap();
        // Mutations after the snapshot land in the post-watermark segment.
        vfs.mkdir(vfs.root(), "/post", 0o755, &ROOT).unwrap();
        vfs.write_file(vfs.root(), "/post/extra", b"suffix bytes", &ROOT)
            .unwrap();
        vfs.unlink(vfs.root(), "/home/fred/alias", &ROOT).unwrap();
        let live = vfs.namespace_fingerprint();
        drop(vfs);
        drop(wal);
        let rec = reopen(&dir);
        assert!(rec.report.snapshot_loaded);
        assert!(rec.report.replayed > 0, "the suffix must replay on top");
        assert_eq!(rec.vfs.unwrap().namespace_fingerprint(), live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn since_snapshot_counts_records_logged_during_a_snapshot() {
        let dir = tmpdir("since");
        let (vfs, wal) = fresh(&dir);
        scripted_ops(&vfs);
        let cut = vfs.snapshot_cut().unwrap();
        // Logged after the cut fixed the watermark, before the install.
        for i in 0..3 {
            vfs.mkdir(vfs.root(), &format!("/during{i}"), 0o755, &ROOT).unwrap();
        }
        wal.install_snapshot(&cut).unwrap();
        assert_eq!(wal.since_snapshot(), 3);
        vfs.mkdir(vfs.root(), "/after", 0o755, &ROOT).unwrap();
        assert_eq!(wal.stats().since_snapshot, 4);
        drop(vfs);
        drop(wal);
        // After a reopen the count is the replayed suffix.
        let (wal, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.report.replayed, 4);
        assert_eq!(wal.since_snapshot(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_during_concurrent_mutation() {
        let dir = tmpdir("snapconc");
        let (wal, rec) = Wal::open(WalConfig {
            dir: dir.clone(),
            sync_ops: 8,
            sync_ms: 1,
        })
        .unwrap();
        assert!(rec.vfs.is_none());
        let wal = Arc::new(wal);
        wal.start_flusher();
        let mut vfs = Vfs::new();
        vfs.set_wal(Some(Arc::clone(&wal)));
        std::thread::scope(|s| {
            for t in 0..4 {
                let vfs = &vfs;
                s.spawn(move || {
                    let home = format!("/w{t}");
                    vfs.mkdir(vfs.root(), &home, 0o755, &ROOT).unwrap();
                    for i in 0..40 {
                        let p = format!("{home}/f{i}");
                        vfs.write_file(vfs.root(), &p, format!("{t}:{i}").as_bytes(), &ROOT)
                            .unwrap();
                        if i % 3 == 0 {
                            vfs.unlink(vfs.root(), &p, &ROOT).unwrap();
                        }
                    }
                });
            }
            // Snapshot repeatedly while the writers run.
            let vfs = &vfs;
            let wal2 = Arc::clone(&wal);
            s.spawn(move || {
                for _ in 0..5 {
                    let cut = vfs.snapshot_cut().unwrap();
                    wal2.install_snapshot(&cut).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        });
        let live = vfs.namespace_fingerprint();
        assert!(wal.stats().snapshots >= 5);
        drop(vfs);
        drop(wal);
        let rec = reopen(&dir);
        assert!(rec.report.snapshot_loaded);
        assert_eq!(
            rec.vfs.unwrap().namespace_fingerprint(),
            live,
            "snapshots cut mid-storm must still compose with the suffix"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The snapshot file the streamed writer must produce for `cut`:
    /// the segment magic, then one owned frame per record, each encoded
    /// alone by [`WalRecordRef::encode`] and numbered from 0.
    fn snapshot_file_oracle(cut: &SnapshotCut) -> Vec<u8> {
        let mut records = Vec::new();
        let mut push = |rec: WalRecordRef<'_>| {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            records.push(buf);
        };
        for (ino, inode) in &cut.inodes {
            let target = match &inode.payload {
                Payload::Symlink(t) => t.as_str(),
                _ => "",
            };
            push(WalRecordRef::Inode {
                ino: *ino,
                kind: inode.payload.kind(),
                mode: inode.mode,
                uid: inode.uid,
                gid: inode.gid,
                nlink: inode.nlink,
                atime: inode.atime,
                mtime: inode.mtime,
                ctime: inode.ctime,
                target,
            });
            match &inode.payload {
                Payload::Dir(entries) => {
                    for (name, child) in entries {
                        push(WalRecordRef::Entry {
                            dir: *ino,
                            name,
                            ino: child.0,
                        });
                    }
                }
                Payload::File(f) => {
                    let mut off = 0;
                    for data in f.chunks() {
                        push(WalRecordRef::Write {
                            ino: *ino,
                            off,
                            data,
                            now: inode.mtime,
                        });
                        off += data.len() as u64;
                    }
                }
                Payload::Symlink(_) => {}
            }
        }
        push(WalRecordRef::Trailer {
            watermark: cut.watermark(),
            root: cut.root,
            clock: cut.clock,
            change_gen: 0,
        });
        let mut file = SEG_MAGIC.to_vec();
        for (lsn, rec) in records.iter().enumerate() {
            let mut payload = Vec::new();
            put_vu64(&mut payload, lsn as u64);
            payload.extend_from_slice(rec);
            file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            file.extend_from_slice(&crc32(&payload).to_le_bytes());
            file.extend_from_slice(&payload);
        }
        file
    }

    #[test]
    fn streamed_snapshot_matches_the_record_encoder() {
        proptest::run_cases(
            proptest::ProptestConfig::with_cases(16),
            "wal::streamed_snapshot_oracle",
            |rng| {
                let dir = tmpdir("oracle");
                let (mut vfs, wal) = fresh(&dir);
                vfs.set_chunk_size(512);
                let root = vfs.root();
                scripted_ops(&vfs);
                for i in 0..rng.in_range(1, 12) {
                    let dir = format!("/d{}", rng.below(3));
                    let _ = vfs.mkdir(root, &dir, 0o755, &ROOT);
                    let path = format!("{dir}/f{i}");
                    let len = [0, 511, 512, 513, rng.below(3000)][rng.below(5) as usize];
                    let _ = vfs.write_file(root, &path, &vec![i as u8; len as usize], &ROOT);
                    match rng.below(3) {
                        0 => drop(vfs.link(root, &path, &format!("/h{i}"), &ROOT)),
                        1 => drop(vfs.symlink(root, &path, &format!("/s{i}"), &ROOT)),
                        _ => drop(vfs.rename(root, &path, &format!("/d0/r{i}"), &ROOT)),
                    }
                }
                let live = vfs.namespace_fingerprint();
                let cut = vfs.snapshot_cut().unwrap();
                let want = snapshot_file_oracle(&cut);
                wal.install_snapshot(&cut).unwrap();
                let got = fs::read(dir.join(SNAP_NAME)).unwrap();
                assert!(got == want, "streamed snapshot differs from the record encoder");
                // The file alone boots back to the namespace it was cut from.
                drop(vfs);
                drop(wal);
                for e in fs::read_dir(&dir).unwrap().flatten() {
                    if e.file_name() != SNAP_NAME {
                        fs::remove_file(e.path()).unwrap();
                    }
                }
                let rec = reopen(&dir);
                assert_eq!(rec.vfs.unwrap().namespace_fingerprint(), live);
                let _ = fs::remove_dir_all(&dir);
                Ok(())
            },
        );
    }

    #[test]
    fn failed_snapshot_install_purges_nothing() {
        let dir = tmpdir("squatted");
        let (vfs, wal) = fresh(&dir);
        let fps = scripted_ops(&vfs);
        // A directory squatting on the temporary name fails the install
        // after the cut rotated the log.
        fs::create_dir(dir.join("snapshot.tmp")).unwrap();
        let segs_before = fs::read_dir(&dir).unwrap().count();
        let cut = vfs.snapshot_cut().unwrap();
        assert!(wal.install_snapshot(&cut).is_err());
        let stats = wal.stats();
        assert_eq!((stats.snapshots, stats.snapshot_failures), (0, 1));
        assert!(!dir.join(SNAP_NAME).exists());
        // Rotation added a segment; none was purged.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), segs_before + 1);
        drop(vfs);
        drop(wal);
        let rec = reopen(&dir);
        assert!(!rec.report.snapshot_loaded);
        assert_eq!(&rec.vfs.unwrap().namespace_fingerprint(), fps.last().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_snapshot_frame_is_refused_and_purges_nothing() {
        let dir = tmpdir("oversized");
        let (vfs, wal) = fresh(&dir);
        let fps = scripted_ops(&vfs);
        let segs_before = fs::read_dir(&dir).unwrap().count();
        let mut cut = vfs.snapshot_cut().unwrap();
        // A file whose one chunk is a byte over the frame limit, so its
        // `Write` record is too. Zeroed on allocation and never written,
        // the chunk costs address space, not memory: the writer splices
        // it without reading it.
        let over = MAX_FRAME as usize + 1;
        // SAFETY: zeroed bytes are valid `u8`s.
        let chunk = unsafe { Arc::<[u8]>::new_zeroed_slice(over).assume_init() };
        let mut inode = cut.inodes[0].1.clone();
        let huge = crate::extent::FileContent::repeated(chunk, 1);
        inode.payload = Payload::File(huge);
        cut.inodes.push((u64::MAX, inode));
        let e = wal.install_snapshot(&cut).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::FileTooLarge);
        drop(cut);
        let stats = wal.stats();
        assert_eq!((stats.snapshots, stats.snapshot_failures), (0, 1));
        assert!(!dir.join(SNAP_NAME).exists() && !dir.join("snapshot.tmp").exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), segs_before + 1);
        drop(vfs);
        drop(wal);
        let rec = reopen(&dir);
        assert!(!rec.report.snapshot_loaded);
        assert_eq!(&rec.vfs.unwrap().namespace_fingerprint(), fps.last().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_snapshot_fails_the_boot() {
        let dir = tmpdir("oldformat");
        let (vfs, wal) = fresh(&dir);
        scripted_ops(&vfs);
        drop(vfs);
        drop(wal);
        let seg = only_segment(&dir);
        let log = fs::read(&seg).unwrap();
        // An `IDBXSNP1` file as an older build wrote it: magic, payload
        // length and CRC, version 1, watermark 0, then the namespace.
        let mut old = b"IDBXSNP1".to_vec();
        for field in [64u32, 0, 1] {
            old.extend_from_slice(&field.to_le_bytes());
        }
        old.extend_from_slice(&[0; 60]);
        fs::write(dir.join(SNAP_NAME), &old).unwrap();
        let err = Wal::open(WalConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Neither half-read nor passed over for the log: the boot stops
        // before replay touches a segment.
        assert_eq!(fs::read(&seg).unwrap(), log);
        assert_eq!(fs::read(dir.join(SNAP_NAME)).unwrap(), old);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let dir = tmpdir("group");
        let (wal, _rec) = Wal::open(WalConfig {
            dir: dir.clone(),
            sync_ops: 64,
            sync_ms: 1000, // effectively: only the sync_ops threshold fires
        })
        .unwrap();
        let wal = Arc::new(wal);
        let mut vfs = Vfs::new();
        vfs.set_wal(Some(Arc::clone(&wal)));
        for i in 0..256 {
            vfs.create(vfs.root(), &format!("/f{i}"), 0o644, &ROOT).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 256);
        assert!(
            stats.fsyncs <= stats.appends / 32,
            "group commit must amortize: {} fsyncs for {} appends",
            stats.fsyncs,
            stats.appends
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_crash_budget_tears_the_tail() {
        let dir = tmpdir("budget");
        let (vfs, wal) = fresh(&dir);
        vfs.mkdir(vfs.root(), "/a", 0o755, &ROOT).unwrap();
        let before = vfs.namespace_fingerprint();
        // Allow 5 more bytes to reach the disk, then "lose power".
        wal.set_crash_after_bytes(5);
        vfs.mkdir(vfs.root(), "/b", 0o755, &ROOT).unwrap();
        vfs.mkdir(vfs.root(), "/c", 0o755, &ROOT).unwrap();
        drop(vfs);
        drop(wal);
        let rec = reopen(&dir);
        assert!(rec.report.torn_tail);
        assert_eq!(
            rec.vfs.unwrap().namespace_fingerprint(),
            before,
            "a torn partial frame must roll back to the last durable op"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_restores_nothing() {
        let dir = tmpdir("fresh");
        let rec = reopen(&dir);
        assert!(!rec.report.restored);
        assert!(rec.vfs.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The files in `dir`, each with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| (e.path(), fs::read(e.path()).unwrap()))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn retired_account_records_fail_the_boot() {
        // A log an older build wrote: its account records (tags 12 and
        // 13), framed with valid CRCs, between ordinary records.
        for tag in RETIRED_TAGS {
            let dir = tmpdir(&format!("retired-{tag}"));
            let (vfs, wal) = fresh(&dir);
            vfs.mkdir(vfs.root(), "/before", 0o755, &ROOT).unwrap();
            wal.append_frame(|out| {
                out.bytes.push(tag);
                put_vstr(&mut out.bytes, "chirp:x:1000:1000::/home/chirp:/bin/sh");
            });
            vfs.mkdir(vfs.root(), "/after", 0o755, &ROOT).unwrap();
            drop(vfs);
            drop(wal);
            let files = dir_bytes(&dir);
            let err = Wal::open(WalConfig::new(&dir)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "tag {tag}");
            // Refused, not truncated at the record: every byte stays.
            assert_eq!(dir_bytes(&dir), files, "tag {tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn snapshot_trailer_with_an_account_blob_fails_the_boot() {
        let dir = tmpdir("trailer-blob");
        let (vfs, wal) = fresh(&dir);
        scripted_ops(&vfs);
        let cut = vfs.snapshot_cut().unwrap();
        wal.install_snapshot(&cut).unwrap();
        vfs.mkdir(vfs.root(), "/later", 0o755, &ROOT).unwrap();
        drop(vfs);
        drop(wal);
        // Re-frame the trailer as an older build wrote it: an (empty)
        // account blob after the namespace counters.
        let snap = fs::read(dir.join(SNAP_NAME)).unwrap();
        let mut frames = FrameReader::open(&dir.join(SNAP_NAME)).unwrap().unwrap();
        let (at, lsn) = loop {
            let at = frames.pos as usize;
            match frames.next().unwrap() {
                Frame::Record(lsn, WalRecordRef::Trailer { .. }) => break (at, lsn),
                Frame::Record(..) => {}
                _ => panic!("a snapshot without a trailer"),
            }
        };
        let mut p = Pending::default();
        p.frame(lsn, |out| {
            WalRecordRef::Trailer {
                watermark: cut.watermark(),
                root: cut.root,
                clock: cut.clock,
                change_gen: 0,
            }
            .encode(&mut out.bytes);
            put_vbytes(&mut out.bytes, b"");
        });
        let mut old = snap[..at].to_vec();
        p.write_to(&mut old, usize::MAX).unwrap();
        fs::write(dir.join(SNAP_NAME), &old).unwrap();
        let files = dir_bytes(&dir);
        let err = Wal::open(WalConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(dir_bytes(&dir), files, "nothing truncated or purged");
        let _ = fs::remove_dir_all(&dir);
    }
}
