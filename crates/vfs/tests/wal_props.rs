//! Crash-point recovery properties for the write-ahead log.
//!
//! The durability contract (DESIGN.md, "Durability model"): however
//! the log dies — torn final record, a crash budget that silently
//! swallows writes, a truncation at *any* byte offset — replay must
//! yield a namespace equivalent to some prefix of the successful-op
//! stream. Never a mixed state, never an op applied out of order, and
//! never a fail-open ACL: a recovered `.__acl` file must hold exactly
//! the bytes it held at the matched prefix, because a half-recovered
//! ACL that grants more than any real past state did would turn a
//! crash into a privilege escalation.
//!
//! Equivalence is checked with `Vfs::namespace_fingerprint()`, which
//! folds every path, inode number, mode, owner, link count, timestamp,
//! and file CRC into one deterministic string. Each generated op emits
//! at most one WAL record, so the fingerprint after each op enumerates
//! every legal recovery target. The ops reach every replay arm:
//! directory renames between parents, onto an empty directory and
//! within one parent, and writes to pinned files that were unlinked,
//! which replay must skip; the truncation property fails if a run
//! reaches none of one of these.
//!
//! The snapshot properties check the same contract for the snapshot
//! file, a compacted segment: a round trip and a cut isolated from
//! later writes preserve the namespace exactly, and any damage to the
//! file (a truncation at any byte, a flipped frame or record length, a
//! flipped bit) fails the boot.
//!
//! The codec properties check the record encoding itself: every record
//! type, the snapshot's inode, entry and trailer records included,
//! round-trips through `WalRecordRef::encode`/`decode`, and every
//! strict prefix, one-byte extension, out-of-range integer, over-long
//! varint, unknown tag or invalid UTF-8 string decodes to `None` —
//! replay's signal to truncate the frame as corrupt.
//!
//! The borrowed-frame properties check that a `Write` record framing
//! the file's chunks by reference writes the same segment bytes as the
//! record encoder, holds the bytes of its own moment when those chunks
//! are overwritten before the flush, and tears cleanly when a crash
//! budget cuts inside a borrowed chunk. The adopted-frame properties
//! check the same for appends whose buffer the file adopts, so its
//! chunks are windows of that buffer: whole and short tail windows,
//! overwrites, and truncates that copy kept windows out.
//!
//! Uses the `idbox-testkit` runner, so `IDBOX_PROP_SEED` (pinned in
//! `ci.sh`) reproduces a failing case exactly.

use idbox_vfs::wal::crc32;
use idbox_vfs::{Cred, FileKind, Ino, Vfs, Wal, WalConfig, WalRecordRef};
use proptest::{run_cases, PropError, ProptestConfig, TestRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const ROOT: Cred = Cred { uid: 0, gid: 0 };
const NDIRS: u64 = 3;
const NFILES: u64 = 5;
const OPS_PER_CASE: u64 = 40;

static SEQ: AtomicU32 = AtomicU32::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "idbox-walprop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn dir_path(i: u64) -> String {
    format!("/d{i}")
}

/// A top-level directory `/dN` or one of its subdirectories `/dN/sK`.
fn any_dir(rng: &mut TestRng) -> String {
    let top = dir_path(rng.below(NDIRS));
    if rng.bool() {
        top
    } else {
        format!("{top}/s{}", rng.below(2))
    }
}

fn file_path(rng: &mut TestRng) -> String {
    let f = rng.below(NFILES);
    match rng.below(3) {
        0 => format!("/f{f}"),
        1 => format!("/d{}/f{f}", rng.below(NDIRS)),
        _ => format!("/d{}/s{}/f{f}", rng.below(NDIRS), rng.below(2)),
    }
}

/// What the rarer arms of [`random_op`] reached, counted over the whole
/// test binary: a directory moved between parents with entries in it,
/// a directory that replaced an empty one, a directory renamed within
/// its parent, and a write to a pinned file no name reaches any more.
static REACHED: [AtomicU32; 4] = [const { AtomicU32::new(0) }; 4];
const MOVED_FULL_DIR: usize = 0;
const REPLACED_DIR: usize = 1;
const RENAMED_DIR_IN_PLACE: usize = 2;
const WROTE_UNLINKED: usize = 3;

fn reached(arm: usize) {
    REACHED[arm].fetch_add(1, Ordering::Relaxed);
}

/// Every path [`any_dir`] draws from.
fn all_dirs() -> impl Iterator<Item = String> {
    (0..NDIRS).flat_map(|i| [dir_path(i), format!("/d{i}/s0"), format!("/d{i}/s1")])
}

/// The directories of [`any_dir`]'s range that exist now.
fn live_dirs(vfs: &Vfs) -> Vec<String> {
    all_dirs()
        .filter(|d| vfs.stat(vfs.root(), d, false, &ROOT).is_ok_and(|s| s.is_dir()))
        .collect()
}

/// Every path [`file_path`] draws from.
fn all_files() -> impl Iterator<Item = String> {
    (0..NFILES).flat_map(|f| {
        std::iter::once(format!("/f{f}")).chain(all_dirs().map(move |d| format!("{d}/f{f}")))
    })
}

fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> Option<&'a T> {
    (!from.is_empty()).then(|| &from[rng.below(from.len() as u64) as usize])
}

fn parent(path: &str) -> &str {
    path.rsplit_once('/').map_or("", |(parent, _)| parent)
}

/// Apply one random namespace op. Every arm issues at most one WAL
/// record when it succeeds (that is why `write_file`, which logs
/// create + write, is not drawn here); failures log nothing. The
/// `.__acl` arm stands in for idbox-core ACL storage: those are the
/// files whose recovered bytes the fail-open check pins. `pinned`
/// holds the files an earlier draw pinned, with the path it pinned
/// them by.
fn random_op(vfs: &Vfs, rng: &mut TestRng, pinned: &mut Vec<(String, Ino)>) {
    let root = vfs.root();
    match rng.below(20) {
        0..=2 => {
            let _ = vfs.mkdir(root, &any_dir(rng), 0o755, &ROOT);
        }
        3..=4 => {
            let _ = vfs.create(root, &file_path(rng), 0o644, &ROOT);
        }
        5 => {
            if let Ok(ino) = vfs.resolve(root, &file_path(rng), true, &ROOT) {
                let byte = rng.below(256) as u8;
                let n = rng.in_range(1, 48) as usize;
                let _ = vfs.write_at(ino, rng.below(64), &vec![byte; n]);
            }
        }
        6 => {
            if let Ok(ino) = vfs.resolve(root, &file_path(rng), true, &ROOT) {
                let _ = vfs.truncate(ino, rng.below(40));
            }
        }
        7 => {
            let _ = vfs.chmod(root, &file_path(rng), rng.below(0o7777) as u16, &ROOT);
        }
        8 => {
            let id = rng.in_range(1000, 1004) as u32;
            let _ = vfs.chown(root, &file_path(rng), id, id, &ROOT);
        }
        9 => {
            let target = file_path(rng);
            let _ = vfs.symlink(root, &target, &format!("/ln{}", rng.below(NFILES)), &ROOT);
        }
        10 => {
            let _ = vfs.link(root, &file_path(rng), &file_path(rng), &ROOT);
        }
        11 => {
            let _ = vfs.unlink(root, &file_path(rng), &ROOT);
        }
        12 => {
            let _ = vfs.rmdir(root, &any_dir(rng), &ROOT);
        }
        13 => {
            let _ = vfs.rename(root, &file_path(rng), &file_path(rng), &ROOT);
        }
        14..=15 => {
            // Directory renames: between parents (the moved directory's
            // `..` and both parents' link counts change), onto another
            // directory, which it replaces when that one is empty, and
            // within one parent. Drawn among the moves the namespace
            // allows, so that most draws succeed.
            let dirs = live_dirs(vfs);
            let full: Vec<String> = dirs
                .iter()
                .filter(|d| vfs.readdir(root, d, &ROOT).is_ok_and(|e| e.len() > 2))
                .cloned()
                .collect();
            let from = if rng.bool() { pick(rng, &full) } else { pick(rng, &dirs) };
            let Some(from) = from.cloned() else {
                return;
            };
            let kind = rng.below(3);
            let targets: Vec<String> = all_dirs()
                .filter(|to| {
                    *to != from
                        && !to.starts_with(&format!("{from}/"))
                        && (parent(to).is_empty() || dirs.iter().any(|d| d == parent(to)))
                        && match kind {
                            0 => parent(to) != parent(&from),
                            1 => dirs.contains(to),
                            _ => parent(to) == parent(&from),
                        }
                })
                .collect();
            let Some(to) = pick(rng, &targets).cloned() else {
                return;
            };
            let was_full = full.contains(&from);
            let replaces = vfs.stat(root, &to, false, &ROOT).is_ok_and(|s| s.is_dir());
            if vfs.rename(root, &from, &to, &ROOT).is_ok() {
                let across = parent(&from) != parent(&to);
                if across && was_full {
                    reached(MOVED_FULL_DIR);
                }
                if replaces {
                    reached(REPLACED_DIR);
                }
                if !across {
                    reached(RENAMED_DIR_IN_PLACE);
                }
            }
        }
        16..=17 => {
            // A pinned file, as an open descriptor holds one: pin a
            // live file, which logs nothing; unlink a pinned file while
            // its path still names it; or write to a pinned file. Once
            // the file is unlinked, that write is logged against an
            // inode the namespace no longer holds, and replay must skip
            // it.
            let which = if pinned.is_empty() { 0 } else { rng.below(3) };
            match which {
                0 => {
                    // A live file, or a new top-level one (its create
                    // is then the draw's one record).
                    let files: Vec<(String, Ino)> = all_files()
                        .filter_map(|f| Some((vfs.resolve(root, &f, false, &ROOT).ok()?, f)))
                        .filter(|(ino, _)| vfs.fstat(*ino).is_ok_and(|s| s.is_file()))
                        .map(|(ino, f)| (f, ino))
                        .collect();
                    let file = match pick(rng, &files) {
                        Some(file) => Some(file.clone()),
                        None => {
                            let path = format!("/f{}", rng.below(NFILES));
                            vfs.create(root, &path, 0o644, &ROOT).ok().map(|ino| (path, ino))
                        }
                    };
                    if let Some((path, ino)) = file {
                        vfs.pin(ino).unwrap();
                        pinned.push((path, ino));
                    }
                }
                1 => {
                    let named: Vec<&String> = pinned
                        .iter()
                        .filter(|(path, ino)| vfs.resolve(root, path, false, &ROOT) == Ok(*ino))
                        .map(|(path, _)| path)
                        .collect();
                    if let Some(path) = pick(rng, &named) {
                        vfs.unlink(root, path, &ROOT).unwrap();
                    }
                }
                _ => {
                    // Mostly the unlinked ones, when there are any.
                    let unlinked: Vec<Ino> = pinned
                        .iter()
                        .map(|&(_, ino)| ino)
                        .filter(|&ino| vfs.fstat(ino).unwrap().nlink == 0)
                        .collect();
                    let ino = match pick(rng, &unlinked) {
                        Some(&ino) if rng.below(4) > 0 => Some(ino),
                        _ => pick(rng, pinned).map(|&(_, ino)| ino),
                    };
                    if let Some(ino) = ino {
                        let data = vec![rng.below(256) as u8; rng.in_range(1, 48) as usize];
                        vfs.write_at(ino, rng.below(64), &data).unwrap();
                        if unlinked.contains(&ino) {
                            reached(WROTE_UNLINKED);
                        }
                    }
                }
            }
        }
        _ => {
            // ACL mutation, one record per draw so every intermediate
            // ACL state is a legal prefix state: the first draw creates
            // the directory's empty `.__acl`, later draws overwrite its
            // head bytes in place.
            let dir = dir_path(rng.below(NDIRS));
            let acl = format!("{dir}/.__acl");
            let grant = format!("globus:/CN=User{} rwl\n", rng.below(4));
            match vfs.resolve(root, &acl, true, &ROOT) {
                Ok(ino) => {
                    let _ = vfs.write_at(ino, 0, grant.as_bytes());
                }
                Err(_) => {
                    let _ = vfs.create(root, &acl, 0o600, &ROOT);
                }
            }
        }
    }
}

/// A sync-every-op WAL in `dir` with a fresh namespace attached.
fn fresh(dir: &Path) -> (Arc<Wal>, Vfs) {
    let (wal, recovered) = Wal::open(WalConfig::new(dir).sync_every_op()).unwrap();
    assert!(recovered.vfs.is_none(), "fresh dir must hold no state");
    let wal = Arc::new(wal);
    let mut vfs = Vfs::new();
    vfs.set_wal(Some(Arc::clone(&wal)));
    (wal, vfs)
}

/// Replay whatever is in `dir` and fingerprint the result (a missing
/// namespace replays as the empty root-only namespace).
fn recover_fingerprint(dir: &Path) -> String {
    let (_wal, recovered) = Wal::open(WalConfig::new(dir)).unwrap();
    recovered.vfs.unwrap_or_default().namespace_fingerprint()
}

/// The fail-open check: every `.__acl` line in the recovered
/// fingerprint (path, inode, mode, owner, and — decisively — content
/// CRC) must appear verbatim in the matched prefix state. A recovered
/// ACL can only ever be an ACL some real past state had.
fn assert_no_fail_open(recovered: &str, matched_prefix: &str) -> Result<(), PropError> {
    for line in recovered.lines().filter(|l| l.contains(".__acl")) {
        if !matched_prefix.lines().any(|p| p == line) {
            return Err(PropError::fail(format!(
                "fail-open ACL state after crash recovery:\n  recovered: {line}\n\
                 not present in the matched prefix"
            )));
        }
    }
    Ok(())
}

/// Run `OPS_PER_CASE` random ops against a WAL'd namespace, returning
/// the fingerprint after every op (index 0 = the empty namespace). Ops
/// that fail add a duplicate entry, which is harmless: the set still
/// enumerates exactly the states some record prefix reaches.
fn run_script(vfs: &Vfs, rng: &mut TestRng) -> Vec<String> {
    let mut states = vec![vfs.namespace_fingerprint()];
    let mut pinned = Vec::new();
    for _ in 0..OPS_PER_CASE {
        random_op(vfs, rng, &mut pinned);
        states.push(vfs.namespace_fingerprint());
    }
    states
}

/// The log segments in `dir`, in LSN order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs
}

/// Copy the durable state into a fresh directory, chopping the last
/// log segment at `cut` bytes — a crash frozen at an arbitrary moment
/// of an in-flight write.
fn copy_with_cut(src: &Path, cut_fraction: u64) -> PathBuf {
    let dst = tmpdir("cut");
    for entry in std::fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
    let segs = segments(&dst);
    let last = segs.last().expect("a log segment always exists");
    let len = std::fs::metadata(last).unwrap().len();
    let cut = (len * cut_fraction.min(1000)) / 1000;
    let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
    f.set_len(cut).unwrap();
    dst
}

#[test]
fn truncation_at_any_byte_recovers_a_prefix() {
    run_cases(
        ProptestConfig::with_cases(24),
        "wal_props::truncation_at_any_byte",
        |rng| {
            let dir = tmpdir("trunc");
            let (wal, vfs) = fresh(&dir);
            let states = run_script(&vfs, rng);
            wal.sync();
            drop(vfs);
            drop(wal);
            // Eight independent crash points across the log, from
            // "nothing survived" through "everything survived".
            for _ in 0..8 {
                let cut_dir = copy_with_cut(&dir, rng.below(1001));
                let got = recover_fingerprint(&cut_dir);
                let Some(matched) = states.iter().find(|s| **s == got) else {
                    std::fs::remove_dir_all(&cut_dir).ok();
                    std::fs::remove_dir_all(&dir).ok();
                    return Err(PropError::fail(format!(
                        "recovered namespace matches no prefix state:\n{got}"
                    )));
                };
                assert_no_fail_open(&got, matched)?;
                std::fs::remove_dir_all(&cut_dir).ok();
            }
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
    let reached = REACHED.each_ref().map(|n| n.load(Ordering::Relaxed));
    assert!(
        reached.iter().all(|&n| n > 0),
        "a directory-rename or pinned-write arm was never reached: {reached:?}"
    );
}

#[test]
fn write_side_crash_budget_recovers_a_prefix() {
    run_cases(
        ProptestConfig::with_cases(24),
        "wal_props::write_side_crash_budget",
        |rng| {
            // Reference run: the op stream with no crash, enumerating
            // the legal prefix states. Re-seeding a second generator
            // from the same draw replays the identical stream below.
            let budget = rng.below(4096);
            let seed = rng.next_u64();
            let ref_dir = tmpdir("ref");
            let (ref_wal, ref_vfs) = fresh(&ref_dir);
            let mut rng_a = TestRng::new(seed);
            let states = run_script(&ref_vfs, &mut rng_a);
            drop(ref_vfs);
            drop(ref_wal);
            // Crashing run: identical ops, but the log silently stops
            // persisting after `budget` bytes — the write-side shape of
            // a power cut, torn final record included.
            let crash_dir = tmpdir("crash");
            let (crash_wal, crash_vfs) = fresh(&crash_dir);
            crash_wal.set_crash_after_bytes(budget);
            let mut rng_b = TestRng::new(seed);
            let _ = run_script(&crash_vfs, &mut rng_b);
            drop(crash_vfs);
            drop(crash_wal);
            let got = recover_fingerprint(&crash_dir);
            let found = states.iter().find(|s| **s == got);
            let outcome = match found {
                Some(matched) => assert_no_fail_open(&got, matched),
                None => Err(PropError::fail(format!(
                    "post-crash namespace matches no prefix state \
                     (budget {budget}):\n{got}"
                ))),
            };
            std::fs::remove_dir_all(&ref_dir).ok();
            std::fs::remove_dir_all(&crash_dir).ok();
            outcome
        },
    );
}

#[test]
fn snapshot_mid_stream_keeps_prefix_equivalence() {
    run_cases(
        ProptestConfig::with_cases(16),
        "wal_props::snapshot_mid_stream",
        |rng| {
            let dir = tmpdir("snap");
            let (wal, vfs) = fresh(&dir);
            let cut_at = rng.in_range(4, OPS_PER_CASE);
            let mut states = vec![vfs.namespace_fingerprint()];
            let mut snap_index = 0usize;
            let mut pinned = Vec::new();
            for i in 0..OPS_PER_CASE {
                random_op(&vfs, rng, &mut pinned);
                states.push(vfs.namespace_fingerprint());
                if i == cut_at {
                    // Snapshot + truncate mid-stream, like the server's
                    // auto-snapshot thread.
                    let cut = vfs.snapshot_cut().unwrap();
                    wal.install_snapshot(&cut).unwrap();
                    snap_index = states.len() - 1;
                }
            }
            wal.sync();
            drop(vfs);
            drop(wal);
            // A crash after the snapshot recovers the snapshot state or
            // later — never anything older (the truncated history) and
            // never a non-prefix state.
            for _ in 0..6 {
                let cut_dir = copy_with_cut(&dir, rng.below(1001));
                let got = recover_fingerprint(&cut_dir);
                // The snapshot truncated everything older, so the
                // recovered state must be one the namespace reached at
                // or after the snapshot point.
                let Some(matched) = states[snap_index..].iter().find(|s| **s == got) else {
                    std::fs::remove_dir_all(&cut_dir).ok();
                    std::fs::remove_dir_all(&dir).ok();
                    return Err(PropError::fail(format!(
                        "recovered state is pre-snapshot or matches no \
                         prefix (snapshot at index {snap_index}):\n{got}"
                    )));
                };
                assert_no_fail_open(&got, matched)?;
                std::fs::remove_dir_all(&cut_dir).ok();
            }
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
}

/// Chunk size for the snapshot properties: small, so multi-chunk files
/// and sizes off the chunk boundary cost a few KiB.
const CHUNK: usize = 512;

/// Populate `vfs` with every shape a snapshot must carry: empty files,
/// sizes just off and on the chunk boundary, a write past EOF (a
/// zero-filled gap), a hard link, a symlink, a directory renamed under
/// a higher-numbered directory, an `.__acl` file, an unlinked-but-pinned
/// file, then a tail of random ops. Returns the multi-chunk file.
fn build_namespace(vfs: &Vfs, rng: &mut TestRng) -> idbox_vfs::Ino {
    let root = vfs.root();
    vfs.mkdir(root, "/a", 0o755, &ROOT).unwrap();
    vfs.mkdir(root, "/a/sub", 0o750, &ROOT).unwrap();
    vfs.create(root, "/a/empty", 0o644, &ROOT).unwrap();
    for (i, len) in [CHUNK - 1, CHUNK, CHUNK + 1, rng.in_range(1, 4 * CHUNK as u64) as usize]
        .into_iter()
        .enumerate()
    {
        let byte = rng.below(256) as u8;
        vfs.write_file(root, &format!("/a/f{i}"), &vec![byte; len], &ROOT).unwrap();
    }
    let big = vfs.create(root, "/a/sub/big", 0o644, &ROOT).unwrap();
    let gap = rng.in_range(1, 3 * CHUNK as u64);
    vfs.write_at(big, gap, &vec![0xB1; 2 * CHUNK + 7]).unwrap();
    vfs.link(root, "/a/f0", "/a/sub/hard", &ROOT).unwrap();
    vfs.symlink(root, "/a/f1", "/a/ln", &ROOT).unwrap();
    vfs.write_file(root, "/a/sub/.__acl", b"globus:/CN=User0 rwl\n", &ROOT)
        .unwrap();
    // `/z` gets a higher inode number than `/a/sub`, so the moved
    // directory's parent follows it in the snapshot's inode order.
    vfs.mkdir(root, "/z", 0o755, &ROOT).unwrap();
    vfs.rename(root, "/a/sub", "/z/sub", &ROOT).unwrap();
    let pinned = vfs.write_file(root, "/a/pinned", b"open but gone", &ROOT).unwrap();
    vfs.pin(pinned).unwrap();
    vfs.unlink(root, "/a/pinned", &ROOT).unwrap();
    let mut pinned = vec![("/a/pinned".to_string(), pinned)];
    for _ in 0..12 {
        random_op(vfs, rng, &mut pinned);
    }
    vfs.resolve(root, "/z/sub/big", true, &ROOT).unwrap()
}

/// The inode numbers a fingerprint names.
fn fingerprint_inos(fp: &str) -> Vec<u64> {
    fp.lines()
        .filter_map(|l| l.split('|').nth(1)?.strip_prefix("ino ")?.parse().ok())
        .collect()
}

/// A fresh directory holding only `src`'s snapshot file.
fn snapshot_only(src: &Path) -> PathBuf {
    let dst = tmpdir("snaponly");
    std::fs::copy(src.join("snapshot.bin"), dst.join("snapshot.bin")).unwrap();
    dst
}

#[test]
fn snapshot_round_trip_preserves_the_namespace() {
    run_cases(
        ProptestConfig::with_cases(12),
        "wal_props::snapshot_round_trip",
        |rng| {
            let dir = tmpdir("roundtrip");
            let (wal, mut vfs) = fresh(&dir);
            vfs.set_chunk_size(CHUNK);
            build_namespace(&vfs, rng);
            let cut = vfs.snapshot_cut().unwrap();
            wal.install_snapshot(&cut).unwrap();
            let live = vfs.namespace_fingerprint();
            drop(vfs);
            drop(wal);
            for boot_dir in [dir.clone(), snapshot_only(&dir)] {
                let (wal, recovered) = Wal::open(WalConfig::new(&boot_dir)).unwrap();
                assert!(recovered.report.snapshot_loaded);
                let mut vfs = recovered.vfs.expect("the snapshot restores a namespace");
                assert_eq!(vfs.namespace_fingerprint(), live, "round trip changed the namespace");
                // Allocation resumes past every number the snapshot uses.
                vfs.set_wal(Some(Arc::new(wal)));
                let fresh_ino = vfs.create(vfs.root(), "/after-boot", 0o644, &ROOT).unwrap();
                assert!(
                    !fingerprint_inos(&live).contains(&fresh_ino.0),
                    "create after boot reused inode {fresh_ino}"
                );
                drop(vfs);
                std::fs::remove_dir_all(&boot_dir).ok();
            }
            Ok(())
        },
    );
}

#[test]
fn snapshot_is_isolated_from_mutations_after_the_cut() {
    run_cases(
        ProptestConfig::with_cases(12),
        "wal_props::snapshot_isolation",
        |rng| {
            let dir = tmpdir("isolation");
            let (wal, mut vfs) = fresh(&dir);
            vfs.set_chunk_size(CHUNK);
            let big = build_namespace(&vfs, rng);
            let root = vfs.root();
            let cut = vfs.snapshot_cut().unwrap();
            let at_cut = vfs.namespace_fingerprint();
            // Between the cut and the install: overwrite a captured chunk
            // in place, truncate, unlink, rename, and rewrite an ACL.
            let off = rng.below(3 * CHUNK as u64);
            vfs.write_at(big, off, &vec![0x5A; rng.in_range(1, CHUNK as u64) as usize])
                .unwrap();
            let f3 = vfs.resolve(root, "/a/f3", true, &ROOT);
            if let Ok(f3) = f3 {
                vfs.truncate(f3, rng.below(CHUNK as u64)).unwrap();
            }
            let _ = vfs.unlink(root, "/a/f2", &ROOT);
            let _ = vfs.rename(root, "/a/f1", "/z/moved", &ROOT);
            let acl = vfs.resolve(root, "/z/sub/.__acl", true, &ROOT).unwrap();
            vfs.truncate(acl, 0).unwrap();
            vfs.write_at(acl, 0, b"globus:/CN=User3 l\n").unwrap();
            let final_state = vfs.namespace_fingerprint();
            assert_ne!(at_cut, final_state);
            wal.install_snapshot(&cut).unwrap();
            drop(cut);
            drop(vfs);
            drop(wal);
            let alone = snapshot_only(&dir);
            assert_eq!(recover_fingerprint(&alone), at_cut, "the snapshot alone is the cut");
            assert_eq!(recover_fingerprint(&dir), final_state, "snapshot + suffix is final");
            std::fs::remove_dir_all(&alone).ok();
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
}

/// Byte offsets of the snapshot's length fields: every frame's `len`
/// header, and the length prefix inside its record (of a `Write`'s
/// data, an `Inode`'s symlink target, an `Entry`'s name); a `Trailer`
/// holds none.
fn snapshot_length_fields(bytes: &[u8]) -> Vec<usize> {
    let varint = |at: usize| at + bytes[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let varints = |at: usize, n: usize| (0..n).fold(at, |at, _| varint(at));
    let mut fields = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        fields.push(pos);
        let tag_at = varint(pos + 8); // past the LSN
        match bytes[tag_at] {
            8 => fields.push(varints(tag_at + 1, 2)), // ino, off
            14 => fields.push(varints(varint(tag_at + 1) + 1, 7)), // ino, kind, 7 integers
            15 => fields.push(varints(tag_at + 1, 1)), // dir
            16 => {}
            tag => panic!("tag {tag} in a snapshot"),
        }
        pos += 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    }
    fields
}

#[test]
fn damaged_snapshot_fails_closed() {
    run_cases(
        ProptestConfig::with_cases(6),
        "wal_props::damaged_snapshot",
        |rng| {
            let dir = tmpdir("damaged");
            let (wal, mut vfs) = fresh(&dir);
            vfs.set_chunk_size(CHUNK);
            build_namespace(&vfs, rng);
            let cut = vfs.snapshot_cut().unwrap();
            wal.install_snapshot(&cut).unwrap();
            drop(vfs);
            drop(wal);
            let good = std::fs::read(dir.join("snapshot.bin")).unwrap();
            let alone = snapshot_only(&dir);
            assert!(Wal::open(WalConfig::new(&alone)).unwrap().1.vfs.is_some());
            std::fs::remove_dir_all(&alone).ok();
            // Every damaged boot fails before it writes a byte, so they
            // can share one directory.
            let boot_dir = tmpdir("damaged-boot");
            let boot = |bytes: &[u8]| {
                std::fs::write(boot_dir.join("snapshot.bin"), bytes).unwrap();
                Wal::open(WalConfig::new(&boot_dir)).map(|(_, r)| r.vfs.is_some())
            };
            let mut damaged: Vec<Vec<u8>> = Vec::new();
            for _ in 0..16 {
                let mut b = good.clone();
                let at = rng.below(good.len() as u64) as usize;
                b[at] ^= 1 << rng.below(8);
                damaged.push(b);
            }
            // A frame length claiming far beyond the file (top byte) and
            // one just off (low byte); a record length off in value, and
            // in its varint's continuation bit.
            for (i, &f) in snapshot_length_fields(&good).iter().enumerate() {
                let flips = if i % 2 == 0 { [(f + 3, 0xFF), (f, 0xFF)] } else { [(f, 0x7F), (f, 0x80)] };
                for (at, mask) in flips {
                    let mut b = good.clone();
                    b[at] ^= mask;
                    damaged.push(b);
                }
            }
            let truncations = (0..good.len()).map(|n| &good[..n]);
            let outcome = damaged.iter().map(Vec::as_slice).chain(truncations).find_map(|b| {
                boot(b).ok().map(|restored| {
                    PropError::fail(format!(
                        "a damaged snapshot of {} bytes booted (restored a namespace: {restored})",
                        b.len()
                    ))
                })
            });
            std::fs::remove_dir_all(&boot_dir).ok();
            std::fs::remove_dir_all(&dir).ok();
            outcome.map_or(Ok(()), Err)
        },
    );
}

/// A random name or target: empty, ASCII, or multi-byte
/// UTF-8 (two-, three- and four-byte sequences).
fn random_text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 6] = ["", "f", ".__acl", "é", "名前", "🦀"];
    (0..rng.below(5))
        .map(|_| PIECES[rng.below(6) as usize])
        .collect()
}

/// A random integer no larger than `max` (of the form 2^k − 1), biased
/// toward the edges of its range.
fn random_int(rng: &mut TestRng, max: u64) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => max,
        2 => rng.below(128),
        _ => rng.next_u64() & max,
    }
}

fn any_u64(rng: &mut TestRng) -> u64 {
    random_int(rng, u64::MAX)
}

fn any_u32(rng: &mut TestRng) -> u32 {
    random_int(rng, u32::MAX.into()) as u32
}

fn any_u16(rng: &mut TestRng) -> u16 {
    random_int(rng, u16::MAX.into()) as u16
}

/// A random record of `variant` (0..14, one per record type), borrowing
/// its names from `text` and its bytes from `data`.
fn random_record<'a>(
    rng: &mut TestRng,
    variant: u64,
    text: &'a [String; 2],
    data: &'a [u8],
) -> WalRecordRef<'a> {
    let (a, b) = (text[0].as_str(), text[1].as_str());
    match variant {
        0 => WalRecordRef::Create {
            dir: any_u64(rng),
            name: a,
            ino: any_u64(rng),
            mode: any_u16(rng),
            uid: any_u32(rng),
            gid: any_u32(rng),
            now: any_u64(rng),
        },
        1 => WalRecordRef::Mkdir {
            dir: any_u64(rng),
            name: a,
            ino: any_u64(rng),
            mode: any_u16(rng),
            uid: any_u32(rng),
            gid: any_u32(rng),
            now: any_u64(rng),
        },
        2 => WalRecordRef::Symlink {
            dir: any_u64(rng),
            name: a,
            ino: any_u64(rng),
            target: b,
            uid: any_u32(rng),
            gid: any_u32(rng),
            now: any_u64(rng),
        },
        3 => WalRecordRef::Link {
            dir: any_u64(rng),
            name: a,
            target: any_u64(rng),
            now: any_u64(rng),
        },
        4 => WalRecordRef::Unlink {
            dir: any_u64(rng),
            name: a,
            target: any_u64(rng),
            now: any_u64(rng),
        },
        5 => WalRecordRef::Rmdir {
            dir: any_u64(rng),
            name: a,
            target: any_u64(rng),
            now: any_u64(rng),
        },
        6 => WalRecordRef::Rename {
            odir: any_u64(rng),
            oname: a,
            ndir: any_u64(rng),
            nname: b,
            src: any_u64(rng),
            replaced: any_u64(rng),
            replaced_is_dir: rng.bool(),
            src_is_dir: rng.bool(),
            now: any_u64(rng),
        },
        7 => WalRecordRef::Write {
            ino: any_u64(rng),
            off: any_u64(rng),
            data,
            now: any_u64(rng),
        },
        8 => WalRecordRef::Truncate {
            ino: any_u64(rng),
            len: any_u64(rng),
            now: any_u64(rng),
        },
        9 => WalRecordRef::Chmod {
            ino: any_u64(rng),
            mode: any_u16(rng),
            now: any_u64(rng),
        },
        10 => WalRecordRef::Chown {
            ino: any_u64(rng),
            uid: any_u32(rng),
            gid: any_u32(rng),
            now: any_u64(rng),
        },
        11 => {
            let kind = [FileKind::File, FileKind::Dir, FileKind::Symlink][rng.below(3) as usize];
            WalRecordRef::Inode {
                ino: any_u64(rng),
                kind,
                mode: any_u16(rng),
                uid: any_u32(rng),
                gid: any_u32(rng),
                nlink: any_u32(rng),
                atime: any_u64(rng),
                mtime: any_u64(rng),
                ctime: any_u64(rng),
                target: if kind == FileKind::Symlink { b } else { "" },
            }
        }
        12 => WalRecordRef::Entry {
            dir: any_u64(rng),
            name: a,
            ino: any_u64(rng),
        },
        _ => WalRecordRef::Trailer {
            watermark: any_u64(rng),
            root: any_u64(rng),
            clock: any_u64(rng),
            change_gen: any_u64(rng),
        },
    }
}

fn encoded(rec: WalRecordRef<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    rec.encode(&mut buf);
    buf
}

#[test]
fn codec_round_trips_and_rejects_prefixes_and_extensions() {
    run_cases(
        ProptestConfig::with_cases(48),
        "wal_props::codec_round_trip",
        |rng| {
            let text = [random_text(rng), random_text(rng)];
            let data: Vec<u8> = match rng.below(3) {
                0 => Vec::new(),
                _ => (0..rng.below(300)).map(|_| rng.next_u64() as u8).collect(),
            };
            for variant in 0..14 {
                let rec = random_record(rng, variant, &text, &data);
                let buf = encoded(rec);
                if WalRecordRef::decode(&buf) != Some(rec) {
                    return Err(PropError::fail(format!("{rec:?} did not round-trip")));
                }
                for cut in 0..buf.len() {
                    if WalRecordRef::decode(&buf[..cut]).is_some() {
                        return Err(PropError::fail(format!("{rec:?}: prefix {cut} decoded")));
                    }
                }
                let mut longer = buf.clone();
                for extra in 0..=u8::MAX {
                    longer.push(extra);
                    if WalRecordRef::decode(&longer).is_some() {
                        return Err(PropError::fail(format!(
                            "{rec:?}: extension {extra} decoded"
                        )));
                    }
                    longer.pop();
                }
            }
            Ok(())
        },
    );
}

/// LEB128, the record codec's integer form, written by hand so the
/// malformed cases below can say exactly which bytes they hold.
fn leb(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `bytes` with the first occurrence of `from` replaced by `to` (same
/// length, so every length prefix stays valid).
fn splice(mut bytes: Vec<u8>, from: &[u8], to: &[u8]) -> Vec<u8> {
    assert_eq!(from.len(), to.len());
    let at = bytes.windows(from.len()).position(|w| w == from).unwrap();
    bytes[at..at + to.len()].copy_from_slice(to);
    bytes
}

#[test]
fn codec_rejects_malformed_fields() {
    const BAD_UTF8: &[u8] = b"N\xFFME";
    let create = WalRecordRef::Create {
        dir: 1,
        name: "NAME",
        ino: 2,
        mode: 0o644,
        uid: 3,
        gid: 4,
        now: 5,
    };
    let symlink = WalRecordRef::Symlink {
        dir: 1,
        name: "s",
        ino: 2,
        target: "NAME",
        uid: 3,
        gid: 4,
        now: 5,
    };
    let inode = |kind, target| WalRecordRef::Inode {
        ino: 2,
        kind,
        mode: 0o644,
        uid: 3,
        gid: 4,
        nlink: 1,
        atime: 5,
        mtime: 6,
        ctime: 7,
        target,
    };
    let entry = WalRecordRef::Entry {
        dir: 1,
        name: "NAME",
        ino: 2,
    };
    for rec in [create, symlink, inode(FileKind::Symlink, "NAME"), entry] {
        let bad = splice(encoded(rec), b"NAME", BAD_UTF8);
        assert_eq!(WalRecordRef::decode(&bad), None, "invalid UTF-8 in {rec:?}");
    }
    // Integer ranges: the largest value of each field decodes, one more
    // does not.
    let chmod = |mode: u64| {
        let mut b = vec![10, 1];
        leb(&mut b, mode);
        b.push(1);
        b
    };
    assert!(WalRecordRef::decode(&chmod(u16::MAX.into())).is_some());
    assert_eq!(WalRecordRef::decode(&chmod(1 << 16)), None, "mode 2^16");
    let chown = |uid: u64| {
        let mut b = vec![11, 1];
        leb(&mut b, uid);
        b.extend_from_slice(&[0, 1]);
        b
    };
    assert!(WalRecordRef::decode(&chown(u32::MAX.into())).is_some());
    assert_eq!(WalRecordRef::decode(&chown(1 << 32)), None, "uid 2^32");
    // u64::MAX is the longest canonical varint (10 bytes); an 11-byte
    // one is refused, as is a tenth byte carrying bits past 2^64.
    let truncate = |ino: &[u8]| [&[9][..], ino, &[0, 1]].concat();
    let mut max = Vec::new();
    leb(&mut max, u64::MAX);
    assert_eq!(max.len(), 10);
    assert!(WalRecordRef::decode(&truncate(&max)).is_some());
    let eleven = [[0x80; 10].as_slice(), &[0]].concat();
    assert_eq!(
        WalRecordRef::decode(&truncate(&eleven)),
        None,
        "11-byte varint"
    );
    let overflow = [[0xFF; 9].as_slice(), &[0x02]].concat();
    assert_eq!(
        WalRecordRef::decode(&truncate(&overflow)),
        None,
        "varint past 2^64"
    );
    // An inode image's kind is one of three, and only a symlink's
    // carries a target.
    let file = encoded(inode(FileKind::File, ""));
    let kind_at = 2; // tag, then the one-byte inode number
    assert!(WalRecordRef::decode(&file).is_some());
    for kind in [3, 255] {
        let mut bad = file.clone();
        bad[kind_at] = kind;
        assert_eq!(WalRecordRef::decode(&bad), None, "inode kind {kind}");
    }
    let mut targeted = encoded(inode(FileKind::Symlink, "NAME"));
    targeted[kind_at] = 0;
    assert_eq!(WalRecordRef::decode(&targeted), None, "a file with a target");
    // Unknown tags, followed by bytes any known tag would accept, and
    // the retired account tags 12 and 13 over a passwd line.
    for tag in [0, 17, 200, 255] {
        assert_eq!(WalRecordRef::decode(&[tag, 1, 1, 1]), None, "tag {tag}");
    }
    const LINE: &[u8] = b"fred:x:1000:1000::/home/fred:/bin/sh";
    for tag in [12, 13] {
        let retired = [&[tag, LINE.len() as u8][..], LINE].concat();
        assert_eq!(WalRecordRef::decode(&retired), None, "retired tag {tag}");
    }
    assert_eq!(WalRecordRef::decode(&[]), None);
}

#[test]
fn codec_survives_random_bytes() {
    run_cases(
        ProptestConfig::with_cases(2000),
        "wal_props::codec_random_bytes",
        |rng| {
            // Mostly a known tag first, so decoding gets past the tag.
            let mut bytes: Vec<u8> = (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect();
            if let Some(tag) = bytes.first_mut() {
                if rng.below(4) != 0 {
                    *tag = rng.in_range(1, 17) as u8;
                }
            }
            // Whatever decodes must survive its own round trip.
            if let Some(rec) = WalRecordRef::decode(&bytes) {
                if WalRecordRef::decode(&encoded(rec)) != Some(rec) {
                    return Err(PropError::fail(format!("{rec:?} from {bytes:?}")));
                }
            }
            Ok(())
        },
    );
}

/// A random write at chunk size [`CHUNK`]: whole chunks, a part of one
/// chunk, or a run straddling chunk boundaries at both ends.
fn random_write(rng: &mut TestRng) -> (u64, Vec<u8>) {
    let chunk = CHUNK as u64;
    let (off, len) = match rng.below(3) {
        0 => (chunk * rng.below(4), chunk * rng.in_range(1, 4)),
        1 => {
            let at = rng.below(chunk - 1);
            (chunk * rng.below(4) + at, rng.in_range(1, chunk - at))
        }
        _ => (rng.below(4 * chunk), rng.in_range(chunk, 4 * chunk)),
    };
    (off, (0..len).map(|_| rng.next_u64() as u8).collect())
}

/// The bytes of the only log segment in `dir`.
fn only_segment(dir: &Path) -> Vec<u8> {
    let segs = segments(dir);
    assert_eq!(segs.len(), 1, "expected one segment, got {segs:?}");
    std::fs::read(&segs[0]).unwrap()
}

#[test]
fn borrowed_write_frames_match_the_record_encoder() {
    run_cases(
        ProptestConfig::with_cases(24),
        "wal_props::borrowed_write_frames",
        |rng| {
            let dir = tmpdir("borrowed");
            // Group commit with no flusher thread and a backstop no case
            // reaches: nothing leaves the pending batch before `sync`,
            // so later writes land on chunks it still borrows.
            let (wal, _) = Wal::open(WalConfig {
                dir: dir.clone(),
                sync_ops: 1 << 20,
                sync_ms: 1000,
            })
            .unwrap();
            let wal = Arc::new(wal);
            let mut vfs = Vfs::new();
            vfs.set_chunk_size(CHUNK);
            vfs.set_wal(Some(Arc::clone(&wal)));
            let root = vfs.root();
            let files: Vec<Ino> = (0..3)
                .map(|i| vfs.create(root, &format!("/f{i}"), 0o644, &ROOT).unwrap())
                .collect();
            // Every write, in log order, with the bytes it logged.
            let mut writes: Vec<(u64, u64, Vec<u8>)> = Vec::new();
            for _ in 0..rng.in_range(4, 16) {
                let ino = files[rng.below(3) as usize];
                let (off, data) = random_write(rng);
                vfs.write_at(ino, off, &data).unwrap();
                writes.push((ino.0, off, data));
                if rng.bool() {
                    // Overwrite part of what was just written, before any
                    // flush: its record must keep the old bytes.
                    let (base, len) = (off, writes.last().unwrap().2.len() as u64);
                    let at = base + rng.below(len);
                    let patch =
                        vec![rng.below(256) as u8; rng.in_range(1, 2 * CHUNK as u64) as usize];
                    vfs.write_at(ino, at, &patch).unwrap();
                    writes.push((ino.0, at, patch));
                }
            }
            wal.sync();
            let live = vfs.namespace_fingerprint();
            drop(vfs);
            drop(wal);
            let seg = only_segment(&dir);
            // Re-frame every record through the encoder; the segment must
            // be exactly that, and its writes exactly the model's.
            let mut want = seg[..8].to_vec();
            let mut logged = Vec::new();
            let mut pos = 8;
            while pos < seg.len() {
                let len = u32::from_le_bytes(seg[pos..pos + 4].try_into().unwrap()) as usize;
                let payload = &seg[pos + 8..pos + 8 + len];
                let lsn_len = payload.iter().position(|b| b & 0x80 == 0).unwrap() + 1;
                let Some(rec) = WalRecordRef::decode(&payload[lsn_len..]) else {
                    return Err(PropError::fail(format!("undecodable frame at {pos}")));
                };
                if let WalRecordRef::Write { ino, off, data, .. } = rec {
                    logged.push((ino, off, data.to_vec()));
                }
                let mut framed = payload[..lsn_len].to_vec();
                rec.encode(&mut framed);
                want.extend_from_slice(&(framed.len() as u32).to_le_bytes());
                want.extend_from_slice(&crc32(&framed).to_le_bytes());
                want.extend_from_slice(&framed);
                pos += 8 + len;
            }
            let outcome = if logged != writes {
                Err(PropError::fail("logged writes differ from the writes made"))
            } else if seg != want {
                Err(PropError::fail("segment differs from the encoder's frames"))
            } else if recover_fingerprint(&dir) != live {
                Err(PropError::fail("replay differs from the live namespace"))
            } else {
                Ok(())
            };
            std::fs::remove_dir_all(&dir).ok();
            outcome
        },
    );
}

#[test]
fn crash_budget_inside_a_borrowed_chunk_recovers_the_prefix() {
    run_cases(
        ProptestConfig::with_cases(16),
        "wal_props::crash_inside_borrowed_chunk",
        |rng| {
            let dir = tmpdir("borrowedcrash");
            let (wal, mut vfs) = fresh(&dir);
            vfs.set_chunk_size(CHUNK);
            let root = vfs.root();
            let ino = vfs.create(root, "/f", 0o644, &ROOT).unwrap();
            for _ in 0..rng.below(4) {
                let (off, data) = random_write(rng);
                vfs.write_at(ino, off, &data).unwrap();
            }
            let before = vfs.namespace_fingerprint();
            let durable = only_segment(&dir).len() as u64;
            // A chunk-aligned write of whole chunks: its frame is a
            // header of at most 18 bytes, then the borrowed chunks. A
            // budget of 32 bytes or more, short of the frame's end,
            // cuts inside one of them.
            let chunks = rng.in_range(1, 4);
            let data: Vec<u8> = (0..chunks * CHUNK as u64)
                .map(|_| rng.next_u64() as u8)
                .collect();
            let budget = rng.in_range(32, data.len() as u64);
            wal.set_crash_after_bytes(budget);
            vfs.write_at(ino, CHUNK as u64 * rng.below(4), &data)
                .unwrap();
            vfs.write_at(ino, 0, b"after the crash").unwrap();
            drop(vfs);
            drop(wal);
            let persisted = only_segment(&dir).len() as u64 - durable;
            let got = recover_fingerprint(&dir);
            std::fs::remove_dir_all(&dir).ok();
            if persisted != budget {
                Err(PropError::fail(format!(
                    "budget {budget} persisted {persisted} bytes"
                )))
            } else if got == before {
                Ok(())
            } else {
                Err(PropError::fail(format!(
                    "budget {budget} inside a borrowed chunk recovered a non-prefix state:\n{got}"
                )))
            }
        },
    );
}

/// The length of an adopted append: whole chunks, a short tail, or
/// both.
fn append_len(rng: &mut TestRng) -> usize {
    let chunk = CHUNK as u64;
    (match rng.below(3) {
        0 => chunk * rng.in_range(1, 4),
        1 => rng.in_range(1, chunk),
        _ => chunk * rng.in_range(1, 4) + rng.in_range(1, chunk),
    }) as usize
}

fn random_bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn adopted_write_frames_match_the_record_encoder() {
    run_cases(
        ProptestConfig::with_cases(24),
        "wal_props::adopted_write_frames",
        |rng| {
            let dir = tmpdir("adopted");
            // As in the borrowed-frame property: nothing is written out
            // before `sync`, so the frames still borrow the windows when
            // the file overwrites or truncates them.
            let (wal, _) = Wal::open(WalConfig {
                dir: dir.clone(),
                sync_ops: 1 << 20,
                sync_ms: 1000,
            })
            .unwrap();
            let wal = Arc::new(wal);
            let mut vfs = Vfs::new();
            vfs.set_chunk_size(CHUNK);
            vfs.set_wal(Some(Arc::clone(&wal)));
            let root = vfs.root();
            let files: Vec<Ino> = (0..2)
                .map(|i| vfs.create(root, &format!("/f{i}"), 0o644, &ROOT).unwrap())
                .collect();
            let mut writes: Vec<(u64, u64, Vec<u8>)> = Vec::new();
            for _ in 0..rng.in_range(4, 16) {
                let ino = files[rng.below(2) as usize];
                let size = vfs.fstat(ino).unwrap().size;
                match rng.below(4) {
                    // Overwrite inside the file, copy-on-write against the
                    // pending frames.
                    0 if size > 0 => {
                        let at = rng.below(size);
                        let len = rng.in_range(1, 2 * CHUNK as u64) as usize;
                        let patch = random_bytes(rng, len);
                        vfs.write_at(ino, at, &patch).unwrap();
                        writes.push((ino.0, at, patch));
                    }
                    // Cut the file, often inside an adopted buffer, so the
                    // windows it keeps are copied out.
                    1 if size > 0 => {
                        vfs.truncate(ino, rng.below(size)).unwrap();
                    }
                    // Adopted append at EOF, or past it.
                    _ => {
                        let at = size + if rng.below(4) == 0 { rng.below(CHUNK as u64) } else { 0 };
                        let len = append_len(rng);
                        let data = random_bytes(rng, len);
                        let buf: Arc<[u8]> = data[..].into();
                        vfs.write_owned(ino, at, &buf).unwrap();
                        writes.push((ino.0, at, data));
                    }
                }
            }
            wal.sync();
            let live = vfs.namespace_fingerprint();
            drop(vfs);
            drop(wal);
            let seg = only_segment(&dir);
            let mut want = seg[..8].to_vec();
            let mut logged = Vec::new();
            let mut pos = 8;
            while pos < seg.len() {
                let len = u32::from_le_bytes(seg[pos..pos + 4].try_into().unwrap()) as usize;
                let payload = &seg[pos + 8..pos + 8 + len];
                let lsn_len = payload.iter().position(|b| b & 0x80 == 0).unwrap() + 1;
                let Some(rec) = WalRecordRef::decode(&payload[lsn_len..]) else {
                    return Err(PropError::fail(format!("undecodable frame at {pos}")));
                };
                if let WalRecordRef::Write { ino, off, data, .. } = rec {
                    logged.push((ino, off, data.to_vec()));
                }
                let mut framed = payload[..lsn_len].to_vec();
                rec.encode(&mut framed);
                want.extend_from_slice(&(framed.len() as u32).to_le_bytes());
                want.extend_from_slice(&crc32(&framed).to_le_bytes());
                want.extend_from_slice(&framed);
                pos += 8 + len;
            }
            let outcome = if logged != writes {
                Err(PropError::fail("logged writes differ from the writes made"))
            } else if seg != want {
                Err(PropError::fail("segment differs from the encoder's frames"))
            } else if recover_fingerprint(&dir) != live {
                Err(PropError::fail("replay differs from the live namespace"))
            } else {
                Ok(())
            };
            std::fs::remove_dir_all(&dir).ok();
            outcome
        },
    );
}

#[test]
fn crash_budget_inside_an_adopted_window_recovers_the_prefix() {
    run_cases(
        ProptestConfig::with_cases(16),
        "wal_props::crash_inside_adopted_window",
        |rng| {
            let dir = tmpdir("adoptedcrash");
            let (wal, mut vfs) = fresh(&dir);
            vfs.set_chunk_size(CHUNK);
            let root = vfs.root();
            let ino = vfs.create(root, "/f", 0o644, &ROOT).unwrap();
            for _ in 0..rng.below(4) {
                let (off, data) = random_write(rng);
                vfs.write_at(ino, off, &data).unwrap();
            }
            // A chunk-aligned EOF, so the append below adopts its whole
            // buffer: a frame header of at most 18 bytes, then windows
            // only (the last one short when the length has a tail).
            let eof = CHUNK as u64 * rng.below(4);
            vfs.truncate(ino, eof).unwrap();
            let before = vfs.namespace_fingerprint();
            let durable = only_segment(&dir).len() as u64;
            let len = append_len(rng).max(64);
            let buf: Arc<[u8]> = random_bytes(rng, len).into();
            let budget = rng.in_range(32, len as u64);
            wal.set_crash_after_bytes(budget);
            vfs.write_owned(ino, eof, &buf).unwrap();
            vfs.write_at(ino, 0, b"after the crash").unwrap();
            drop(vfs);
            drop(wal);
            let persisted = only_segment(&dir).len() as u64 - durable;
            let got = recover_fingerprint(&dir);
            std::fs::remove_dir_all(&dir).ok();
            if persisted != budget {
                Err(PropError::fail(format!(
                    "budget {budget} persisted {persisted} bytes"
                )))
            } else if got == before {
                Ok(())
            } else {
                Err(PropError::fail(format!(
                    "budget {budget} inside an adopted window recovered a non-prefix state:\n{got}"
                )))
            }
        },
    );
}
