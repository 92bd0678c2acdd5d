//! The filesystem proper.
//!
//! The inode space is *sharded*: inodes are distributed over a fixed set
//! of independently locked shards (`shard = ino % N`), so operations on
//! unrelated files never contend. Every operation takes `&self`; the
//! shard locks below, not an exclusive borrow of the whole filesystem,
//! provide mutual exclusion. Mutating operations follow a uniform
//! two-phase pattern:
//!
//! 1. **Phase 1 (no locks held):** resolve paths and run every check in
//!    the same order as the original single-lock implementation, using
//!    transient per-shard read locks. Errors produced here are
//!    authoritative.
//! 2. **Phase 2 (shard write locks, ascending):** lock the affected
//!    shard(s), re-validate exactly the predicates phase 1 established,
//!    and commit the mutation's redo record ([`Vfs::commit`]): log it,
//!    then apply it with the same [`Vfs::apply`] replay runs. If
//!    anything changed in between, drop the locks and retry from
//!    phase 1.
//!
//! Single-threaded, re-validation can never fail, so the observable
//! behaviour (results, errnos, timestamps, inode-number allocation
//! order) is identical to the single-lock implementation — the
//! equivalence property suite in the kernel crate checks this against
//! generated operation sequences.
//!
//! Two invariants make the short re-validation sound:
//!
//! * **Kind stability:** a live inode (reachable from any directory
//!   entry, hence `nlink >= 1`) never changes kind. A phase-1 kind check
//!   survives to phase 2 as long as the *entry identity* (`name -> ino`)
//!   still holds — unless the inode was freed and its number recycled,
//!   which phase 2 re-checks explicitly.
//! * **Deferred frees:** inode storage is freed only when `nlink == 0`
//!   and no pins remain, so an inode referenced by a directory entry (or
//!   an owed link-count decrement) cannot vanish mid-operation.
//!
//! Lock ordering follows the `ShardSet` discipline: one shard → one
//! lock; multiple shards → ascending index via `write_keys`; the
//! inode-number allocator is a leaf mutex that may be taken under shard
//! locks but never the reverse; and `rename` additionally serializes
//! against other renames with an outermost mutex so its ancestry check
//! (`is_same_or_ancestor`) stays stable while it works. The write-ahead
//! log's internal mutex (see [`crate::wal`]) is a further leaf below
//! the shard locks: phase 2 appends its redo record while still holding
//! the shard write locks, which is what makes the single global log
//! order a valid serialization of the sharded execution.

use crate::extent::{FileContent, DEFAULT_CHUNK_SIZE, MAX_CHUNK_SIZE, MIN_CHUNK_SIZE};
use crate::fxhash::IntMap;
use crate::inode::{Inode, Payload};
use crate::path::{self, NAME_MAX, PATH_MAX};
use crate::wal::{self, Wal, WalRecordRef};
use crate::{Access, ExtentList, FileKind, Ino, StatBuf};
use idbox_types::{Errno, SysResult, ACL_FILE_NAME};
use parking_lot::{Mutex, RwLock, ShardGuards, ShardSet};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Credentials used for Unix permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cred {
    /// User id. Uid 0 is the superuser and bypasses permission checks.
    pub uid: u32,
    /// Primary group id.
    pub gid: u32,
}

impl Cred {
    /// The superuser.
    pub const ROOT: Cred = Cred { uid: 0, gid: 0 };

    /// An ordinary credential.
    pub fn new(uid: u32, gid: u32) -> Self {
        Cred { uid, gid }
    }
}

/// One entry returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (`.` and `..` included, as in a real kernel).
    pub name: String,
    /// Inode the entry refers to.
    pub ino: Ino,
    /// Kind of the referenced inode.
    pub kind: FileKind,
}

/// Maximum symlink traversals in one resolution (Linux uses 40).
const SYMLOOP_MAX: u32 = 40;

/// What a path walk learns about an inode it has reached.
enum Hop {
    /// A symlink the walk follows: its target, the walk's only copy.
    Link(String),
    /// A directory, with the caller's search permission on it.
    Dir(SysResult<()>),
    /// Anything else, including a final symlink the walk stops at.
    Leaf,
}

impl Hop {
    /// Walking on through this inode needs a directory the caller may
    /// search.
    fn search(self) -> SysResult<()> {
        match self {
            Hop::Dir(search) => search,
            _ => Err(Errno::ENOTDIR),
        }
    }
}

/// A final entry located by [`Vfs::resolve_entry`]'s inner step, or the
/// symlink that step must follow next.
enum EntryStep<'p> {
    Found(Entry<'p>),
    Link(Ino, String),
}

/// What the final hop of [`Vfs::resolve_entry`] reached.
enum Reached {
    /// A symlink to follow: its target.
    Link(String),
    /// Anything else, named as it is now.
    Object(Handle),
}

/// An object a walk reached, as it was then: its inode number and its
/// ctime. Creating an inode stamps its ctime with a fresh tick of the
/// logical clock, which never repeats, and so does each later change
/// of its mode, owner or hard links. A number freed and recycled for
/// another object therefore never carries the ctime it had, so an
/// operation given a handle tells "the object the walk reached" apart
/// from "whatever holds that number now", and refuses the second with
/// [`Stale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle {
    /// The inode number.
    pub ino: Ino,
    ctime: u64,
}

/// A handle no longer names the object its walk reached (the object
/// was freed and its number recycled, or its mode, owner or hard links
/// changed), or a creation site is no longer empty. The caller resolves
/// and judges the path again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stale;

/// A path's final entry, as [`Vfs::resolve_entry`] found it: everything
/// a caller needs to act on the object without walking the path again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<'p> {
    /// The directory that really holds the final name, after any final
    /// symlinks were followed.
    pub dir: Handle,
    /// The final name within `dir`: borrowed from the path unless a
    /// final symlink was followed.
    pub name: Cow<'p, str>,
    /// The object the name binds, or `None` when it does not exist (a
    /// creation site).
    pub target: Option<Handle>,
    /// What `dir`'s ACL file name bound when the walk searched `dir`,
    /// read under the same guard as its search permission.
    pub acl: Option<Ino>,
}

impl Entry<'_> {
    /// The same entry, owning its name.
    pub fn into_owned(self) -> Entry<'static> {
        Entry {
            name: Cow::Owned(self.name.into_owned()),
            ..self
        }
    }
}

/// Bound on cached dentries across the whole filesystem; each shard's
/// cache gets an equal slice (at least 64 entries). On overflow a
/// shard's cache is dropped and rebuilt — stale-generation leftovers go
/// with it, so no per-shard map grows past its slice.
const DENTRY_CACHE_CAP: usize = 8192;

/// Shard count of [`Vfs::new`]; [`Vfs::with_shards`] picks another.
const DEFAULT_SHARDS: usize = 16;

/// A bounded positive+negative directory-entry cache for one shard.
///
/// One entry memoizes `entries(dir).get(name)`: the inode a name binds
/// to in a directory, or the fact that the name is absent (`None`, a
/// negative entry). Every entry is stamped with the shard's change
/// generation, captured by the caller *while holding the shard's read
/// lock*, and honoured only while that generation is still current.
/// Writers mutate directory entries and bump the generation while
/// holding the shard's write lock, so a captured stamp is consistent
/// with the entries it was read from: any entry inserted with a stamp
/// that a concurrent writer overtook is simply never served. Only the
/// map lookup itself is short-circuited; directory-kind checks,
/// permission checks, and symlink traversal still run on every
/// resolution, which is what keeps the cached walk provably identical
/// to the uncached one (property tested in `tests/props.rs`).
///
/// Unlike the old whole-filesystem cache, content writes (`write_at`,
/// `truncate`) and metadata changes (`chmod`, `chown`) do not
/// invalidate dentries: name → inode bindings are credential- and
/// content-independent, and permission checks always re-run against
/// live inode metadata.
#[derive(Debug)]
struct DentryCache {
    /// Per-shard change generation: bumped (under the shard's write
    /// lock) by every operation that changes directory entries in this
    /// shard or frees one of its inodes.
    generation: AtomicU64,
    /// Entry bound for this shard's map.
    cap: usize,
    map: RwLock<DentryMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct DentryMap {
    /// Outer map by directory inode (vfs-assigned: Fx-hashed); inner
    /// maps by entry name (client-chosen: SipHash, see [`crate::fxhash`]).
    by_dir: IntMap<Ino, HashMap<String, (u64, Option<Ino>)>>,
    len: usize,
}

impl DentryCache {
    fn new(cap: usize) -> Self {
        DentryCache {
            generation: AtomicU64::new(0),
            cap,
            map: RwLock::new(DentryMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Invalidate every cached entry by advancing the generation. Called
    /// while holding the owning shard's write lock, which orders the
    /// bump against concurrent readers' generation captures.
    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Cached lookup; `None` means "not cached", `Some(slot)` is the
    /// memoized answer (which may itself be a negative `None`).
    fn lookup(&self, dir: Ino, name: &str) -> Option<Option<Ino>> {
        let gen = self.generation();
        let hit = self
            .map
            .read()
            .by_dir
            .get(&dir)
            .and_then(|m| m.get(name))
            .and_then(|&(g, slot)| (g == gen).then_some(slot));
        match hit {
            Some(slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a memoized answer stamped with `gen` — the generation the
    /// caller captured under the shard read lock when it read the
    /// directory. Inserting with an overtaken stamp is harmless: the
    /// entry is never served.
    fn insert(&self, dir: Ino, name: &str, slot: Option<Ino>, gen: u64) {
        let mut map = self.map.write();
        if map.len >= self.cap {
            map.by_dir.clear();
            map.len = 0;
        }
        let prev = map
            .by_dir
            .entry(dir)
            .or_default()
            .insert(name.to_string(), (gen, slot));
        if prev.is_none() {
            map.len += 1;
        }
    }

    fn clear(&self) {
        let mut map = self.map.write();
        map.by_dir.clear();
        map.len = 0;
    }

    fn len(&self) -> usize {
        self.map.read().len
    }
}

/// A clone starts cold: the cache is a pure accelerator, so a cloned
/// filesystem gets a fresh one (same generation, no entries).
impl Clone for DentryCache {
    fn clone(&self) -> Self {
        DentryCache {
            generation: AtomicU64::new(self.generation()),
            cap: self.cap,
            map: RwLock::new(DentryMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// An errno-injection hook for fault testing: called once per data
/// operation with the operation name (`"read"` / `"write"`) and the
/// target inode; returning `Some(errno)` fails that operation instead
/// of performing it. Installed via [`Vfs::set_fault_hook`]; production
/// filesystems never carry one. The robustness suite drives it from a
/// seeded `FaultPlan` so "the disk returned EIO" is reproducible.
#[derive(Clone)]
pub struct FaultHook(Arc<dyn Fn(&'static str, Ino) -> Option<Errno> + Send + Sync>);

impl FaultHook {
    /// Wrap an injection function.
    pub fn new(f: impl Fn(&'static str, Ino) -> Option<Errno> + Send + Sync + 'static) -> Self {
        FaultHook(Arc::new(f))
    }

    fn check(&self, op: &'static str, ino: Ino) -> SysResult<()> {
        match (self.0)(op, ino) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

/// One shard's inodes, keyed by raw inode number.
type ShardMap = IntMap<u64, Inode>;

/// Inode-number allocator state, behind a leaf mutex.
#[derive(Debug, Clone)]
struct AllocState {
    /// Next never-used inode number (the root is 1, so files start at 2).
    next: u64,
    /// Freed numbers, reused LIFO — the same allocation order the
    /// single-lock implementation had (`inode_recycling` relies on it).
    free: Vec<u64>,
}

/// Write guards for the shards of up to four inodes, addressed by inode
/// number; `ShardSet::write_keys` takes them in ascending shard order.
type Guards<'a> = ShardGuards<'a, ShardMap>;

fn inode<'g>(g: &'g Guards<'_>, ino: u64) -> Option<&'g Inode> {
    g.get(ino).get(&ino)
}

fn inode_mut<'g>(g: &'g mut Guards<'_>, ino: u64) -> Option<&'g mut Inode> {
    g.get_mut(ino).get_mut(&ino)
}

/// The in-memory filesystem.
///
/// All operations take a *start directory* (the caller's cwd) and a path;
/// absolute paths ignore the start. Permission checks follow Unix rules
/// against the supplied [`Cred`]; uid 0 bypasses them.
///
/// Internally the inode space is sharded (see the module docs): all
/// operations, including mutations, take `&self` and synchronize on
/// per-shard locks, so callers touching disjoint files proceed in
/// parallel.
pub struct Vfs {
    /// Inodes, distributed by `ino % shard_count`.
    shards: ShardSet<ShardMap>,
    /// One dentry cache per shard, parallel to `shards`; the cache at
    /// index `i` holds entries for directories living in shard `i`.
    dcaches: Box<[DentryCache]>,
    /// Inode-number allocator. Leaf lock: may be taken while holding
    /// shard write locks, never the other way around.
    alloc: Mutex<AllocState>,
    /// Logical clock; every mutation advances it by one, and stamps
    /// what it changes (mtime for contents and entries, ctime for a new
    /// inode and for mode, owner and hard-link changes) with the tick
    /// it took.
    clock: AtomicU64,
    root: Ino,
    /// Outermost lock taken only by `rename`, keeping its ancestry walk
    /// stable against concurrent renames. Ordered before all shard
    /// locks.
    rename_lock: Mutex<()>,
    dcache_enabled: bool,
    fault_hook: Option<FaultHook>,
    /// Nominal chunk size for files created after this point (existing
    /// files keep the chunk size they were created with).
    chunk_size: usize,
    /// Durability: when attached, every phase-2 mutation appends its
    /// redo record here before releasing the shard locks. `None` (the
    /// default) is the pure in-memory filesystem.
    wal: Option<Arc<Wal>>,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Vfs({} shards, root {})", self.shards.len(), self.root)
    }
}

/// A clone takes a consistent snapshot: every shard read lock
/// (ascending) plus the allocator, so no mutation interleaves mid-copy.
/// The dentry caches come back cold (same generations, no entries).
impl Clone for Vfs {
    fn clone(&self) -> Self {
        let guards = self.shards.read_all();
        let alloc = self.alloc.lock();
        let mut maps: Vec<ShardMap> = guards.iter().map(|g| (**g).clone()).collect();
        let shards = ShardSet::from_fn_named("vfs", maps.len(), |i| std::mem::take(&mut maps[i]));
        Vfs {
            shards,
            dcaches: self
                .dcaches
                .iter()
                .map(DentryCache::clone)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            alloc: Mutex::new(alloc.clone()),
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            root: self.root,
            rename_lock: Mutex::new(()),
            dcache_enabled: self.dcache_enabled,
            fault_hook: self.fault_hook.clone(),
            chunk_size: self.chunk_size,
            // A clone is a divergent fork (equivalence twins, tests);
            // logging its mutations into the original's WAL would
            // corrupt replay, so forks start without one.
            wal: None,
        }
    }
}

impl Vfs {
    /// A fresh filesystem containing only a root directory owned by root
    /// with mode `0o755`, with 16 shards.
    pub fn new() -> Self {
        Vfs::with_shards(DEFAULT_SHARDS)
    }

    /// A fresh filesystem with an explicit shard count (clamped to
    /// 1..=1024). A count of 1 degenerates to the old single-lock
    /// behaviour and is what the equivalence suite compares against.
    pub fn with_shards(n: usize) -> Self {
        let n = n.clamp(1, 1024);
        let vfs = Vfs {
            shards: ShardSet::from_fn_named("vfs", n, |_| ShardMap::default()),
            dcaches: (0..n)
                .map(|_| DentryCache::new((DENTRY_CACHE_CAP / n).max(64)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            alloc: Mutex::new(AllocState {
                next: 2,
                free: Vec::new(),
            }),
            clock: AtomicU64::new(0),
            root: Ino(1),
            rename_lock: Mutex::new(()),
            dcache_enabled: true,
            fault_hook: None,
            chunk_size: DEFAULT_CHUNK_SIZE,
            wal: None,
        };
        let mut entries = BTreeMap::new();
        entries.insert(".".to_string(), Ino(1));
        entries.insert("..".to_string(), Ino(1));
        let si = vfs.shards.shard_of(1);
        vfs.shards.write(si).insert(
            1,
            Inode {
                payload: Payload::Dir(entries),
                mode: 0o755,
                uid: 0,
                gid: 0,
                nlink: 2,
                pins: 0,
                atime: 0,
                mtime: 0,
                ctime: 0,
            },
        );
        vfs
    }

    /// The root directory.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Number of inode shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Advance and return the logical clock. Every mutating operation
    /// passes through here, and no tick is handed out twice, so a
    /// timestamp names the one mutation that set it: a file's
    /// `(ino, mtime)` names one version of its bytes (a cache outside
    /// the vfs validates against that), and a [`Handle`]'s ctime one
    /// life of an inode number. The per-shard dentry caches are *not*
    /// invalidated here; namespace mutations bump their own shard's
    /// cache under that shard's write lock, and content writes leave
    /// dentries alone (they cannot change a name → inode binding).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Dentry-cache counters: `(hits, misses)` since creation, summed
    /// over every shard.
    pub fn dentry_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for c in &*self.dcaches {
            hits += c.hits.load(Ordering::Relaxed);
            misses += c.misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }

    /// Total number of cached dentries across all shards (for tests and
    /// invariant checks).
    pub fn dcache_len(&self) -> usize {
        self.dcaches.iter().map(DentryCache::len).sum()
    }

    /// Enable or disable the dentry cache (on by default; the ablation
    /// benches turn it off to measure the uncached walk). Disabling
    /// drops all cached entries.
    pub fn set_dentry_cache(&mut self, enabled: bool) {
        self.dcache_enabled = enabled;
        if !enabled {
            for c in &*self.dcaches {
                c.clear();
            }
        }
    }

    /// Install (or clear, with `None`) the errno-injection hook consulted
    /// by data operations ([`Vfs::file_extents`], [`Vfs::write_at`]).
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// Attach a write-ahead log: from this point every mutating
    /// operation appends its redo record before releasing the shard
    /// locks that applied it. Attach the log *before* populating the
    /// filesystem (or right after restoring a recovered one), so the
    /// log plus its snapshot always cover the full namespace.
    pub fn set_wal(&mut self, wal: Option<Arc<Wal>>) {
        self.wal = wal;
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The one way the namespace changes. `rec` describes a mutation
    /// whose preconditions the caller re-validated under `g`, which
    /// holds the shard of every inode the record names. The record is
    /// appended to the log when one is attached, then applied under
    /// those same guards, exactly as replay applies it. The WAL's
    /// internal mutex is a leaf below the shard locks (see the module
    /// docs), so the global append order is a valid serialization of
    /// the sharded execution.
    fn commit(&self, g: &mut Guards<'_>, rec: WalRecordRef<'_>) {
        if let Some(wal) = &self.wal {
            wal.append(rec);
        }
        self.apply(g, rec);
    }

    /// Phase 2 of a namespace mutation: lock the shards of the inodes
    /// the record names, re-check what phase 1 concluded, and when it
    /// still holds, tick the clock and commit the record built from the
    /// tick. `false` sends the caller back to phase 1.
    fn try_commit<'r>(
        &self,
        still_valid: impl FnOnce(&Guards<'_>) -> bool,
        rec: impl Fn(u64) -> WalRecordRef<'r>,
    ) -> bool {
        let (inos, n) = record_inos(rec(0));
        let mut g = self.shards.write_keys(&inos[..n]);
        if !still_valid(&g) {
            return false;
        }
        let now = self.tick();
        self.commit(&mut g, rec(now));
        true
    }

    /// The nominal chunk size new files are created with.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Override the chunk size for files created after this call
    /// (clamped to 512 B ..= 16 MiB). Existing files keep the chunk
    /// size they were created with; tests use small chunks to force
    /// boundary crossings, benches sweep granularities.
    pub fn set_chunk_size(&mut self, bytes: usize) {
        self.chunk_size = bytes.clamp(MIN_CHUNK_SIZE, MAX_CHUNK_SIZE);
    }

    /// Number of live inodes (for tests and invariant checks).
    pub fn live_inodes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shards.read(i).len())
            .sum()
    }

    // ------------------------------------------------------------------
    // Inode plumbing
    // ------------------------------------------------------------------

    /// Run `f` against the inode under its shard's read lock. The caller
    /// must not already hold that shard's lock.
    fn with_inode<R>(&self, ino: Ino, f: impl FnOnce(&Inode) -> R) -> SysResult<R> {
        let g = self.shards.read(self.shards.shard_of(ino.0));
        g.get(&ino.0).map(f).ok_or(Errno::ENOENT)
    }

    /// [`Vfs::with_inode`] for closures that themselves return a result.
    fn try_with_inode<R>(&self, ino: Ino, f: impl FnOnce(&Inode) -> SysResult<R>) -> SysResult<R> {
        self.with_inode(ino, f).and_then(|r| r)
    }

    fn kind(&self, ino: Ino) -> SysResult<FileKind> {
        self.with_inode(ino, |i| i.payload.kind())
    }

    /// Everything one step of a walk needs to know about the inode it
    /// just reached, read under a single shard guard. The symlink target
    /// is cloned only when `follow` says the walk follows it.
    fn hop(&self, ino: Ino, cred: &Cred, follow: bool) -> SysResult<Hop> {
        self.with_inode(ino, |i| match &i.payload {
            Payload::Symlink(t) if follow => Hop::Link(t.clone()),
            Payload::Dir(_) => Hop::Dir(Self::access_ok(i, cred, Access::X)),
            _ => Hop::Leaf,
        })
    }

    /// Uncached directory-entry probe: `entries(dir).get(name)`.
    fn entry_get(&self, dir: Ino, name: &str) -> SysResult<Option<Ino>> {
        self.try_with_inode(dir, |i| match &i.payload {
            Payload::Dir(e) => Ok(e.get(name).copied()),
            _ => Err(Errno::ENOTDIR),
        })
    }

    /// Does the directory hold any entry besides `.` and `..`?
    fn dir_has_real_entries(&self, dir: Ino) -> SysResult<bool> {
        self.try_with_inode(dir, |i| match &i.payload {
            Payload::Dir(e) => Ok(e.keys().any(|k| k != "." && k != "..")),
            _ => Err(Errno::ENOTDIR),
        })
    }

    /// Reserve an inode number. The number is not visible anywhere until
    /// the caller installs an inode under it; on failure the caller must
    /// return it via [`Vfs::unreserve_ino`].
    fn reserve_ino(&self) -> Ino {
        let mut a = self.alloc.lock();
        match a.free.pop() {
            Some(n) => Ino(n),
            None => {
                let n = a.next;
                a.next += 1;
                Ino(n)
            }
        }
    }

    /// Return a reserved-but-unused inode number to the free list.
    fn unreserve_ino(&self, ino: Ino) {
        self.alloc.lock().free.push(ino.0);
    }

    /// Free the inode's storage if it has no links and no pins. Runs
    /// under its shard's write lock; bumps the shard's dentry
    /// generation on an actual free so no stale dentry can survive the
    /// number being recycled.
    fn free_if_unused(&self, g: &mut Guards<'_>, ino: u64) {
        let map = g.get_mut(ino);
        if map.get(&ino).is_some_and(|i| i.nlink == 0 && i.pins == 0) {
            map.remove(&ino);
            self.alloc.lock().free.push(ino);
            self.dcaches[self.shards.shard_of(ino)].bump();
        }
    }

    /// Pin an inode (an open file descriptor references it); pinned
    /// inodes survive `unlink` until unpinned.
    pub fn pin(&self, ino: Ino) -> SysResult<()> {
        let si = self.shards.shard_of(ino.0);
        let mut g = self.shards.write(si);
        g.get_mut(&ino.0).ok_or(Errno::ENOENT)?.pins += 1;
        Ok(())
    }

    /// Drop a pin; frees the inode if it is fully unlinked.
    pub fn unpin(&self, ino: Ino) -> SysResult<()> {
        let mut g = self.shards.write_keys(&[ino.0]);
        let inode = inode_mut(&mut g, ino.0).ok_or(Errno::ENOENT)?;
        inode.pins = inode.pins.saturating_sub(1);
        self.free_if_unused(&mut g, ino.0);
        Ok(())
    }

    /// One directory-entry lookup, through the dentry cache: exactly
    /// `entries(dir).get(name)`, memoized. `None` means the name is
    /// absent (negative entries are cached too). The answer is
    /// credential-independent — callers perform their own kind and
    /// permission checks, cached or not.
    fn lookup_entry(&self, dir: Ino, name: &str) -> SysResult<Option<Ino>> {
        if !self.dcache_enabled {
            return self.entry_get(dir, name);
        }
        let si = self.shards.shard_of(dir.0);
        let dc = &self.dcaches[si];
        if let Some(slot) = dc.lookup(dir, name) {
            return Ok(slot);
        }
        // Miss: read the directory and capture the shard generation
        // under the same read lock, so the stamp is consistent with the
        // answer (writers bump it only under the write lock).
        let (gen, slot) = {
            let g = self.shards.read(si);
            let gen = dc.generation();
            let slot = match &g.get(&dir.0).ok_or(Errno::ENOENT)?.payload {
                Payload::Dir(e) => e.get(name).copied(),
                _ => return Err(Errno::ENOTDIR),
            };
            (gen, slot)
        };
        dc.insert(dir, name, slot, gen);
        Ok(slot)
    }

    // ------------------------------------------------------------------
    // Permission checks
    // ------------------------------------------------------------------

    /// The Unix triad check against an already-fetched inode; used both
    /// by the public [`Vfs::check_access`] and by phase-2 re-validation
    /// that already holds a shard guard.
    fn access_ok(inode: &Inode, cred: &Cred, want: Access) -> SysResult<()> {
        triad_allows(inode.mode, inode.uid, inode.gid, cred, want)
    }

    /// Unix permission check on one inode.
    pub fn check_access(&self, ino: Ino, cred: &Cred, want: Access) -> SysResult<()> {
        self.try_with_inode(ino, |i| Self::access_ok(i, cred, want))
    }

    /// Phase-2 helper: under the shard write lock, is `dir` still a
    /// directory the caller may write+search? Returns its entries.
    fn revalidate_dir<'m>(
        g: &'m Guards<'_>,
        dir: Ino,
        cred: &Cred,
    ) -> Option<&'m BTreeMap<String, Ino>> {
        let inode = inode(g, dir.0)?;
        if Self::access_ok(inode, cred, Access::W.and(Access::X)).is_err() {
            return None;
        }
        match &inode.payload {
            Payload::Dir(entries) => Some(entries),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    fn check_path(path: &str) -> SysResult<()> {
        if path.len() > PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        Ok(())
    }

    /// Resolve a path to an inode, following symlinks (including the final
    /// component when `follow_last`). `start` is the directory for
    /// relative paths. Traversal requires search (`x`) permission on every
    /// directory walked.
    pub fn resolve(&self, start: Ino, p: &str, follow_last: bool, cred: &Cred) -> SysResult<Ino> {
        Self::check_path(p)?;
        let mut budget = SYMLOOP_MAX;
        self.resolve_inner(start, p, follow_last, cred, &mut budget)
    }

    /// The walk behind [`Vfs::resolve`]. Components are borrowed from `p`;
    /// each step takes one shard read guard, on the inode it reaches, and
    /// that guard answers both "is this a symlink to follow?" and "may
    /// the walk go on through it?" (directory kind and search
    /// permission). The second answer is acted on only at the next
    /// component, after that component's length check, so errors surface
    /// in the same order as a walk that re-reads each directory. A
    /// followed symlink's target is resolved recursively from the
    /// directory holding the link, sharing `budget`; the target's last
    /// component is always followed, since the link itself was.
    fn resolve_inner(
        &self,
        start: Ino,
        p: &str,
        follow_last: bool,
        cred: &Cred,
        budget: &mut u32,
    ) -> SysResult<Ino> {
        let mut cur = if path::is_absolute(p) { self.root } else { start };
        let mut comps = path::components(p).peekable();
        if comps.peek().is_none() {
            return Ok(cur);
        }
        let mut here = self.hop(cur, cred, false);
        while let Some(comp) = comps.next() {
            if comp.len() > NAME_MAX {
                return Err(Errno::ENAMETOOLONG);
            }
            here?.search()?;
            let next = self.lookup_entry(cur, comp)?.ok_or(Errno::ENOENT)?;
            let more = comps.peek().is_some();
            here = match self.hop(next, cred, more || follow_last)? {
                Hop::Link(target) => {
                    if *budget == 0 {
                        return Err(Errno::ELOOP);
                    }
                    *budget -= 1;
                    cur = self.resolve_inner(cur, &target, true, cred, budget)?;
                    if !more {
                        break;
                    }
                    self.hop(cur, cred, false)
                }
                hop => {
                    cur = next;
                    Ok(hop)
                }
            };
        }
        Ok(cur)
    }

    /// Split off the final component and resolve the rest (following
    /// symlinks). Returns the parent, not yet checked to be a directory,
    /// and the final name, borrowed from `p`.
    fn parent_of<'p>(&self, start: Ino, p: &'p str, cred: &Cred) -> SysResult<(Ino, &'p str)> {
        Self::check_path(p)?;
        let (parent, name) = path::split_parent(p).ok_or(Errno::EINVAL)?;
        if name.len() > NAME_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        Ok((self.resolve(start, parent, true, cred)?, name))
    }

    /// Resolve everything but the final component (following symlinks),
    /// returning the parent directory and the final name. Fails with
    /// `EINVAL` when the path names the root.
    pub fn resolve_parent<'p>(
        &self,
        start: Ino,
        p: &'p str,
        cred: &Cred,
    ) -> SysResult<(Ino, &'p str)> {
        let (dir, name) = self.parent_of(start, p, cred)?;
        if self.kind(dir)? != FileKind::Dir {
            return Err(Errno::ENOTDIR);
        }
        Ok((dir, name))
    }

    /// Resolve a path to the directory that *really* contains the final
    /// object, following any chain of symlinks on the final component.
    ///
    /// This is the primitive the identity box uses against the "indirect
    /// paths" pitfall: the ACL consulted must be the one in the directory
    /// where the target actually lives, not where the link does. The
    /// [`Entry`] names the containing directory, the final name and the
    /// target (`None` when the entry does not exist: the creation case),
    /// plus the directory's ACL binding; the name is borrowed from `p`
    /// unless a final symlink was followed. The handles let a caller act
    /// on exactly these objects later ([`Vfs::stat_handle`],
    /// [`Vfs::pin_handle`], [`Vfs::readdir_handle`], [`Vfs::create_at`]).
    pub fn resolve_entry<'p>(&self, start: Ino, p: &'p str, cred: &Cred) -> SysResult<Entry<'p>> {
        let (mut dir, mut target) = match self.entry_step(start, p, cred)? {
            EntryStep::Found(entry) => return Ok(entry),
            EntryStep::Link(dir, target) => (dir, target),
        };
        // Each final-component link followed costs one unit of this
        // budget; every parent walk gets a fresh one, as in `resolve`.
        let mut budget = SYMLOOP_MAX;
        loop {
            if budget == 0 {
                return Err(Errno::ELOOP);
            }
            budget -= 1;
            match self.entry_step(dir, &target, cred)? {
                EntryStep::Found(entry) => return Ok(entry.into_owned()),
                EntryStep::Link(d, t) => (dir, target) = (d, t),
            }
        }
    }

    /// One round of [`Vfs::resolve_entry`]: locate `p`'s parent, search
    /// it for the final name, and report either the entry or the
    /// symlink target it names.
    fn entry_step<'p>(&self, start: Ino, p: &'p str, cred: &Cred) -> SysResult<EntryStep<'p>> {
        let (dir, name) = self.parent_of(start, p, cred)?;
        // Looking up the final entry is a search of `dir`: the caller
        // needs execute permission on it, same as mid-path traversal.
        let (dir, acl) = self.search_final_dir(dir, cred)?;
        let found = |target| {
            let name = Cow::Borrowed(name);
            EntryStep::Found(Entry { dir, name, target, acl })
        };
        if name == "." || name == ".." {
            // Resolve fully; the entry certainly exists.
            let ino = self.resolve(start, p, true, cred)?;
            return Ok(found(Some(self.handle(ino)?)));
        }
        let Some(ino) = self.lookup_entry(dir.ino, name)? else {
            return Ok(found(None));
        };
        Ok(match self.reach(ino)? {
            Reached::Link(target) => EntryStep::Link(dir.ino, target),
            Reached::Object(target) => found(Some(target)),
        })
    }

    /// The directory a walk's final name is looked up in, under one
    /// guard: `cred`'s search permission on it, its handle, and what
    /// its ACL file name binds. Errors as a mid-walk hop would.
    fn search_final_dir(&self, dir: Ino, cred: &Cred) -> SysResult<(Handle, Option<Ino>)> {
        self.try_with_inode(dir, |i| match &i.payload {
            Payload::Dir(entries) => {
                Self::access_ok(i, cred, Access::X)?;
                let handle = Handle { ino: dir, ctime: i.ctime };
                Ok((handle, entries.get(ACL_FILE_NAME).copied()))
            }
            _ => Err(Errno::ENOTDIR),
        })
    }

    /// What `dir`'s ACL file name binds, looked up as `cred` (who needs
    /// search permission on `dir`, exactly as for resolving the name).
    pub fn acl_binding(&self, dir: Ino, cred: &Cred) -> SysResult<Option<Ino>> {
        self.search_final_dir(dir, cred).map(|(_, acl)| acl)
    }

    /// The last hop of [`Vfs::resolve_entry`]: a symlink to follow, or
    /// the object reached, under one guard.
    fn reach(&self, ino: Ino) -> SysResult<Reached> {
        self.with_inode(ino, |i| match &i.payload {
            Payload::Symlink(target) => Reached::Link(target.clone()),
            _ => Reached::Object(Handle { ino, ctime: i.ctime }),
        })
    }

    /// A handle on the object `ino` names now.
    fn handle(&self, ino: Ino) -> SysResult<Handle> {
        self.with_inode(ino, |i| Handle { ino, ctime: i.ctime })
    }

    /// Run `f` on the inode `h` names if it is still the object its walk
    /// reached, under its shard's read guard.
    fn with_handle<R>(&self, h: Handle, f: impl FnOnce(&Inode) -> R) -> Result<R, Stale> {
        let g = self.shards.read(self.shards.shard_of(h.ino.0));
        match g.get(&h.ino.0) {
            Some(i) if i.ctime == h.ctime => Ok(f(i)),
            _ => Err(Stale),
        }
    }

    /// `fstat` of the object a walk reached.
    pub fn stat_handle(&self, h: Handle) -> Result<StatBuf, Stale> {
        self.with_handle(h, |i| i.stat(h.ino))
    }

    /// [`Vfs::pin`] the object a walk reached, and `fstat` it under the
    /// same guard. A pinned inode is never freed, so its number cannot
    /// be recycled until the pin is dropped.
    pub fn pin_handle(&self, h: Handle) -> Result<StatBuf, Stale> {
        let mut g = self.shards.write(self.shards.shard_of(h.ino.0));
        match g.get_mut(&h.ino.0) {
            Some(i) if i.ctime == h.ctime => {
                i.pins += 1;
                Ok(i.stat(h.ino))
            }
            _ => Err(Stale),
        }
    }

    /// [`Vfs::readdir`] of the directory a walk reached.
    pub fn readdir_handle(
        &self,
        h: Handle,
        cred: &Cred,
    ) -> Result<SysResult<Vec<DirEntry>>, Stale> {
        let snapshot = self.with_handle(h, |i| {
            Self::access_ok(i, cred, Access::R)?;
            Self::dir_snapshot(i)
        })?;
        Ok(snapshot.map(|s| self.entry_kinds(s)))
    }

    /// [`Vfs::create`] of `name` in the directory a walk reached, when
    /// the walk found the name absent. [`Stale`] when the directory is
    /// no longer that object or the name now exists: the caller judges
    /// the path again rather than open what appeared. The absence is
    /// re-validated under the directory's shard lock, with the rest of
    /// phase 1, before the create commits.
    pub fn create_at(
        &self,
        dir: Handle,
        name: &str,
        mode: u16,
        cred: &Cred,
    ) -> Result<SysResult<Ino>, Stale> {
        loop {
            let writable = self.with_handle(dir, |i| match &i.payload {
                Payload::Dir(e) => Self::access_ok(i, cred, Access::W.and(Access::X))
                    .map(|()| e.contains_key(name)),
                _ => Err(Errno::ENOTDIR),
            })?;
            match writable {
                Ok(false) => {}
                Ok(true) => return Err(Stale),
                Err(e) => return Ok(Err(e)),
            }
            let ino = self.reserve_ino();
            let name_free = |g: &Guards<'_>| {
                let same_dir = inode(g, dir.ino.0).is_some_and(|d| d.ctime == dir.ctime);
                same_dir
                    && Self::revalidate_dir(g, dir.ino, cred)
                        .is_some_and(|e| !e.contains_key(name))
            };
            let rec = |now| WalRecordRef::Create {
                dir: dir.ino.0,
                name,
                ino: ino.0,
                mode: mode & 0o7777,
                uid: cred.uid,
                gid: cred.gid,
                now,
            };
            if self.try_commit(name_free, rec) {
                return Ok(Ok(ino));
            }
            self.unreserve_ino(ino);
        }
    }

    // ------------------------------------------------------------------
    // File operations
    // ------------------------------------------------------------------

    /// Create a regular file. Fails with `EEXIST` when the name is taken.
    pub fn create(&self, start: Ino, p: &str, mode: u16, cred: &Cred) -> SysResult<Ino> {
        self.new_entry(start, p, cred, |dir, name, ino, now| WalRecordRef::Create {
            dir,
            name,
            ino,
            mode: mode & 0o7777,
            uid: cred.uid,
            gid: cred.gid,
            now,
        })
    }

    /// Add a new inode under a name that must not exist yet: the shared
    /// body of `create`, `mkdir` and `symlink`, which differ only in the
    /// record `rec` builds from the parent, name, new inode number and
    /// tick.
    fn new_entry<'p>(
        &self,
        start: Ino,
        p: &'p str,
        cred: &Cred,
        rec: impl Fn(u64, &'p str, u64, u64) -> WalRecordRef<'p>,
    ) -> SysResult<Ino> {
        loop {
            let (dir, name) = self.resolve_parent(start, p, cred)?;
            if name == "." || name == ".." {
                return Err(Errno::EEXIST);
            }
            self.check_access(dir, cred, Access::W.and(Access::X))?;
            if self.entry_get(dir, name)?.is_some() {
                return Err(Errno::EEXIST);
            }
            let ino = self.reserve_ino();
            let name_free = |g: &Guards<'_>| {
                Self::revalidate_dir(g, dir, cred).is_some_and(|e| !e.contains_key(name))
            };
            if self.try_commit(name_free, |now| rec(dir.0, name, ino.0, now)) {
                return Ok(ino);
            }
            self.unreserve_ino(ino);
        }
    }

    /// A file's full contents, copied out (compat path for callers that
    /// need one contiguous buffer; the zero-copy path is
    /// [`Vfs::file_extents`]).
    pub fn file_data(&self, ino: Ino) -> SysResult<Vec<u8>> {
        self.file_data_and_mtime(ino).map(|(data, _)| data)
    }

    /// [`Vfs::file_data`] and the file's mtime, read under one guard:
    /// the mtime names this version of the bytes (no tick of the
    /// logical clock is handed out twice), so
    /// a cache of something derived from them stays valid while the
    /// file's `(ino, mtime)` is unchanged.
    pub fn file_data_and_mtime(&self, ino: Ino) -> SysResult<(Vec<u8>, u64)> {
        self.try_with_inode(ino, |i| match &i.payload {
            Payload::File(data) => Ok((data.to_vec(), i.mtime)),
            Payload::Dir(_) => Err(Errno::EISDIR),
            Payload::Symlink(_) => Err(Errno::EINVAL),
        })
    }

    /// Borrow `[off, off+want)` of a file (clamped to EOF) as cheap
    /// `Arc` clones of its chunks — no byte is copied, under the shard
    /// lock or after it. The returned extents are an immutable snapshot:
    /// concurrent writers copy-on-write shared chunks, so the bytes
    /// behind the `Arc`s never change while the caller streams them.
    ///
    /// Reads are "noatime": they leave the inode untouched and take only
    /// the target's shard read lock, so concurrent readers — and writers
    /// in other shards — proceed in parallel. A `"read"` fault hook is
    /// consulted first.
    pub fn file_extents(&self, ino: Ino, off: u64, want: usize) -> SysResult<ExtentList> {
        if let Some(hook) = &self.fault_hook {
            hook.check("read", ino)?;
        }
        let g = self.shards.read(self.shards.shard_of(ino.0));
        let inode = g.get(&ino.0).ok_or(Errno::ENOENT)?;
        match &inode.payload {
            Payload::File(data) => Ok(data.extents(off as usize, want)),
            Payload::Dir(_) => Err(Errno::EISDIR),
            Payload::Symlink(_) => Err(Errno::EINVAL),
        }
    }

    /// Write `data` at `off`, growing the file (zero-filling any gap).
    /// Returns bytes written.
    pub fn write_at(&self, ino: Ino, off: u64, data: &[u8]) -> SysResult<usize> {
        self.write(ino, off, data, None)
    }

    /// Write all of `data` at `off`, as [`Vfs::write_at`] does, handing
    /// the file the buffer itself: a write at or past EOF adopts it, so
    /// the chunks it appends are windows of `data` and only a partial
    /// tail chunk the write tops up is copied. Overwrites copy into the
    /// file's chunks, copy-on-write, as `write_at` does.
    pub fn write_owned(&self, ino: Ino, off: u64, data: &Arc<[u8]>) -> SysResult<usize> {
        self.write(ino, off, data, Some(data))
    }

    /// The one write path: `data` are the bytes, and `owned` the buffer
    /// holding exactly them when the file may adopt it.
    fn write(
        &self,
        ino: Ino,
        off: u64,
        data: &[u8],
        owned: Option<&Arc<[u8]>>,
    ) -> SysResult<usize> {
        if let Some(hook) = &self.fault_hook {
            hook.check("write", ino)?;
        }
        let now = self.tick();
        let mut g = self.shards.write(self.shards.shard_of(ino.0));
        let inode = g.get_mut(&ino.0).ok_or(Errno::ENOENT)?;
        let file = match &mut inode.payload {
            Payload::File(file) => file,
            Payload::Dir(_) => return Err(Errno::EISDIR),
            Payload::Symlink(_) => return Err(Errno::EINVAL),
        };
        let off = off as usize;
        off.checked_add(data.len()).ok_or(Errno::EFBIG)?;
        match owned {
            Some(buf) => file.write_owned(off, buf),
            None => file.write_at(off, data),
        }
        inode.mtime = now;
        // The record logs the file's own chunks: those the write covers
        // whole are framed by reference, the partial edges are copied.
        if let Some(wal) = &self.wal {
            wal.append_write(
                ino.0,
                off as u64,
                data.len(),
                file.extent_iter(off, data.len()),
                now,
            );
        }
        Ok(data.len())
    }

    /// Bytes of the distinct buffers a file's chunks are windows of:
    /// the memory its contents pin, for retention tests. At most twice
    /// the file's length.
    #[doc(hidden)]
    pub fn pinned_bytes(&self, ino: Ino) -> SysResult<usize> {
        let g = self.shards.read(self.shards.shard_of(ino.0));
        match &g.get(&ino.0).ok_or(Errno::ENOENT)?.payload {
            Payload::File(f) => Ok(f.pinned_bytes()),
            Payload::Dir(_) => Err(Errno::EISDIR),
            Payload::Symlink(_) => Err(Errno::EINVAL),
        }
    }

    /// Truncate (or extend with zeros) a file to `len`.
    pub fn truncate(&self, ino: Ino, len: u64) -> SysResult<()> {
        let now = self.tick();
        let mut g = self.shards.write_keys(&[ino.0]);
        match inode(&g, ino.0).ok_or(Errno::ENOENT)?.payload.kind() {
            FileKind::File => {}
            FileKind::Dir => return Err(Errno::EISDIR),
            FileKind::Symlink => return Err(Errno::EINVAL),
        }
        self.commit(
            &mut g,
            WalRecordRef::Truncate {
                ino: ino.0,
                len,
                now,
            },
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Directory operations
    // ------------------------------------------------------------------

    /// Create a directory.
    pub fn mkdir(&self, start: Ino, p: &str, mode: u16, cred: &Cred) -> SysResult<Ino> {
        self.new_entry(start, p, cred, |dir, name, ino, now| WalRecordRef::Mkdir {
            dir,
            name,
            ino,
            mode: mode & 0o7777,
            uid: cred.uid,
            gid: cred.gid,
            now,
        })
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, start: Ino, p: &str, cred: &Cred) -> SysResult<()> {
        loop {
            let (dir, name) = self.resolve_parent(start, p, cred)?;
            if name == "." || name == ".." {
                return Err(Errno::EINVAL);
            }
            self.check_access(dir, cred, Access::W.and(Access::X))?;
            let target = self.entry_get(dir, name)?.ok_or(Errno::ENOENT)?;
            if self.dir_has_real_entries(target)? {
                return Err(Errno::ENOTEMPTY);
            }
            let still_valid = |g: &Guards<'_>| {
                Self::revalidate_dir(g, dir, cred).is_some_and(|e| e.get(name) == Some(&target))
                    && inode(g, target.0).is_some_and(|t| match &t.payload {
                        Payload::Dir(e) => !e.keys().any(|k| k != "." && k != ".."),
                        _ => false,
                    })
            };
            let rec = |now| WalRecordRef::Rmdir {
                dir: dir.0,
                name,
                target: target.0,
                now,
            };
            if self.try_commit(still_valid, rec) {
                return Ok(());
            }
        }
    }

    /// Remove a non-directory entry. The inode survives while pinned.
    pub fn unlink(&self, start: Ino, p: &str, cred: &Cred) -> SysResult<()> {
        loop {
            let (dir, name) = self.resolve_parent(start, p, cred)?;
            if name == "." || name == ".." {
                return Err(Errno::EINVAL);
            }
            self.check_access(dir, cred, Access::W.and(Access::X))?;
            let target = self.entry_get(dir, name)?.ok_or(Errno::ENOENT)?;
            if self.kind(target)? == FileKind::Dir {
                return Err(Errno::EISDIR);
            }
            let still_valid = |g: &Guards<'_>| {
                Self::revalidate_dir(g, dir, cred).is_some_and(|e| e.get(name) == Some(&target))
                    && inode(g, target.0).is_some_and(|t| t.payload.kind() != FileKind::Dir)
            };
            let rec = |now| WalRecordRef::Unlink {
                dir: dir.0,
                name,
                target: target.0,
                now,
            };
            if self.try_commit(still_valid, rec) {
                return Ok(());
            }
        }
    }

    /// Create a hard link `newp` to the object at `oldp`. Directories
    /// cannot be hard-linked.
    pub fn link(&self, start: Ino, oldp: &str, newp: &str, cred: &Cred) -> SysResult<()> {
        loop {
            let target = self.resolve(start, oldp, false, cred)?;
            if self.kind(target)? == FileKind::Dir {
                return Err(Errno::EPERM);
            }
            let (dir, name) = self.resolve_parent(start, newp, cred)?;
            if name == "." || name == ".." {
                return Err(Errno::EEXIST);
            }
            self.check_access(dir, cred, Access::W.and(Access::X))?;
            if self.entry_get(dir, name)?.is_some() {
                return Err(Errno::EEXIST);
            }
            let still_valid = |g: &Guards<'_>| {
                Self::revalidate_dir(g, dir, cred).is_some_and(|e| !e.contains_key(name))
                    && inode(g, target.0).is_some_and(|t| t.payload.kind() != FileKind::Dir)
            };
            let rec = |now| WalRecordRef::Link {
                dir: dir.0,
                name,
                target: target.0,
                now,
            };
            if self.try_commit(still_valid, rec) {
                return Ok(());
            }
        }
    }

    /// Create a symbolic link at `linkp` pointing to `target` (an
    /// arbitrary, possibly dangling, string).
    pub fn symlink(&self, start: Ino, target: &str, linkp: &str, cred: &Cred) -> SysResult<Ino> {
        if target.len() > PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        self.new_entry(start, linkp, cred, |dir, name, ino, now| {
            WalRecordRef::Symlink {
                dir,
                name,
                ino,
                target,
                uid: cred.uid,
                gid: cred.gid,
                now,
            }
        })
    }

    /// Read a symlink's target.
    pub fn readlink(&self, start: Ino, p: &str, cred: &Cred) -> SysResult<String> {
        let ino = self.resolve(start, p, false, cred)?;
        self.try_with_inode(ino, |i| match &i.payload {
            Payload::Symlink(target) => Ok(target.clone()),
            _ => Err(Errno::EINVAL),
        })
    }

    /// Rename `oldp` to `newp`. Replaces an existing target when the
    /// kinds are compatible (a directory target must be empty). Refuses
    /// to move a directory into its own subtree.
    ///
    /// Cross-shard: locks every involved shard (old parent, new parent,
    /// source, replaced destination) in ascending order, under an
    /// outermost rename mutex that keeps the subtree-ancestry check
    /// stable against concurrent renames (`mkdir`/`rmdir` only add or
    /// remove leaves, so they cannot reparent an existing directory).
    pub fn rename(&self, start: Ino, oldp: &str, newp: &str, cred: &Cred) -> SysResult<()> {
        let _serialized = self.rename_lock.lock();
        loop {
            let (odir, oname) = self.resolve_parent(start, oldp, cred)?;
            let (ndir, nname) = self.resolve_parent(start, newp, cred)?;
            if oname == "." || oname == ".." || nname == "." || nname == ".." {
                return Err(Errno::EINVAL);
            }
            self.check_access(odir, cred, Access::W.and(Access::X))?;
            self.check_access(ndir, cred, Access::W.and(Access::X))?;
            let src = self.entry_get(odir, oname)?.ok_or(Errno::ENOENT)?;
            let src_is_dir = self.kind(src)? == FileKind::Dir;
            if src_is_dir && self.is_same_or_ancestor(src, ndir)? {
                return Err(Errno::EINVAL);
            }
            // Phase-1 look at the destination slot.
            let dst_slot = self.entry_get(ndir, nname)?;
            if dst_slot == Some(src) {
                return Ok(()); // rename to itself is a no-op
            }
            let mut dst_plan: Option<(Ino, bool)> = None;
            if let Some(dst) = dst_slot {
                let dst_is_dir = self.kind(dst)? == FileKind::Dir;
                match (src_is_dir, dst_is_dir) {
                    (true, false) => return Err(Errno::ENOTDIR),
                    (false, true) => return Err(Errno::EISDIR),
                    (true, true) => {
                        if self.dir_has_real_entries(dst)? {
                            return Err(Errno::ENOTEMPTY);
                        }
                    }
                    (false, false) => {}
                }
                dst_plan = Some((dst, dst_is_dir));
            }
            // Phase 2: re-validate everything phase 1 concluded.
            let still_valid = |g: &Guards<'_>| {
                let oe = Self::revalidate_dir(g, odir, cred)?;
                if oe.get(oname) != Some(&src) {
                    return None;
                }
                let ne = Self::revalidate_dir(g, ndir, cred)?;
                if ne.get(nname).copied() != dst_slot {
                    return None;
                }
                if (inode(g, src.0)?.payload.kind() == FileKind::Dir) != src_is_dir {
                    return None;
                }
                if let Some((dst, dst_is_dir)) = dst_plan {
                    let d = inode(g, dst.0)?;
                    if (d.payload.kind() == FileKind::Dir) != dst_is_dir {
                        return None;
                    }
                    if let Payload::Dir(e) = &d.payload {
                        if e.keys().any(|k| k != "." && k != "..") {
                            return None;
                        }
                    }
                }
                Some(())
            };
            let rec = |now| WalRecordRef::Rename {
                odir: odir.0,
                oname,
                ndir: ndir.0,
                nname,
                src: src.0,
                replaced: dst_plan.map_or(0, |(d, _)| d.0),
                replaced_is_dir: dst_plan.is_some_and(|(_, is_dir)| is_dir),
                src_is_dir,
                now,
            };
            if self.try_commit(|g| still_valid(g).is_some(), rec) {
                return Ok(());
            }
        }
    }

    /// True when `anc` is `node` or an ancestor of `node`.
    fn is_same_or_ancestor(&self, anc: Ino, node: Ino) -> SysResult<bool> {
        let mut cur = node;
        loop {
            if cur == anc {
                return Ok(true);
            }
            let parent = self.try_with_inode(cur, |i| match &i.payload {
                Payload::Dir(e) => e.get("..").copied().ok_or(Errno::EIO),
                _ => Err(Errno::ENOTDIR),
            })?;
            if parent == cur {
                return Ok(false); // reached root
            }
            cur = parent;
        }
    }

    /// List a directory (requires read permission on it). The listing is
    /// a snapshot: entries are copied out under the directory's shard
    /// lock, then each entry's kind is fetched from its own shard. An
    /// entry unlinked by a concurrent thread between the two steps is
    /// skipped rather than failing the listing.
    pub fn readdir(&self, start: Ino, p: &str, cred: &Cred) -> SysResult<Vec<DirEntry>> {
        let dir = self.resolve(start, p, true, cred)?;
        self.check_access(dir, cred, Access::R)?;
        let snapshot = self.try_with_inode(dir, Self::dir_snapshot)?;
        Ok(self.entry_kinds(snapshot))
    }

    /// A directory's entries, copied out under its guard.
    fn dir_snapshot(i: &Inode) -> SysResult<Vec<(String, Ino)>> {
        match &i.payload {
            Payload::Dir(e) => Ok(e.iter().map(|(n, &ino)| (n.clone(), ino)).collect()),
            _ => Err(Errno::ENOTDIR),
        }
    }

    /// Each snapshotted entry with its kind, read from its own shard;
    /// an entry freed since the snapshot is skipped.
    fn entry_kinds(&self, snapshot: Vec<(String, Ino)>) -> Vec<DirEntry> {
        let mut out = Vec::with_capacity(snapshot.len());
        for (name, ino) in snapshot {
            if let Ok(kind) = self.kind(ino) {
                out.push(DirEntry { name, ino, kind });
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Metadata operations
    // ------------------------------------------------------------------

    /// `stat` / `lstat` depending on `follow`.
    pub fn stat(&self, start: Ino, p: &str, follow: bool, cred: &Cred) -> SysResult<StatBuf> {
        let ino = self.resolve(start, p, follow, cred)?;
        self.fstat(ino)
    }

    /// `fstat` by inode.
    pub fn fstat(&self, ino: Ino) -> SysResult<StatBuf> {
        self.with_inode(ino, |i| i.stat(ino))
    }

    /// Change permission bits; only the owner or root may.
    pub fn chmod(&self, start: Ino, p: &str, mode: u16, cred: &Cred) -> SysResult<()> {
        let ino = self.resolve(start, p, true, cred)?;
        let now = self.tick();
        let mut g = self.shards.write_keys(&[ino.0]);
        let owner = inode(&g, ino.0).ok_or(Errno::ENOENT)?.uid;
        if cred.uid != 0 && cred.uid != owner {
            return Err(Errno::EPERM);
        }
        let mode = mode & 0o7777;
        self.commit(
            &mut g,
            WalRecordRef::Chmod {
                ino: ino.0,
                mode,
                now,
            },
        );
        Ok(())
    }

    /// Change ownership; only root may change the uid, the owner may
    /// change the gid to their own group.
    pub fn chown(&self, start: Ino, p: &str, uid: u32, gid: u32, cred: &Cred) -> SysResult<()> {
        let ino = self.resolve(start, p, true, cred)?;
        let now = self.tick();
        let mut g = self.shards.write_keys(&[ino.0]);
        let owner = inode(&g, ino.0).ok_or(Errno::ENOENT)?.uid;
        if cred.uid != 0 && !(cred.uid == owner && uid == owner && gid == cred.gid) {
            return Err(Errno::EPERM);
        }
        self.commit(
            &mut g,
            WalRecordRef::Chown {
                ino: ino.0,
                uid,
                gid,
                now,
            },
        );
        Ok(())
    }

    /// `access(2)`: does `cred` hold `want` on the object at `p`?
    pub fn access(&self, start: Ino, p: &str, want: Access, cred: &Cred) -> SysResult<()> {
        let ino = self.resolve(start, p, true, cred)?;
        self.check_access(ino, cred, want)
    }

    // ------------------------------------------------------------------
    // Convenience helpers (used heavily by the kernel and tests)
    // ------------------------------------------------------------------

    /// Create or replace a file at `p` with the given contents.
    pub fn write_file(&self, start: Ino, p: &str, data: &[u8], cred: &Cred) -> SysResult<Ino> {
        // The retry is strictly for create races with other threads. It
        // must be bounded: a dangling symlink at `p` makes `resolve` fail
        // ENOENT while `create` fails EEXIST *deterministically*, and that
        // case must surface EEXIST, not spin.
        let mut retries = 0;
        let ino = loop {
            match self.resolve(start, p, true, cred) {
                Ok(ino) => {
                    self.check_access(ino, cred, Access::W)?;
                    self.truncate(ino, 0)?;
                    break ino;
                }
                Err(Errno::ENOENT) => match self.create(start, p, 0o644, cred) {
                    Ok(ino) => break ino,
                    Err(Errno::EEXIST) if retries < 2 => {
                        retries += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => return Err(e),
            }
        };
        self.write_at(ino, 0, data)?;
        Ok(ino)
    }

    /// Read a whole file.
    pub fn read_file(&self, start: Ino, p: &str, cred: &Cred) -> SysResult<Vec<u8>> {
        let ino = self.resolve(start, p, true, cred)?;
        self.check_access(ino, cred, Access::R)?;
        self.file_data(ino)
    }

    /// `mkdir -p`: create every missing directory along `p`.
    pub fn mkdir_all(&self, start: Ino, p: &str, mode: u16, cred: &Cred) -> SysResult<Ino> {
        let mut cur = if path::is_absolute(p) {
            self.root
        } else {
            start
        };
        for comp in path::components(p) {
            // Bounded for the same reason as `write_file`: the retry only
            // exists to absorb a create race, never to spin.
            let mut retries = 0;
            loop {
                match self.entry_get(cur, comp)? {
                    Some(ino) => {
                        cur = ino;
                        break;
                    }
                    None => match self.mkdir(cur, comp, mode, cred) {
                        Ok(ino) => {
                            cur = ino;
                            break;
                        }
                        Err(Errno::EEXIST) if retries < 2 => {
                            retries += 1;
                            continue;
                        }
                        Err(e) => return Err(e),
                    },
                }
            }
        }
        Ok(cur)
    }

    // ------------------------------------------------------------------
    // Durability plumbing (see crate::wal)
    // ------------------------------------------------------------------

    /// Capture the whole namespace and cut the log at a consistent
    /// point. With every shard read-locked (so no mutation — and hence
    /// no WAL append — can be in flight), the WAL rotates to a fresh
    /// segment whose first LSN becomes the snapshot *watermark*, and
    /// each live inode is copied under those same locks: metadata, dir
    /// entries and symlink targets by value, file contents as `Arc`
    /// chunk clones (no file byte is copied; copy-on-write keeps the
    /// captured chunks immutable while writers continue). The locks are
    /// dropped before a single byte is encoded. Every record below the
    /// watermark is reflected in the returned cut; every record at or
    /// above it is replayed on top at boot. The caller commits the cut
    /// with [`Wal::install_snapshot`]. Errors when no WAL is attached.
    pub fn snapshot_cut(&self) -> std::io::Result<SnapshotCut> {
        let wal = self
            .wal
            .as_ref()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no WAL attached"))?;
        let guards = self.shards.read_all();
        let watermark = wal.rotate().inspect_err(|_| wal.snapshot_failed())?;
        // Unlinked-but-pinned inodes are skipped — open handles do not
        // survive a restart, so the recovered namespace must not
        // contain them.
        let mut inodes: Vec<(u64, Inode)> = guards
            .iter()
            .flat_map(|g| g.iter())
            .filter(|(_, inode)| inode.nlink > 0)
            .map(|(ino, inode)| (*ino, inode.clone()))
            .collect();
        let clock = self.clock.load(Ordering::Relaxed);
        drop(guards);
        // Sorted for a deterministic file.
        inodes.sort_unstable_by_key(|(ino, _)| *ino);
        Ok(SnapshotCut {
            watermark,
            root: self.root.0,
            clock,
            inodes,
        })
    }

    /// Redo one logged mutation during replay: lock the shards the
    /// record names and run the same [`Vfs::apply`] the live operation
    /// ran through [`Vfs::commit`]. Records are *physical*: they carry
    /// the inode number and timestamp the live operation used, so no
    /// permission check, allocation, or clock tick happens here. A
    /// snapshot's records rebuild the namespace the same way: an
    /// `Inode` image (replacing the root the constructor seeded), its
    /// `Entry` records and `Write`s, then the `Trailer`'s clock.
    pub(crate) fn apply_record(&self, rec: WalRecordRef<'_>) {
        if let WalRecordRef::Trailer { clock, .. } = rec {
            self.clock.store(clock, Ordering::Relaxed);
            return;
        }
        let (inos, n) = record_inos(rec);
        self.apply(&mut self.shards.write_keys(&inos[..n]), rec);
        // Advance the logical clock past the record's timestamp so
        // post-recovery mutations stamp strictly later times. (The live
        // clock may have been further ahead — failed operations tick
        // without logging — but per-inode times are restored verbatim,
        // so the lag is invisible in the namespace.)
        if let Some(now) = record_now(rec) {
            self.clock.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// The effect of one record, under `g`, which holds the shard of
    /// every inode [`record_inos`] names; the one place any namespace
    /// mutation is carried out. Also bumps the dentry generation of
    /// every shard whose directory entries change. An inode the record
    /// names that no longer exists is skipped: on replay that is a
    /// write to a file unlinked while pinned, already invisible in the
    /// namespace the log describes. (Live callers re-validated under
    /// `g`, so for them everything exists.)
    fn apply(&self, g: &mut Guards<'_>, rec: WalRecordRef<'_>) {
        match rec {
            WalRecordRef::Create {
                dir,
                name,
                ino,
                mode,
                uid,
                gid,
                now,
            } => {
                let file = Payload::File(FileContent::new(self.chunk_size));
                self.apply_new_inode(g, dir, name, ino, file, mode, uid, gid, now);
            }
            WalRecordRef::Mkdir {
                dir,
                name,
                ino,
                mode,
                uid,
                gid,
                now,
            } => {
                let dots = [(".".to_string(), Ino(ino)), ("..".to_string(), Ino(dir))];
                let payload = Payload::Dir(BTreeMap::from(dots));
                self.apply_new_inode(g, dir, name, ino, payload, mode, uid, gid, now);
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
                let link = Payload::Symlink(target.to_string());
                self.apply_new_inode(g, dir, name, ino, link, 0o777, uid, gid, now);
            }
            WalRecordRef::Link {
                dir,
                name,
                target,
                now,
            } => {
                if inode(g, target).is_some()
                    && self.edit_dir(g, dir, now, |d| {
                        d.entries_mut()?.insert(name.to_string(), Ino(target));
                        Some(())
                    })
                {
                    let t = inode_mut(g, target).expect("checked above");
                    t.nlink += 1;
                    t.ctime = now;
                }
            }
            WalRecordRef::Unlink {
                dir,
                name,
                target,
                now,
            } => {
                self.edit_dir(g, dir, now, |d| d.entries_mut()?.remove(name).map(drop));
                if let Some(t) = inode_mut(g, target) {
                    t.nlink = t.nlink.saturating_sub(1);
                    t.ctime = now;
                }
                self.free_if_unused(g, target);
            }
            WalRecordRef::Rmdir {
                dir,
                name,
                target,
                now,
            } => {
                self.edit_dir(g, dir, now, |d| {
                    d.entries_mut()?.remove(name)?;
                    d.nlink = d.nlink.saturating_sub(1);
                    Some(())
                });
                if let Some(t) = inode_mut(g, target) {
                    t.nlink = 0;
                }
                self.free_if_unused(g, target);
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
                if [odir, ndir, src].iter().any(|&i| inode(g, i).is_none()) {
                    return;
                }
                if replaced != 0 {
                    if let Some(d) = inode_mut(g, replaced) {
                        d.nlink = if replaced_is_dir {
                            0
                        } else {
                            d.nlink.saturating_sub(1)
                        };
                        self.free_if_unused(g, replaced);
                    }
                }
                // A directory moving between parents takes a link from
                // the old parent to the new one and repoints its "..";
                // a replaced directory's ".." link leaves with it.
                let moved_dir = src_is_dir && odir != ndir;
                if moved_dir {
                    let moved = inode_mut(g, src).and_then(Inode::entries_mut);
                    if let Some(entries) = moved {
                        entries.insert("..".to_string(), Ino(ndir));
                    }
                    self.dcaches[self.shards.shard_of(src)].bump();
                }
                self.edit_dir(g, odir, now, |d| {
                    d.entries_mut()?.remove(oname)?;
                    d.nlink = d.nlink.saturating_sub(moved_dir as u32);
                    Some(())
                });
                self.edit_dir(g, ndir, now, |d| {
                    d.entries_mut()?.insert(nname.to_string(), Ino(src));
                    d.nlink = (d.nlink + moved_dir as u32).saturating_sub(replaced_is_dir as u32);
                    Some(())
                });
            }
            WalRecordRef::Write {
                ino,
                off,
                data,
                now,
            } => {
                if let Some(inode) = inode_mut(g, ino) {
                    if let Payload::File(file) = &mut inode.payload {
                        file.write_at(off as usize, data);
                        inode.mtime = now;
                    }
                }
            }
            WalRecordRef::Truncate { ino, len, now } => {
                if let Some(inode) = inode_mut(g, ino) {
                    if let Payload::File(file) = &mut inode.payload {
                        file.resize(len as usize);
                        inode.mtime = now;
                    }
                }
            }
            WalRecordRef::Chmod { ino, mode, now } => {
                if let Some(inode) = inode_mut(g, ino) {
                    inode.mode = mode & 0o7777;
                    inode.ctime = now;
                }
            }
            WalRecordRef::Chown { ino, uid, gid, now } => {
                if let Some(inode) = inode_mut(g, ino) {
                    inode.uid = uid;
                    inode.gid = gid;
                    inode.ctime = now;
                }
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
                let payload = match kind {
                    FileKind::File => Payload::File(FileContent::new(self.chunk_size)),
                    FileKind::Dir => Payload::Dir(BTreeMap::new()),
                    FileKind::Symlink => Payload::Symlink(target.to_string()),
                };
                let inode = Inode {
                    payload,
                    mode,
                    uid,
                    gid,
                    nlink,
                    pins: 0,
                    atime,
                    mtime,
                    ctime,
                };
                g.get_mut(ino).insert(ino, inode);
            }
            WalRecordRef::Entry { dir, name, ino } => {
                if let Some(entries) = inode_mut(g, dir).and_then(Inode::entries_mut) {
                    entries.insert(name.to_string(), Ino(ino));
                }
            }
            // The trailer sets the clock ([`Vfs::apply_record`]).
            WalRecordRef::Trailer { .. } => {}
        }
    }

    /// Change directory `dir`'s entries with `edit`; when it succeeds,
    /// stamp the directory's mtime and bump its shard's dentry
    /// generation. False when `dir` is missing or `edit` found nothing
    /// to change.
    fn edit_dir(
        &self,
        g: &mut Guards<'_>,
        dir: u64,
        now: u64,
        edit: impl FnOnce(&mut Inode) -> Option<()>,
    ) -> bool {
        let Some(d) = inode_mut(g, dir) else {
            return false;
        };
        if edit(d).is_none() {
            return false;
        }
        d.mtime = now;
        self.dcaches[self.shards.shard_of(dir)].bump();
        true
    }

    /// The effect of the three inode-creating records: the new inode
    /// and its entry in `dir`, whose link count a new directory's ".."
    /// raises.
    #[allow(clippy::too_many_arguments)]
    fn apply_new_inode(
        &self,
        g: &mut Guards<'_>,
        dir: u64,
        name: &str,
        ino: u64,
        payload: Payload,
        mode: u16,
        uid: u32,
        gid: u32,
        now: u64,
    ) {
        let is_dir = payload.kind() == FileKind::Dir;
        let added = self.edit_dir(g, dir, now, |d| {
            d.entries_mut()?.insert(name.to_string(), Ino(ino));
            d.nlink += is_dir as u32;
            Some(())
        });
        if added {
            let inode = Inode {
                payload,
                mode: mode & 0o7777,
                uid,
                gid,
                nlink: 1 + is_dir as u32,
                pins: 0,
                atime: now,
                mtime: now,
                ctime: now,
            };
            g.get_mut(ino).insert(ino, inode);
        }
    }

    /// Rebuild the inode-number allocator after replay: the free list
    /// is unknowable from the log (and irrelevant — records carry
    /// explicit numbers), so allocation resumes past the highest live
    /// inode. Also drops any fully unlinked leftovers.
    pub(crate) fn finish_recovery(&self) {
        let mut max = self.root.0;
        for i in 0..self.shards.len() {
            let mut g = self.shards.write(i);
            g.retain(|_, inode| inode.nlink > 0);
            for ino in g.keys() {
                max = max.max(*ino);
            }
        }
        let mut a = self.alloc.lock();
        a.next = max + 1;
        a.free.clear();
    }

    /// A deterministic, human-readable dump of everything the
    /// namespace makes visible: one line per reachable object (walked
    /// depth-first in sorted entry order) with path, inode number,
    /// kind, permissions, ownership, link count, timestamps, and
    /// content (CRC for files, target for symlinks, the `..` entry for
    /// directories). Two filesystems
    /// with equal fingerprints are indistinguishable to every syscall;
    /// the crash-recovery suite compares a recovered namespace against
    /// a prefix twin with this.
    pub fn namespace_fingerprint(&self) -> String {
        let mut out = String::new();
        self.fingerprint_node("/", self.root, &mut out);
        out
    }

    fn fingerprint_node(&self, path: &str, ino: Ino, out: &mut String) {
        let info = self.with_inode(ino, |i| {
            let desc = match &i.payload {
                Payload::File(f) => {
                    let data = f.to_vec();
                    format!("file len={} crc={:08x}", data.len(), wal::crc32(&data))
                }
                Payload::Dir(e) => format!("dir .. {}", e.get("..").map_or(0, |p| p.0)),
                Payload::Symlink(t) => format!("symlink -> {t}"),
            };
            let children: Vec<(String, Ino)> = match &i.payload {
                Payload::Dir(e) => e
                    .iter()
                    .filter(|(n, _)| n.as_str() != "." && n.as_str() != "..")
                    .map(|(n, c)| (n.clone(), *c))
                    .collect(),
                _ => Vec::new(),
            };
            let line = format!(
                "{path}|ino {}|{desc}|mode {:04o}|uid {} gid {}|nlink {}|t {}/{}/{}",
                ino.0, i.mode, i.uid, i.gid, i.nlink, i.atime, i.mtime, i.ctime
            );
            (line, children)
        });
        if let Ok((line, children)) = info {
            out.push_str(&line);
            out.push('\n');
            for (name, child) in children {
                let child_path = if path == "/" {
                    format!("/{name}")
                } else {
                    format!("{path}/{name}")
                };
                self.fingerprint_node(&child_path, child, out);
            }
        }
    }
}

/// The Unix permission rule: uid 0 passes; otherwise the owner, group
/// or other triad of `mode`, whichever applies to `cred`, must hold every
/// bit of `want`.
fn triad_allows(mode: u16, uid: u32, gid: u32, cred: &Cred, want: Access) -> SysResult<()> {
    if cred.uid == 0 {
        return Ok(());
    }
    let triad = if cred.uid == uid {
        (mode >> 6) & 7
    } else if cred.gid == gid {
        (mode >> 3) & 7
    } else {
        mode & 7
    };
    if triad as u8 & want.0 == want.0 {
        Ok(())
    } else {
        Err(Errno::EACCES)
    }
}

impl StatBuf {
    /// The check [`Vfs::check_access`] makes, against this snapshot of
    /// an inode's metadata.
    pub fn check_access(&self, cred: &Cred, want: Access) -> SysResult<()> {
        triad_allows(self.mode, self.uid, self.gid, cred, want)
    }
}

/// The logical timestamp a record carries (`None` for a snapshot's
/// images, whose trailer sets the clock).
fn record_now(rec: WalRecordRef<'_>) -> Option<u64> {
    match rec {
        WalRecordRef::Create { now, .. }
        | WalRecordRef::Mkdir { now, .. }
        | WalRecordRef::Symlink { now, .. }
        | WalRecordRef::Link { now, .. }
        | WalRecordRef::Unlink { now, .. }
        | WalRecordRef::Rmdir { now, .. }
        | WalRecordRef::Rename { now, .. }
        | WalRecordRef::Write { now, .. }
        | WalRecordRef::Truncate { now, .. }
        | WalRecordRef::Chmod { now, .. }
        | WalRecordRef::Chown { now, .. } => Some(now),
        WalRecordRef::Inode { .. } | WalRecordRef::Entry { .. } | WalRecordRef::Trailer { .. } => {
            None
        }
    }
}

/// The inodes a record names, whose shards [`Vfs::apply`] must hold:
/// the first `n` of the array.
fn record_inos(rec: WalRecordRef<'_>) -> ([u64; 4], usize) {
    match rec {
        WalRecordRef::Create { dir, ino, .. }
        | WalRecordRef::Mkdir { dir, ino, .. }
        | WalRecordRef::Symlink { dir, ino, .. }
        | WalRecordRef::Link {
            dir, target: ino, ..
        }
        | WalRecordRef::Unlink {
            dir, target: ino, ..
        }
        | WalRecordRef::Rmdir {
            dir, target: ino, ..
        } => ([dir, ino, 0, 0], 2),
        WalRecordRef::Rename {
            odir,
            ndir,
            src,
            replaced,
            ..
        } => ([odir, ndir, src, replaced], 3 + (replaced != 0) as usize),
        WalRecordRef::Write { ino, .. }
        | WalRecordRef::Truncate { ino, .. }
        | WalRecordRef::Chmod { ino, .. }
        | WalRecordRef::Chown { ino, .. }
        | WalRecordRef::Inode { ino, .. }
        | WalRecordRef::Entry { dir: ino, .. } => ([ino, 0, 0, 0], 1),
        WalRecordRef::Trailer { .. } => ([0; 4], 0),
    }
}

/// A namespace captured at a log cut by [`Vfs::snapshot_cut`], ready to
/// be streamed into a snapshot file by [`Wal::install_snapshot`].
///
/// Holds every live inode by value except file bytes, which stay
/// shared `Arc` chunks — so a cut costs metadata, not data, and holding
/// one never doubles the namespace.
#[derive(Debug)]
pub struct SnapshotCut {
    watermark: u64,
    pub(crate) root: u64,
    pub(crate) clock: u64,
    /// Live inodes, ascending by number.
    pub(crate) inodes: Vec<(u64, Inode)>,
}

impl SnapshotCut {
    /// The first LSN *not* covered by this cut: boot replays records
    /// from here on top of the snapshot.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn fs() -> Vfs {
        Vfs::new()
    }

    const ROOT: Cred = Cred::ROOT;

    #[test]
    fn create_and_read_back() {
        let v = fs();
        let ino = v.create(v.root(), "/hello", 0o644, &ROOT).unwrap();
        v.write_at(ino, 0, b"world").unwrap();
        let buf = v.file_extents(ino, 0, 16).unwrap().to_vec();
        assert_eq!(&buf[..], b"world");
    }

    #[test]
    fn read_at_offset_and_eof() {
        let v = fs();
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        v.write_at(ino, 0, b"abcdef").unwrap();
        let buf = v.file_extents(ino, 2, 3).unwrap().to_vec();
        assert_eq!(buf.len(), 3);
        assert_eq!(&buf[..], b"cde");
        assert_eq!(v.file_extents(ino, 100, 3).unwrap().to_vec().len(), 0);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let v = fs();
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        v.write_at(ino, 4, b"x").unwrap();
        assert_eq!(v.file_data(ino).unwrap(), &[0, 0, 0, 0, b'x']);
    }

    #[test]
    fn mkdir_and_nested_create() {
        let v = fs();
        v.mkdir(v.root(), "/home", 0o755, &ROOT).unwrap();
        v.mkdir(v.root(), "/home/fred", 0o700, &ROOT).unwrap();
        v.create(v.root(), "/home/fred/data", 0o644, &ROOT).unwrap();
        let st = v.stat(v.root(), "/home/fred/data", true, &ROOT).unwrap();
        assert!(st.is_file());
    }

    #[test]
    fn mkdir_all_idempotent() {
        let v = fs();
        let a = v.mkdir_all(v.root(), "/a/b/c", 0o755, &ROOT).unwrap();
        let b = v.mkdir_all(v.root(), "/a/b/c", 0o755, &ROOT).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn enoent_and_eexist() {
        let v = fs();
        assert_eq!(
            v.stat(v.root(), "/missing", true, &ROOT),
            Err(Errno::ENOENT)
        );
        v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        assert_eq!(v.create(v.root(), "/f", 0o644, &ROOT), Err(Errno::EEXIST));
        assert_eq!(v.mkdir(v.root(), "/f", 0o755, &ROOT), Err(Errno::EEXIST));
    }

    #[test]
    fn relative_paths_resolve_from_start() {
        let v = fs();
        let home = v.mkdir(v.root(), "/home", 0o755, &ROOT).unwrap();
        v.create(home, "notes.txt", 0o644, &ROOT).unwrap();
        assert!(v.stat(home, "notes.txt", true, &ROOT).unwrap().is_file());
        assert!(v
            .stat(home, "../home/notes.txt", true, &ROOT)
            .unwrap()
            .is_file());
        assert!(v.stat(home, "./notes.txt", true, &ROOT).unwrap().is_file());
    }

    #[test]
    fn dotdot_at_root_stays_at_root() {
        let v = fs();
        let r = v.resolve(v.root(), "/../../..", true, &ROOT).unwrap();
        assert_eq!(r, v.root());
    }

    #[test]
    fn unix_permissions_enforced() {
        let v = fs();
        let alice = Cred::new(100, 100);
        let bob = Cred::new(200, 200);
        v.mkdir(v.root(), "/home", 0o755, &ROOT).unwrap();
        v.mkdir(v.root(), "/home/alice", 0o700, &ROOT).unwrap();
        v.chown(v.root(), "/home/alice", 100, 100, &ROOT).unwrap();
        let f = v
            .create(v.root(), "/home/alice/secret", 0o600, &alice)
            .unwrap();
        v.write_at(f, 0, b"shh").unwrap();
        // Bob cannot traverse alice's 0700 home.
        assert_eq!(
            v.stat(v.root(), "/home/alice/secret", true, &bob),
            Err(Errno::EACCES)
        );
        // Alice can.
        assert!(v.stat(v.root(), "/home/alice/secret", true, &alice).is_ok());
        // Root always can.
        assert!(v.stat(v.root(), "/home/alice/secret", true, &ROOT).is_ok());
    }

    #[test]
    fn group_and_other_triads() {
        let v = fs();
        v.create(v.root(), "/f", 0o640, &ROOT).unwrap();
        v.chown(v.root(), "/f", 100, 50, &ROOT).unwrap();
        let groupmate = Cred::new(200, 50);
        let stranger = Cred::new(300, 300);
        let f = v.resolve(v.root(), "/f", true, &ROOT).unwrap();
        assert!(v.check_access(f, &groupmate, Access::R).is_ok());
        assert_eq!(v.check_access(f, &groupmate, Access::W), Err(Errno::EACCES));
        assert_eq!(v.check_access(f, &stranger, Access::R), Err(Errno::EACCES));
    }

    #[test]
    fn symlink_follow_and_nofollow() {
        let v = fs();
        v.create(v.root(), "/target", 0o644, &ROOT).unwrap();
        v.symlink(v.root(), "/target", "/link", &ROOT).unwrap();
        let followed = v.stat(v.root(), "/link", true, &ROOT).unwrap();
        assert!(followed.is_file());
        let nofollow = v.stat(v.root(), "/link", false, &ROOT).unwrap();
        assert!(nofollow.is_symlink());
        assert_eq!(v.readlink(v.root(), "/link", &ROOT).unwrap(), "/target");
    }

    #[test]
    fn symlink_chain_and_relative_targets() {
        let v = fs();
        v.mkdir(v.root(), "/a", 0o755, &ROOT).unwrap();
        v.create(v.root(), "/a/real", 0o644, &ROOT).unwrap();
        v.symlink(v.root(), "real", "/a/l1", &ROOT).unwrap();
        v.symlink(v.root(), "/a/l1", "/l2", &ROOT).unwrap();
        let st = v.stat(v.root(), "/l2", true, &ROOT).unwrap();
        assert!(st.is_file());
    }

    #[test]
    fn symlink_loop_detected() {
        let v = fs();
        v.symlink(v.root(), "/b", "/a", &ROOT).unwrap();
        v.symlink(v.root(), "/a", "/b", &ROOT).unwrap();
        assert_eq!(v.stat(v.root(), "/a", true, &ROOT), Err(Errno::ELOOP));
    }

    #[test]
    fn symlink_in_middle_of_path() {
        let v = fs();
        v.mkdir_all(v.root(), "/real/dir", 0o755, &ROOT).unwrap();
        v.create(v.root(), "/real/dir/f", 0o644, &ROOT).unwrap();
        v.symlink(v.root(), "/real", "/alias", &ROOT).unwrap();
        assert!(v
            .stat(v.root(), "/alias/dir/f", true, &ROOT)
            .unwrap()
            .is_file());
    }

    #[test]
    fn dangling_symlink() {
        let v = fs();
        v.symlink(v.root(), "/nowhere", "/dangle", &ROOT).unwrap();
        assert_eq!(v.stat(v.root(), "/dangle", true, &ROOT), Err(Errno::ENOENT));
        assert!(v
            .stat(v.root(), "/dangle", false, &ROOT)
            .unwrap()
            .is_symlink());
    }

    #[test]
    fn hard_link_shares_inode() {
        let v = fs();
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        v.write_at(ino, 0, b"data").unwrap();
        v.link(v.root(), "/f", "/g", &ROOT).unwrap();
        let sf = v.stat(v.root(), "/f", true, &ROOT).unwrap();
        let sg = v.stat(v.root(), "/g", true, &ROOT).unwrap();
        assert_eq!(sf.ino, sg.ino);
        assert_eq!(sf.nlink, 2);
        v.unlink(v.root(), "/f", &ROOT).unwrap();
        let sg = v.stat(v.root(), "/g", true, &ROOT).unwrap();
        assert_eq!(sg.nlink, 1);
        assert_eq!(v.read_file(v.root(), "/g", &ROOT).unwrap(), b"data");
    }

    #[test]
    fn hard_link_to_dir_refused() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        assert_eq!(v.link(v.root(), "/d", "/d2", &ROOT), Err(Errno::EPERM));
    }

    #[test]
    fn unlink_while_pinned_keeps_data() {
        let v = fs();
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        v.write_at(ino, 0, b"still here").unwrap();
        v.pin(ino).unwrap();
        v.unlink(v.root(), "/f", &ROOT).unwrap();
        // Name is gone but data is readable through the pin.
        assert_eq!(v.stat(v.root(), "/f", true, &ROOT), Err(Errno::ENOENT));
        assert_eq!(v.file_data(ino).unwrap(), b"still here");
        v.unpin(ino).unwrap();
        assert_eq!(v.file_data(ino), Err(Errno::ENOENT));
    }

    #[test]
    fn rmdir_semantics() {
        let v = fs();
        v.mkdir_all(v.root(), "/d/sub", 0o755, &ROOT).unwrap();
        assert_eq!(v.rmdir(v.root(), "/d", &ROOT), Err(Errno::ENOTEMPTY));
        v.rmdir(v.root(), "/d/sub", &ROOT).unwrap();
        v.rmdir(v.root(), "/d", &ROOT).unwrap();
        assert_eq!(v.stat(v.root(), "/d", true, &ROOT), Err(Errno::ENOENT));
    }

    #[test]
    fn unlink_dir_is_eisdir() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        assert_eq!(v.unlink(v.root(), "/d", &ROOT), Err(Errno::EISDIR));
    }

    #[test]
    fn rename_file() {
        let v = fs();
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        v.write_at(ino, 0, b"x").unwrap();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        v.rename(v.root(), "/f", "/d/g", &ROOT).unwrap();
        assert_eq!(v.stat(v.root(), "/f", true, &ROOT), Err(Errno::ENOENT));
        assert_eq!(v.read_file(v.root(), "/d/g", &ROOT).unwrap(), b"x");
    }

    #[test]
    fn rename_replaces_file() {
        let v = fs();
        v.write_file(v.root(), "/a", b"aaa", &ROOT).unwrap();
        v.write_file(v.root(), "/b", b"bbb", &ROOT).unwrap();
        v.rename(v.root(), "/a", "/b", &ROOT).unwrap();
        assert_eq!(v.read_file(v.root(), "/b", &ROOT).unwrap(), b"aaa");
    }

    #[test]
    fn rename_dir_updates_dotdot() {
        let v = fs();
        v.mkdir_all(v.root(), "/x/inner", 0o755, &ROOT).unwrap();
        v.mkdir(v.root(), "/y", 0o755, &ROOT).unwrap();
        v.rename(v.root(), "/x/inner", "/y/inner", &ROOT).unwrap();
        let y = v.resolve(v.root(), "/y", true, &ROOT).unwrap();
        let via_dotdot = v.resolve(v.root(), "/y/inner/..", true, &ROOT).unwrap();
        assert_eq!(via_dotdot, y);
    }

    #[test]
    fn rename_into_own_subtree_refused() {
        let v = fs();
        v.mkdir_all(v.root(), "/d/sub", 0o755, &ROOT).unwrap();
        assert_eq!(
            v.rename(v.root(), "/d", "/d/sub/d2", &ROOT),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn readdir_lists_dot_entries() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        v.create(v.root(), "/d/f", 0o644, &ROOT).unwrap();
        let names: Vec<_> = v
            .readdir(v.root(), "/d", &ROOT)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, [".", "..", "f"]);
    }

    #[test]
    fn chmod_chown_rules() {
        let v = fs();
        let alice = Cred::new(100, 100);
        let bob = Cred::new(200, 200);
        v.mkdir(v.root(), "/pub", 0o777, &ROOT).unwrap();
        v.create(v.root(), "/pub/f", 0o644, &alice).unwrap();
        // Non-owner cannot chmod.
        assert_eq!(v.chmod(v.root(), "/pub/f", 0o600, &bob), Err(Errno::EPERM));
        v.chmod(v.root(), "/pub/f", 0o600, &alice).unwrap();
        assert_eq!(v.stat(v.root(), "/pub/f", true, &ROOT).unwrap().mode, 0o600);
        // Non-root cannot chown to another uid.
        assert_eq!(
            v.chown(v.root(), "/pub/f", 200, 200, &alice),
            Err(Errno::EPERM)
        );
        v.chown(v.root(), "/pub/f", 200, 200, &ROOT).unwrap();
    }

    #[test]
    fn nlink_accounting_for_dirs() {
        let v = fs();
        let d = v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        assert_eq!(v.fstat(d).unwrap().nlink, 2);
        v.mkdir(v.root(), "/d/s1", 0o755, &ROOT).unwrap();
        v.mkdir(v.root(), "/d/s2", 0o755, &ROOT).unwrap();
        assert_eq!(v.fstat(d).unwrap().nlink, 4);
        v.rmdir(v.root(), "/d/s1", &ROOT).unwrap();
        assert_eq!(v.fstat(d).unwrap().nlink, 3);
    }

    #[test]
    fn inode_recycling() {
        let v = fs();
        let before = v.live_inodes();
        let ino = v.create(v.root(), "/tmp1", 0o644, &ROOT).unwrap();
        v.unlink(v.root(), "/tmp1", &ROOT).unwrap();
        assert_eq!(v.live_inodes(), before);
        let ino2 = v.create(v.root(), "/tmp2", 0o644, &ROOT).unwrap();
        assert_eq!(ino, ino2, "freed inode number should be recycled");
    }

    #[test]
    fn resolve_entry_follows_final_symlink_to_real_dir() {
        let v = fs();
        v.mkdir_all(v.root(), "/private", 0o755, &ROOT).unwrap();
        v.create(v.root(), "/private/real", 0o644, &ROOT).unwrap();
        v.mkdir(v.root(), "/public", 0o755, &ROOT).unwrap();
        v.symlink(v.root(), "/private/real", "/public/alias", &ROOT)
            .unwrap();
        let e = v.resolve_entry(v.root(), "/public/alias", &ROOT).unwrap();
        let private = v.resolve(v.root(), "/private", true, &ROOT).unwrap();
        assert_eq!(e.dir.ino, private, "must land in the target's directory");
        assert_eq!(e.name, "real");
        assert!(e.target.is_some());
    }

    #[test]
    fn resolve_entry_missing_final() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        let e = v.resolve_entry(v.root(), "/d/newfile", &ROOT).unwrap();
        assert_eq!(e.dir.ino, v.resolve(v.root(), "/d", true, &ROOT).unwrap());
        assert_eq!(e.name, "newfile");
        assert!(e.target.is_none());
    }

    #[test]
    fn resolve_entry_dangling_symlink_points_at_creation_site() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        v.symlink(v.root(), "/d/missing", "/lnk", &ROOT).unwrap();
        let e = v.resolve_entry(v.root(), "/lnk", &ROOT).unwrap();
        assert_eq!(e.dir.ino, v.resolve(v.root(), "/d", true, &ROOT).unwrap());
        assert_eq!(e.name, "missing");
        assert!(e.target.is_none());
    }

    #[test]
    fn path_too_long() {
        let v = fs();
        let long = format!("/{}", "a".repeat(5000));
        assert_eq!(
            v.resolve(v.root(), &long, true, &ROOT),
            Err(Errno::ENAMETOOLONG)
        );
    }

    #[test]
    fn name_too_long() {
        let v = fs();
        let name = format!("/{}", "a".repeat(300));
        assert_eq!(
            v.create(v.root(), &name, 0o644, &ROOT),
            Err(Errno::ENAMETOOLONG)
        );
    }

    #[test]
    fn write_file_overwrites() {
        let v = fs();
        v.write_file(v.root(), "/f", b"first", &ROOT).unwrap();
        v.write_file(v.root(), "/f", b"2nd", &ROOT).unwrap();
        assert_eq!(v.read_file(v.root(), "/f", &ROOT).unwrap(), b"2nd");
    }

    #[test]
    fn times_advance() {
        let v = fs();
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        let t0 = v.fstat(ino).unwrap().mtime;
        v.write_at(ino, 0, b"x").unwrap();
        let t1 = v.fstat(ino).unwrap().mtime;
        assert!(t1 > t0);
    }

    #[test]
    fn dentry_cache_hits_on_repeat_resolution() {
        let v = fs();
        v.mkdir_all(v.root(), "/a/b", 0o755, &ROOT).unwrap();
        v.create(v.root(), "/a/b/f", 0o644, &ROOT).unwrap();
        let (h0, _) = v.dentry_stats();
        v.resolve(v.root(), "/a/b/f", true, &ROOT).unwrap();
        v.resolve(v.root(), "/a/b/f", true, &ROOT).unwrap();
        let (h1, _) = v.dentry_stats();
        assert!(h1 > h0, "second walk must hit the cache ({h0} -> {h1})");
    }

    /// Every mutation stamps what it changed with a tick no earlier
    /// stamp carries: contents and entries in mtime; creation, mode,
    /// owner and hard links in ctime. A file's `(ino, mtime)` therefore names one
    /// version of its bytes, and a handle's ctime one life of a number.
    #[test]
    fn every_mutation_stamps_a_fresh_tick() {
        let v = fs();
        let mut last = 0;
        let mut expect_fresh = |v: &Vfs, p: &str, ctime: bool, what: &str| {
            let st = v.stat(v.root(), p, false, &ROOT).unwrap();
            let stamp = if ctime { st.ctime } else { st.mtime };
            assert!(stamp > last, "{what} must stamp {p} with a fresh tick");
            last = stamp;
        };
        let f = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        expect_fresh(&v, "/f", true, "create");
        v.write_at(f, 0, b"x").unwrap();
        expect_fresh(&v, "/f", false, "write_at");
        v.write_owned(f, 0, &Arc::from(&b"y"[..])).unwrap();
        expect_fresh(&v, "/f", false, "write_owned");
        v.truncate(f, 0).unwrap();
        expect_fresh(&v, "/f", false, "truncate");
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        expect_fresh(&v, "/", false, "mkdir");
        v.link(v.root(), "/f", "/g", &ROOT).unwrap();
        expect_fresh(&v, "/f", true, "link");
        v.symlink(v.root(), "/f", "/l", &ROOT).unwrap();
        expect_fresh(&v, "/l", true, "symlink");
        v.rename(v.root(), "/g", "/h", &ROOT).unwrap();
        expect_fresh(&v, "/", false, "rename");
        v.chmod(v.root(), "/f", 0o600, &ROOT).unwrap();
        expect_fresh(&v, "/f", true, "chmod");
        v.chown(v.root(), "/f", 1, 1, &ROOT).unwrap();
        expect_fresh(&v, "/f", true, "chown");
        v.unlink(v.root(), "/h", &ROOT).unwrap();
        expect_fresh(&v, "/f", true, "unlink");
        v.rmdir(v.root(), "/d", &ROOT).unwrap();
        expect_fresh(&v, "/", false, "rmdir");
    }

    #[test]
    fn resolve_entry_reports_the_directorys_acl_binding() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        let e = v.resolve_entry(v.root(), "/d/x", &ROOT).unwrap();
        assert_eq!(e.acl, None);
        let acl = v.write_file(v.root(), "/d/.__acl", b"fred rl\n", &ROOT).unwrap();
        let e = v.resolve_entry(v.root(), "/d/x", &ROOT).unwrap();
        assert_eq!(e.acl, Some(acl));
        assert_eq!(v.acl_binding(e.dir.ino, &ROOT), Ok(Some(acl)));
        // Searching the directory takes the same permission as walking it.
        v.chmod(v.root(), "/d", 0o700, &ROOT).unwrap();
        assert_eq!(v.acl_binding(e.dir.ino, &Cred::new(5, 5)), Err(Errno::EACCES));
        let (bytes, mtime) = v.file_data_and_mtime(acl).unwrap();
        assert_eq!(bytes, b"fred rl\n");
        assert_eq!(mtime, v.fstat(acl).unwrap().mtime);
    }

    #[test]
    fn a_handle_goes_stale_when_its_number_is_recycled() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        v.write_file(v.root(), "/d/a", b"judged", &ROOT).unwrap();
        let e = v.resolve_entry(v.root(), "/d/a", &ROOT).unwrap();
        let a = e.target.unwrap();
        assert_eq!(v.stat_handle(a).unwrap().size, 6);
        v.unlink(v.root(), "/d/a", &ROOT).unwrap();
        assert_eq!(v.stat_handle(a), Err(Stale));
        let b = v.write_file(v.root(), "/d/b", b"other", &ROOT).unwrap();
        assert_eq!(a.ino, b, "the number must be recycled for this test to bite");
        assert_eq!(v.stat_handle(a), Err(Stale));
        assert_eq!(v.pin_handle(a), Err(Stale));
        // A pinned handle keeps its number alive across an unlink.
        let e = v.resolve_entry(v.root(), "/d/b", &ROOT).unwrap();
        v.pin_handle(e.target.unwrap()).unwrap();
        v.unlink(v.root(), "/d/b", &ROOT).unwrap();
        assert_eq!(v.file_data(b).unwrap(), b"other");
        v.unpin(b).unwrap();
    }

    #[test]
    fn create_at_is_stale_when_the_name_appeared() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        let e = v.resolve_entry(v.root(), "/d/new", &ROOT).unwrap();
        assert_eq!(e.target, None);
        v.write_file(v.root(), "/d/new", b"raced", &ROOT).unwrap();
        assert_eq!(v.create_at(e.dir, &e.name, 0o644, &ROOT), Err(Stale));
        v.unlink(v.root(), "/d/new", &ROOT).unwrap();
        let ino = v.create_at(e.dir, &e.name, 0o644, &ROOT).unwrap().unwrap();
        assert_eq!(v.resolve(v.root(), "/d/new", true, &ROOT), Ok(ino));
        let nobody = Cred::new(65534, 65534);
        let e = v.resolve_entry(v.root(), "/d/other", &nobody).unwrap();
        assert_eq!(v.create_at(e.dir, &e.name, 0o644, &nobody), Ok(Err(Errno::EACCES)));
        // A recycled directory number is not the directory judged.
        v.unlink(v.root(), "/d/new", &ROOT).unwrap();
        v.rmdir(v.root(), "/d", &ROOT).unwrap();
        let d2 = v.mkdir(v.root(), "/e", 0o777, &ROOT).unwrap();
        assert_eq!(d2, e.dir.ino, "the number must be recycled for this test to bite");
        assert_eq!(v.create_at(e.dir, &e.name, 0o644, &ROOT), Err(Stale));
    }

    #[test]
    fn cached_resolution_sees_rename_immediately() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        v.write_file(v.root(), "/d/a", b"1", &ROOT).unwrap();
        // Warm the cache on both the hit and the miss.
        assert!(v.resolve(v.root(), "/d/a", true, &ROOT).is_ok());
        assert_eq!(v.resolve(v.root(), "/d/b", true, &ROOT), Err(Errno::ENOENT));
        v.rename(v.root(), "/d/a", "/d/b", &ROOT).unwrap();
        assert_eq!(v.resolve(v.root(), "/d/a", true, &ROOT), Err(Errno::ENOENT));
        assert_eq!(v.read_file(v.root(), "/d/b", &ROOT).unwrap(), b"1");
    }

    #[test]
    fn negative_entry_invalidated_by_create() {
        let v = fs();
        assert_eq!(v.resolve(v.root(), "/new", true, &ROOT), Err(Errno::ENOENT));
        v.write_file(v.root(), "/new", b"now", &ROOT).unwrap();
        assert_eq!(v.read_file(v.root(), "/new", &ROOT).unwrap(), b"now");
    }

    #[test]
    fn stale_entry_never_served_across_inode_recycle() {
        let v = fs();
        v.mkdir(v.root(), "/d", 0o755, &ROOT).unwrap();
        let a = v.create(v.root(), "/d/a", 0o644, &ROOT).unwrap();
        // Cache "/d/a" -> a.
        assert_eq!(v.resolve(v.root(), "/d/a", true, &ROOT).unwrap(), a);
        v.unlink(v.root(), "/d/a", &ROOT).unwrap();
        // The recycled inode now lives under a different name.
        let b = v.create(v.root(), "/d/b", 0o644, &ROOT).unwrap();
        assert_eq!(a, b, "inode must be recycled for this test to bite");
        assert_eq!(v.resolve(v.root(), "/d/a", true, &ROOT), Err(Errno::ENOENT));
    }

    #[test]
    fn disabled_cache_records_no_hits() {
        let mut v = fs();
        v.set_dentry_cache(false);
        v.write_file(v.root(), "/f", b"x", &ROOT).unwrap();
        v.resolve(v.root(), "/f", true, &ROOT).unwrap();
        v.resolve(v.root(), "/f", true, &ROOT).unwrap();
        assert_eq!(v.dentry_stats(), (0, 0));
    }

    #[test]
    fn cloned_vfs_starts_with_cold_cache() {
        let v = fs();
        v.write_file(v.root(), "/f", b"x", &ROOT).unwrap();
        v.resolve(v.root(), "/f", true, &ROOT).unwrap();
        v.resolve(v.root(), "/f", true, &ROOT).unwrap();
        let c = v.clone();
        assert_eq!(c.dentry_stats(), (0, 0));
        assert_eq!(c.read_file(c.root(), "/f", &ROOT).unwrap(), b"x");
    }

    #[test]
    fn dentry_cache_stays_bounded() {
        let v = Vfs::with_shards(4);
        for i in 0..DENTRY_CACHE_CAP + 64 {
            v.write_file(v.root(), &format!("/f{i}"), b"", &ROOT).unwrap();
        }
        for i in 0..DENTRY_CACHE_CAP + 64 {
            v.resolve(v.root(), &format!("/f{i}"), true, &ROOT).unwrap();
        }
        assert!(v.dcache_len() <= DENTRY_CACHE_CAP);
        for c in &*v.dcaches {
            let map = c.map.read();
            let total: usize = map.by_dir.values().map(|m| m.len()).sum();
            assert_eq!(total, map.len, "len accounting must match the map");
            assert!(map.len <= c.cap, "per-shard cache exceeded its cap");
        }
    }

    #[test]
    fn concurrent_disjoint_subtrees() {
        let v = std::sync::Arc::new(Vfs::with_shards(8));
        let baseline = v.live_inodes();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let v = std::sync::Arc::clone(&v);
                thread::spawn(move || {
                    let dir = format!("/w{t}");
                    v.mkdir(v.root(), &dir, 0o755, &ROOT).unwrap();
                    for i in 0..200 {
                        let p = format!("{dir}/f{i}");
                        v.write_file(v.root(), &p, b"payload", &ROOT).unwrap();
                        assert_eq!(v.read_file(v.root(), &p, &ROOT).unwrap(), b"payload");
                        v.unlink(v.root(), &p, &ROOT).unwrap();
                    }
                    v.rmdir(v.root(), &dir, &ROOT).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(v.live_inodes(), baseline, "all inodes must be reclaimed");
    }

    #[test]
    fn concurrent_cross_shard_renames_and_creates_do_not_deadlock() {
        let v = std::sync::Arc::new(Vfs::with_shards(4));
        v.mkdir(v.root(), "/a", 0o755, &ROOT).unwrap();
        v.mkdir(v.root(), "/b", 0o755, &ROOT).unwrap();
        for i in 0..8 {
            v.write_file(v.root(), &format!("/a/f{i}"), b"x", &ROOT).unwrap();
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let v = std::sync::Arc::clone(&v);
                thread::spawn(move || {
                    for round in 0..100 {
                        // Shuttle shared files between the two dirs; races
                        // with other threads are expected and benign.
                        let i = (t + round) % 8;
                        let _ = v.rename(
                            v.root(),
                            &format!("/a/f{i}"),
                            &format!("/b/f{i}"),
                            &ROOT,
                        );
                        let _ = v.rename(
                            v.root(),
                            &format!("/b/f{i}"),
                            &format!("/a/f{i}"),
                            &ROOT,
                        );
                        // Churn private files to mix creates/unlinks in.
                        let p = format!("/b/t{t}");
                        let _ = v.write_file(v.root(), &p, b"y", &ROOT);
                        let _ = v.unlink(v.root(), &p, &ROOT);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every shared file must still exist in exactly one of the dirs.
        for i in 0..8 {
            let in_a = v.stat(v.root(), &format!("/a/f{i}"), true, &ROOT).is_ok();
            let in_b = v.stat(v.root(), &format!("/b/f{i}"), true, &ROOT).is_ok();
            assert!(in_a ^ in_b, "f{i} must live in exactly one directory");
        }
    }
}
