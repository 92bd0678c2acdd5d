//! The kernel proper: process table + syscall dispatch.
//!
//! # Concurrency model: sharded syscall domains
//!
//! The kernel used to be one monolithic struct behind a single
//! `Arc<RwLock<Kernel>>`: every mutating syscall from every boxed
//! connection serialized on that lock, which flat-lined server throughput
//! as clients were added. The state is now split into independently
//! locked **domains**, so two identities touching disjoint state never
//! contend:
//!
//! * **vfs** — internally sharded by inode number (see `idbox_vfs::Vfs`);
//!   every operation takes `&self` and locks only the shards it touches.
//! * **procs** — a process table sharded by pid, plus a pid allocator
//!   behind its own mutex. Each process entry *owns* its fd table, so fd
//!   operations lock only that process's shard.
//! * **pipes** — a slot table behind one mutex, with generation-tagged
//!   slots (see [`FileBacking::Pipe`]).
//! * **accounts** — an `RwLock` (reads vastly outnumber admin writes).
//! * **mounts** — a mutex around the mount table; driver calls serialize
//!   per-kernel (drivers model remote I/O and were serialized before).
//!
//! Dispatch goes through [`Kernel::syscall_shared`], which needs only
//! `&self`: supervisors share one kernel behind an `Arc` (or the
//! read-side of the legacy `RwLock`) and run syscalls concurrently.
//!
//! ## Lock ordering
//!
//! Deadlock freedom rests on a strict domain hierarchy:
//!
//! 1. A syscall locks **one process shard at a time**, except through
//!    `ShardSet`'s ordered batch helpers (`write_keys` in `fork`,
//!    ascending sweeps in `terminate`/`wait`), which always acquire in
//!    ascending shard order.
//! 2. While holding a process-shard guard, code may take **vfs**,
//!    **pipe**, or **mount** locks (e.g. `fork` pins inherited fds).
//!    Nothing in those domains ever takes a process lock, so the edge is
//!    one-way: `procs → {vfs, pipes, mounts}`.
//! 3. The pid-allocator mutex is a leaf: it is held only over its own
//!    bookkeeping, never while acquiring any other lock. (Its liveness
//!    probe reads a process shard *between* reservations, not under the
//!    allocator lock.)
//! 4. `vfs`, `pipes`, `mounts`, and `accounts` locks are never held
//!    while acquiring one another; calls into each domain are sequenced.
//! 5. The write-ahead log's internal mutex (durability; see
//!    `idbox_vfs::wal`) is a leaf below the vfs shard locks: the vfs
//!    appends while holding shard write locks, and nothing acquired
//!    under the WAL mutex can take any other lock. Snapshot capture
//!    takes every vfs shard read lock, then the WAL mutex — the same
//!    downward direction.
//! 6. The snapshot lock is above all of these: `wal_snapshot` takes it
//!    before the cut's shard locks, and nothing takes it while holding
//!    another lock.

use crate::accounts::{AccountDb, AccountsMut, PASSWD};
use crate::driver::{FsDriver, MountTable};
use crate::process::{
    FileBacking, OpenFile, OpenFlags, Pid, PipeEnd, ProcState, Process, Signal,
};
use crate::stats::{LatencyStats, SyscallStats};
use crate::syscall::{SysRet, Syscall, Whence};
use idbox_types::{Errno, Identity, SysResult};
use idbox_vfs::wal::{RecoveryReport, Wal, WalConfig};
use idbox_vfs::{
    path as vpath, Access, Cred, Entry, ExtentList, FileKind, Ino, Stale, StatBuf, Vfs,
};
use parking_lot::{ProfiledMutex, ProfiledRwLock, ShardSet};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// The initial process (everything reparents to it).
const INIT: Pid = Pid(1);

/// Process-table shard count of [`Kernel::new`].
const DEFAULT_PROC_SHARDS: usize = 8;

/// The pid allocator: a wrapping counter over `[2, max_pid]` plus a
/// reservation set for pids handed out but not yet inserted into the
/// table. Lives behind its own mutex (a leaf lock; see the module doc).
#[derive(Debug)]
struct PidAlloc {
    /// Next candidate pid. Wraps to 2 past `max_pid` instead of
    /// overflowing (the old `next_pid += 1` was an unchecked `u32`
    /// increment: debug-panic / silent pid collision in release).
    next: u32,
    /// Upper bound of the pid space (inclusive). `u32::MAX` in
    /// production; tests shrink it to exercise wrap and exhaustion.
    max_pid: u32,
    /// Pids allocated but not yet visible in a shard.
    reserved: HashSet<u32>,
}

/// The sharded process table.
struct ProcTable {
    /// `pid % shard_count` → that pid's entry. Each entry owns its fd
    /// table, so fd ops lock exactly one shard.
    shards: ShardSet<BTreeMap<u32, Process>>,
    alloc: ProfiledMutex<PidAlloc>,
}

impl ProcTable {
    fn with_shards(n: usize) -> Self {
        ProcTable {
            shards: ShardSet::from_fn_named("proc", n, |_| BTreeMap::new()),
            alloc: ProfiledMutex::new("pid-alloc", PidAlloc {
                next: 2,
                max_pid: u32::MAX,
                reserved: HashSet::new(),
            }),
        }
    }

    fn shard_of(&self, pid: Pid) -> usize {
        self.shards.shard_of(pid.0 as u64)
    }
}

/// An in-kernel pipe: a byte queue plus end reference counts.
#[derive(Debug, Default)]
struct PipeBuf {
    data: VecDeque<u8>,
    readers: u32,
    writers: u32,
}

/// One slot in the pipe table. Slots are recycled once both end counts
/// reach zero; `gen` is bumped on every reuse so an fd minted against an
/// earlier life of the slot can never alias the current pipe (it fails
/// the generation check with `EBADF` instead).
#[derive(Debug, Default)]
struct PipeSlot {
    gen: u64,
    buf: Option<PipeBuf>,
}

/// The pipe domain: all slots behind one mutex (pipe traffic is tiny
/// compared to vfs traffic; a single leaf lock suffices).
struct PipeTable {
    slots: ProfiledMutex<Vec<PipeSlot>>,
}

/// A path as a policy resolved it to rule on a call: the caller's
/// credential, read once, and the [`Entry`] the walk from the caller's
/// working directory reached with it. Only [`Kernel::locate`] makes
/// one. [`Kernel::syscall_judged`] acts on this entry instead of
/// walking the path again, so the call touches exactly the object that
/// was judged, whatever the namespace has become since.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JudgedEntry<'p> {
    cred: Cred,
    entry: Entry<'p>,
}

impl<'p> JudgedEntry<'p> {
    /// The entry the walk reached.
    pub fn entry(&self) -> &Entry<'p> {
        &self.entry
    }

    /// The credential the walk ran with: the caller's.
    pub fn cred(&self) -> Cred {
        self.cred
    }

    /// The same entry, owning its name.
    pub fn into_owned(self) -> JudgedEntry<'static> {
        JudgedEntry {
            cred: self.cred,
            entry: self.entry.into_owned(),
        }
    }
}

/// The simulated kernel.
///
/// Owns the filesystem, the mount table, the process table, and the
/// account database, each behind its own locking domain (see the module
/// doc). All interaction happens through [`Kernel::syscall_shared`] (the
/// trapped interface, `&self`) or through supervisor-only methods such
/// as [`Kernel::spawn`] and [`Kernel::set_identity`], which model actions
/// the supervisor performs directly rather than on behalf of a guest.
pub struct Kernel {
    vfs: Vfs,
    mounts: ProfiledMutex<MountTable>,
    /// Whether any driver is mounted. Mounting takes `&mut self` and
    /// nothing unmounts, so path calls read this without the mount lock.
    mounted: bool,
    procs: ProcTable,
    accounts: ProfiledRwLock<AccountDb>,
    pipes: PipeTable,
    /// Per-syscall-name invocation counters (workload characterization).
    /// Atomic, so every concurrent dispatch records calls; see
    /// [`SyscallStats`].
    pub stats: SyscallStats,
    /// Per-syscall latency histograms. Behind an `Arc` so supervisors
    /// can clone the handle once at construction and record timings
    /// without touching any kernel lock.
    latency: Arc<LatencyStats>,
    /// Held across one snapshot's cut and install, so snapshots run one
    /// at a time (see [`Kernel::wal_snapshot`]).
    snapshot_lock: std::sync::Mutex<()>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nprocs: usize = self.procs.shards.read_all().iter().map(|g| g.len()).sum();
        write!(
            f,
            "Kernel({} procs, {} inodes, {} mounts)",
            nprocs,
            self.vfs.live_inodes(),
            self.mounts.lock().len()
        )
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// A fresh kernel with the standard filesystem layout (`/etc`,
    /// `/home`, `/tmp`, `/root`, `/bin`), system accounts, an
    /// `/etc/passwd` file, and an init process (pid 1) running as root.
    pub fn new() -> Self {
        Self::build(Vfs::new(), DEFAULT_PROC_SHARDS)
    }

    /// A kernel with an explicit shard count for both the vfs and the
    /// process table. `with_shards(1)` degenerates to one lock per
    /// domain — the behavioral twin of the old single-lock kernel, used
    /// by the equivalence suite as the reference implementation.
    pub fn with_shards(n: usize) -> Self {
        let n = n.clamp(1, 1024);
        Self::build(Vfs::with_shards(n), n)
    }

    fn build(vfs: Vfs, proc_shards: usize) -> Self {
        let accounts = Self::layout(&vfs);
        Self::assemble(vfs, accounts, proc_shards)
    }

    /// Open (or create) a durable kernel whose namespace lives in the
    /// write-ahead log at `cfg.dir`. A fresh directory boots the same
    /// standard layout as [`Kernel::new`] — with every operation logged,
    /// so the log alone can always rebuild the namespace — while a
    /// directory holding a previous incarnation's snapshot/log restores
    /// that namespace (files, ACL files, `/etc/passwd`), reads the
    /// account database back from `/etc/passwd`, and resumes logging
    /// after it. Process table, pipes, and mounts are volatile by
    /// design: processes do not survive a restart. Returns the kernel
    /// plus the replay report ([`RecoveryReport::restored`]
    /// distinguishes the two paths).
    pub fn with_durability(cfg: WalConfig) -> std::io::Result<(Self, RecoveryReport)> {
        let (wal, recovered) = Wal::open(cfg)?;
        let wal = Arc::new(wal);
        let report = recovered.report;
        let kernel = match recovered.vfs {
            Some(mut vfs) => {
                let accounts = match vfs.read_file(vfs.root(), PASSWD, &Cred::ROOT) {
                    Ok(text) => AccountDb::parse_passwd(&String::from_utf8_lossy(&text)),
                    // A log torn inside the first boot's layout: no
                    // account was ever added.
                    Err(Errno::ENOENT) => AccountDb::with_system_accounts(),
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("unreadable {PASSWD} in the WAL: {e:?}"),
                        ))
                    }
                };
                // Resume logging on the restored namespace.
                vfs.set_wal(Some(Arc::clone(&wal)));
                Self::assemble(vfs, accounts, DEFAULT_PROC_SHARDS)
            }
            None => {
                // First boot: arm the log *before* the standard layout
                // is created, so the log covers the namespace from its
                // root-only origin — replay can then always start from
                // `Vfs::new()` when no snapshot exists yet.
                let mut vfs = Vfs::new();
                vfs.set_wal(Some(Arc::clone(&wal)));
                let accounts = Self::layout(&vfs);
                Self::assemble(vfs, accounts, DEFAULT_PROC_SHARDS)
            }
        };
        wal.start_flusher();
        Ok((kernel, report))
    }

    /// Create the standard filesystem layout on a root-only filesystem
    /// and return the matching system account database.
    fn layout(vfs: &Vfs) -> AccountDb {
        let root = vfs.root();
        let r = &Cred::ROOT;
        vfs.mkdir(root, "/etc", 0o755, r).unwrap();
        vfs.mkdir(root, "/home", 0o755, r).unwrap();
        vfs.mkdir(root, "/tmp", 0o777, r).unwrap();
        vfs.mkdir(root, "/root", 0o700, r).unwrap();
        vfs.mkdir(root, "/bin", 0o755, r).unwrap();
        // Standard executables (content is a placeholder; the simulated
        // exec checks existence and execute permission, not ELF headers).
        for bin in ["sh", "cc", "ls", "cp", "mv", "rm", "make", "whoami"] {
            let ino = vfs
                .create(root, &format!("/bin/{bin}"), 0o755, r)
                .unwrap();
            vfs.write_at(ino, 0, b"#!simulated\n").unwrap();
        }
        let accounts = AccountDb::with_system_accounts();
        vfs.write_file(root, PASSWD, accounts.passwd_file().as_bytes(), r)
            .unwrap();
        accounts
    }

    /// Wrap an existing namespace and account database in the volatile
    /// kernel state (process table with init, pipes, mounts, counters).
    fn assemble(vfs: Vfs, accounts: AccountDb, proc_shards: usize) -> Self {
        let root = vfs.root();
        let procs = ProcTable::with_shards(proc_shards);
        procs.shards.write(procs.shard_of(INIT)).insert(
            INIT.0,
            Process {
                pid: INIT,
                ppid: INIT,
                cred: Cred::ROOT,
                identity: None,
                cwd: root,
                cwd_path: "/".to_string(),
                fds: Vec::new(),
                state: ProcState::Running,
                pending: Vec::new(),
                umask: 0o022,
                comm: "init".to_string(),
                env: Default::default(),
            },
        );
        Kernel {
            vfs,
            mounts: ProfiledMutex::new("mounts", MountTable::default()),
            mounted: false,
            procs,
            accounts: ProfiledRwLock::new("accounts", accounts),
            pipes: PipeTable {
                slots: ProfiledMutex::new("pipes", Vec::new()),
            },
            stats: SyscallStats::new(),
            latency: Arc::new(LatencyStats::new()),
            snapshot_lock: std::sync::Mutex::new(()),
        }
    }

    /// The shared latency-histogram handle for this kernel.
    pub fn latency(&self) -> &Arc<LatencyStats> {
        &self.latency
    }

    /// Number of process-table shards (diagnostics).
    pub fn proc_shard_count(&self) -> usize {
        self.procs.shards.len()
    }

    // ------------------------------------------------------------------
    // Supervisor-side (non-trapped) interface
    // ------------------------------------------------------------------

    /// Borrow the filesystem. All `Vfs` operations take `&self`, so this
    /// is the working handle for supervisors too.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Mutably borrow the filesystem (needed only for structural knobs
    /// such as `set_dentry_cache` / `set_fault_hook`).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// Read-lock the account database. Drop the guard before calling
    /// anything that might write accounts.
    pub fn accounts(&self) -> parking_lot::RwLockReadGuard<'_, AccountDb> {
        self.accounts.read()
    }

    /// The account writer (administrative action): every change also
    /// rewrites `/etc/passwd`, the database's only durable form, which
    /// the log and snapshots carry like any other file.
    pub fn accounts_mut(&mut self) -> AccountsMut<'_> {
        AccountsMut {
            db: self.accounts.get_mut(),
            vfs: &self.vfs,
        }
    }

    /// Snapshot the durable namespace, `/etc/passwd` included, and
    /// truncate the log. `Ok(None)` when no WAL is attached; otherwise
    /// the snapshot's LSN watermark.
    ///
    /// Safe against concurrent syscalls: the namespace is captured
    /// under every vfs shard read lock, at a log rotation point taken
    /// under those same locks, and streamed to disk after they are
    /// released (see [`Vfs::snapshot_cut`]).
    ///
    /// Concurrent calls (the server's auto-snapshot thread, the
    /// `walsnap` RPC, an embedder) run one at a time. Two installs at
    /// once would share `snapshot.tmp`, and an older cut installed after
    /// a newer one would replace a snapshot whose install had already
    /// purged the segments the older one needs.
    pub fn wal_snapshot(&self) -> std::io::Result<Option<u64>> {
        let Some(wal) = self.vfs.wal().cloned() else {
            return Ok(None);
        };
        let _one_at_a_time = self.snapshot_lock.lock().unwrap_or_else(|e| e.into_inner());
        let cut = self.vfs.snapshot_cut()?;
        wal.install_snapshot(&cut)?;
        Ok(Some(cut.watermark()))
    }

    /// Mount a filesystem driver under a path prefix. Returns the mount
    /// index.
    pub fn mount(&mut self, prefix: impl Into<String>, driver: Box<dyn FsDriver>) -> usize {
        self.mounted = true;
        self.mounts.get_mut().mount(prefix, driver)
    }

    /// Shrink the pid space to `[2, max]` (testing knob: makes wrap and
    /// exhaustion reachable without four billion spawns).
    pub fn set_max_pid(&self, max: u32) {
        let mut a = self.procs.alloc.lock();
        a.max_pid = max.max(2);
        if a.next > a.max_pid {
            a.next = 2;
        }
    }

    /// Allocate a fresh pid: a checked, wrapping increment that skips
    /// live and reserved pids and answers `EAGAIN` once the whole pid
    /// space is in use.
    fn alloc_pid(&self) -> SysResult<Pid> {
        let mut attempts: u64 = 0;
        loop {
            let cand = {
                let mut a = self.procs.alloc.lock();
                let span = a.max_pid as u64;
                loop {
                    if attempts >= span {
                        return Err(Errno::EAGAIN);
                    }
                    attempts += 1;
                    let c = a.next;
                    a.next = if c >= a.max_pid { 2 } else { c + 1 };
                    if c >= 2 && !a.reserved.contains(&c) {
                        a.reserved.insert(c);
                        break c;
                    }
                }
            };
            // Liveness probe *outside* the allocator lock (lock order:
            // the allocator mutex is a leaf and never wraps a shard
            // acquisition).
            let live = self
                .procs
                .shards
                .read(self.procs.shards.shard_of(cand as u64))
                .contains_key(&cand);
            if !live {
                return Ok(Pid(cand));
            }
            self.procs.alloc.lock().reserved.remove(&cand);
        }
    }

    /// Drop the reservation made by [`Kernel::alloc_pid`] (called after
    /// the pid is inserted into its shard, or on an abandoned spawn).
    fn release_pid(&self, pid: Pid) {
        self.procs.alloc.lock().reserved.remove(&pid.0);
    }

    /// Create a new process as a child of init.
    pub fn spawn(&self, cred: Cred, cwd_path: &str, comm: &str) -> SysResult<Pid> {
        let cwd = self.vfs.resolve(self.vfs.root(), cwd_path, true, &cred)?;
        if self.vfs.fstat(cwd)?.kind != FileKind::Dir {
            return Err(Errno::ENOTDIR);
        }
        let pid = self.alloc_pid()?;
        self.procs.shards.write(self.procs.shard_of(pid)).insert(
            pid.0,
            Process {
                pid,
                ppid: INIT,
                cred,
                identity: None,
                cwd,
                cwd_path: vpath::normalize_lexical(cwd_path),
                fds: Vec::new(),
                state: ProcState::Running,
                pending: Vec::new(),
                umask: 0o022,
                comm: comm.to_string(),
                env: Default::default(),
            },
        );
        self.release_pid(pid);
        Ok(pid)
    }

    /// Attach a global identity to a process (what the identity box does
    /// when it admits a visitor). Supervisor-only: there is deliberately
    /// no trapped syscall for this.
    pub fn set_identity(&self, pid: Pid, identity: Identity) -> SysResult<()> {
        self.with_proc_mut(pid, |p| p.identity = Some(identity))
    }

    /// Set one environment variable on a process. Supervisor-only, like
    /// [`Kernel::set_identity`]: guests can only *read* the table (via
    /// `getenv`), and children inherit it across `fork` — how a boxed
    /// child learns the trace id of the request that spawned it.
    pub fn set_env(
        &self,
        pid: Pid,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> SysResult<()> {
        let (key, value) = (key.into(), value.into());
        self.with_proc_mut(pid, |p| {
            p.env.insert(key, value);
        })
    }

    /// A snapshot of a process entry.
    pub fn process(&self, pid: Pid) -> SysResult<Process> {
        self.with_proc(pid, |p| p.clone())
    }

    /// A process's working directory: what a path resolution on its
    /// behalf starts from, read without copying the process entry.
    pub fn cwd(&self, pid: Pid) -> SysResult<Ino> {
        self.with_proc(pid, |p| p.cwd)
    }

    /// All live pids, ascending.
    pub fn pids(&self) -> Vec<Pid> {
        let mut out: Vec<Pid> = self
            .procs
            .shards
            .read_all()
            .iter()
            .flat_map(|g| g.values().map(|p| p.pid))
            .collect();
        out.sort();
        out
    }

    /// Total number of syscalls dispatched.
    pub fn total_syscalls(&self) -> u64 {
        self.stats.total()
    }

    /// The null system call: what a nullified (trapped-and-replaced) call
    /// becomes. Does the same work as `getpid` — a real kernel entry with
    /// a process-table lookup — but is not recorded in the per-name stats,
    /// so workload characterization counts only the guest's own calls.
    pub fn null_syscall(&self, pid: Pid) -> i64 {
        match self.with_proc(pid, |p| p.pid.0 as i64) {
            Ok(n) => n,
            Err(e) => e.as_ret(),
        }
    }

    /// Run `f` against a process entry under its shard's read lock.
    fn with_proc<T>(&self, pid: Pid, f: impl FnOnce(&Process) -> T) -> SysResult<T> {
        let g = self.procs.shards.read(self.procs.shard_of(pid));
        g.get(&pid.0).map(f).ok_or(Errno::ESRCH)
    }

    /// Run `f` against a process entry under its shard's write lock.
    fn with_proc_mut<T>(&self, pid: Pid, f: impl FnOnce(&mut Process) -> T) -> SysResult<T> {
        let mut g = self.procs.shards.write(self.procs.shard_of(pid));
        g.get_mut(&pid.0).map(f).ok_or(Errno::ESRCH)
    }

    /// Caller's cred; error if the process is gone or a zombie.
    fn live_cred(&self, pid: Pid) -> SysResult<(Cred, Ino)> {
        self.with_proc(pid, |p| {
            if p.is_alive() {
                Ok((p.cred, p.cwd))
            } else {
                Err(Errno::ESRCH)
            }
        })?
    }

    /// The identity presented to mounted drivers for this process: the
    /// box identity when present, otherwise `unix:<account>`.
    fn driver_identity(&self, pid: Pid) -> SysResult<Identity> {
        let (identity, uid) = self.with_proc(pid, |p| (p.identity.clone(), p.cred.uid))?;
        if let Some(id) = identity {
            return Ok(id);
        }
        let name = self
            .accounts
            .read()
            .lookup_uid(uid)
            .map(|a| a.name.clone())
            .unwrap_or_else(|| format!("uid{uid}"));
        Ok(Identity::new(format!("unix:{name}")))
    }

    /// Make a path absolute with respect to the process cwd (textually;
    /// structural resolution happens later in the VFS).
    fn absolutize(&self, pid: Pid, p: &str) -> SysResult<String> {
        self.with_proc(pid, |proc| {
            if vpath::is_absolute(p) {
                p.to_string()
            } else {
                vpath::join(&proc.cwd_path, p)
            }
        })
    }

    /// Route a path: `Some((mount, rel))` for mounted prefixes, `None`
    /// for the local filesystem.
    fn route(&self, pid: Pid, p: &str) -> SysResult<Option<(usize, String)>> {
        if !self.mounted {
            return Ok(None);
        }
        let abs = vpath::normalize_lexical(&self.absolutize(pid, p)?);
        Ok(self.mounts.lock().route(&abs))
    }

    // ------------------------------------------------------------------
    // The trapped interface
    // ------------------------------------------------------------------

    /// Dispatch one system call on behalf of `pid` (exclusive borrow).
    ///
    /// A compatibility shim over [`Kernel::syscall_shared`]: every call
    /// is dispatched through the shared-borrow path, so the two entry
    /// points are byte-identical in behavior.
    pub fn syscall(&mut self, pid: Pid, call: Syscall) -> SysResult<SysRet> {
        self.syscall_shared(pid, &call)
    }

    /// Dispatch one system call on behalf of `pid` through a **shared**
    /// borrow, by reference. This is the concurrent path: each syscall
    /// locks only the domains (and shards) it touches, so supervisors on
    /// different threads proceed in parallel whenever their state is
    /// disjoint. Nothing here clones the call or its payload.
    pub fn syscall_shared(&self, pid: Pid, call: &Syscall) -> SysResult<SysRet> {
        self.stats.bump(call);
        self.dispatch(pid, call)
    }

    /// Resolve `path` for `pid` once, with the caller's credential from
    /// its working directory, as a policy does before it rules; the
    /// result is what [`Kernel::syscall_judged`] acts on.
    pub fn locate<'p>(&self, pid: Pid, path: &'p str) -> SysResult<JudgedEntry<'p>> {
        let (cred, cwd) = self.live_cred(pid)?;
        let entry = self.vfs.resolve_entry(cwd, path, &cred)?;
        Ok(JudgedEntry { cred, entry })
    }

    /// Dispatch `call`, whose [`Syscall::judged_path`] a policy resolved
    /// to `judged` ([`Kernel::locate`]) and ruled on, acting on that
    /// entry rather than walking the path again. [`Stale`] when the
    /// judged object is gone or changed, or a name appeared where the
    /// entry found none: nothing was done, and the caller judges the
    /// call again. A call without a judged path, or whose path a driver
    /// mount serves, is dispatched as [`Kernel::syscall_shared`] does.
    pub fn syscall_judged(
        &self,
        pid: Pid,
        call: &Syscall,
        judged: &JudgedEntry<'_>,
    ) -> Result<SysResult<SysRet>, Stale> {
        let mounted = match call.judged_path() {
            Some(p) => self.route(pid, p).map(|m| m.is_some()),
            None => Ok(true),
        };
        let result = match mounted {
            Ok(false) => self.dispatch_judged(pid, call, judged)?,
            Ok(true) => self.dispatch(pid, call),
            Err(e) => Err(e),
        };
        self.stats.bump(call);
        Ok(result)
    }

    /// The judged forms of the calls [`Syscall::judged_path`] names.
    /// Each reads the judged object through its handle, under the same
    /// guard that answers the call, so a number recycled since the walk
    /// is never mistaken for the object judged.
    fn dispatch_judged(
        &self,
        pid: Pid,
        call: &Syscall,
        j: &JudgedEntry<'_>,
    ) -> Result<SysResult<SysRet>, Stale> {
        use Syscall::*;
        let target = j.entry.target;
        let stat = || target.map_or(Ok(Err(Errno::ENOENT)), |t| self.vfs.stat_handle(t).map(Ok));
        Ok(match call {
            Stat(_) => stat()?.map(SysRet::Stat),
            Open(_, flags, mode) => return self.open_judged(pid, j, *flags, *mode),
            AccessCheck(_, want) => stat()?
                .and_then(|st| st.check_access(&j.cred, *want))
                .map(|()| SysRet::Unit),
            Readdir(_) => match target {
                Some(t) => self.vfs.readdir_handle(t, &j.cred)?.map(SysRet::Entries),
                None => Err(Errno::ENOENT),
            },
            Chdir(p) => match stat()? {
                Ok(st) => self.chdir_to(pid, p, &st, &j.cred),
                Err(e) => Err(e),
            },
            Exec(name) => match stat()? {
                Ok(st) => self.exec_image(pid, name, &st, &j.cred),
                Err(e) => Err(e),
            },
            _ => self.dispatch(pid, call),
        })
    }

    /// The single dispatcher: every call through `&self`.
    fn dispatch(&self, pid: Pid, call: &Syscall) -> SysResult<SysRet> {
        use Syscall::*;
        match call {
            Getpid => Ok(SysRet::Num(pid.0 as i64)),
            Getppid => self.with_proc(pid, |p| SysRet::Num(p.ppid.0 as i64)),
            Getuid => self.with_proc(pid, |p| SysRet::Num(p.cred.uid as i64)),
            Getcwd => self.with_proc(pid, |p| SysRet::Text(p.cwd_path.clone())),
            GetUserName => self.read_user_name(pid),
            Getenv(name) => self.read_env(pid, name),
            Stat(p) => self.do_stat(pid, p, true),
            Lstat(p) => self.do_stat(pid, p, false),
            Fstat(fd) => self.do_fstat(pid, *fd),
            Open(p, flags, mode) => self.do_open(pid, p, *flags, *mode),
            Close(fd) => self.do_close(pid, *fd),
            Read(fd, len) => self.do_read(pid, *fd, *len, None),
            Pread(fd, len, off) | Preadx(fd, len, off) => {
                self.do_read(pid, *fd, *len, Some(*off))
            }
            Write(fd, data) => self.do_write(pid, *fd, data, None),
            Pwrite(fd, data, off) => self.do_write(pid, *fd, data, Some(*off)),
            Lseek(fd, off, whence) => self.do_lseek(pid, *fd, *off, *whence),
            Dup(fd) => self.do_dup(pid, *fd),
            Mkdir(p, mode) => self.do_mkdir(pid, p, *mode),
            Rmdir(p) => self.do_rmdir(pid, p),
            Unlink(p) => self.do_unlink(pid, p),
            Link(old, new) => self.do_link(pid, old, new),
            Symlink(target, linkp) => self.do_symlink(pid, target, linkp),
            Readlink(p) => self.do_readlink(pid, p),
            Rename(old, new) => self.do_rename(pid, old, new),
            Truncate(p, len) => self.do_truncate(pid, p, *len),
            AccessCheck(p, want) => self.do_access(pid, p, *want),
            Readdir(p) => self.do_readdir(pid, p),
            Chmod(p, mode) => self.do_chmod(pid, p, *mode),
            Chown(p, uid, gid) => self.do_chown(pid, p, *uid, *gid),
            Chdir(p) => self.do_chdir(pid, p),
            Umask(mask) => self.with_proc_mut(pid, |p| {
                let old = p.umask;
                p.umask = mask & 0o777;
                SysRet::Num(old as i64)
            }),
            Fork => self.do_fork(pid),
            Exec(name) => self.do_exec(pid, name),
            Exit(code) => self.do_exit(pid, *code),
            Wait => self.do_wait(pid),
            Kill(target, sig) => self.do_kill(pid, *target, *sig),
            SigPending => self.with_proc_mut(pid, |p| {
                SysRet::Signals(std::mem::take(&mut p.pending))
            }),
            Pipe => self.do_pipe(pid),
        }
    }

    fn read_user_name(&self, pid: Pid) -> SysResult<SysRet> {
        let (identity, uid) = self.with_proc(pid, |p| (p.identity.clone(), p.cred.uid))?;
        let id = match identity {
            Some(id) => id,
            None => {
                let name = self
                    .accounts
                    .read()
                    .lookup_uid(uid)
                    .map(|a| a.name.clone())
                    .unwrap_or_else(|| format!("uid{uid}"));
                Identity::new(name)
            }
        };
        Ok(SysRet::Name(id))
    }

    /// `getenv`: a process-table read. Unset names answer `ENOENT`
    /// (distinct from an empty value).
    fn read_env(&self, pid: Pid, name: &str) -> SysResult<SysRet> {
        self.with_proc(pid, |p| p.env.get(name).cloned())?
            .map(SysRet::Text)
            .ok_or(Errno::ENOENT)
    }

    // ------------------------------------------------------------------
    // File operations
    // ------------------------------------------------------------------

    fn do_stat(&self, pid: Pid, p: &str, follow: bool) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            return Ok(SysRet::Stat(d.stat(&rel, &id)?));
        }
        let (cred, cwd) = self.live_cred(pid)?;
        Ok(SysRet::Stat(self.vfs.stat(cwd, p, follow, &cred)?))
    }

    /// Adjust a pipe's end counts; frees the slot when both reach zero.
    /// Generation-checked: a stale reference is a silent no-op.
    fn pipe_release(&self, id: usize, gen: u64, end: PipeEnd) {
        let mut slots = self.pipes.slots.lock();
        if let Some(slot) = slots.get_mut(id) {
            if slot.gen != gen {
                return;
            }
            if let Some(p) = &mut slot.buf {
                match end {
                    PipeEnd::Read => p.readers = p.readers.saturating_sub(1),
                    PipeEnd::Write => p.writers = p.writers.saturating_sub(1),
                }
                if p.readers == 0 && p.writers == 0 {
                    slot.buf = None;
                }
            }
        }
    }

    fn pipe_retain(&self, id: usize, gen: u64, end: PipeEnd) {
        let mut slots = self.pipes.slots.lock();
        if let Some(slot) = slots.get_mut(id) {
            if slot.gen != gen {
                return;
            }
            if let Some(p) = &mut slot.buf {
                match end {
                    PipeEnd::Read => p.readers += 1,
                    PipeEnd::Write => p.writers += 1,
                }
            }
        }
    }

    fn do_pipe(&self, pid: Pid) -> SysResult<SysRet> {
        // Allocate a slot first; reused slots get a fresh generation so
        // stale fds minted against the previous life answer EBADF.
        let (id, gen) = {
            let mut slots = self.pipes.slots.lock();
            let fresh = PipeBuf {
                readers: 1,
                writers: 1,
                ..Default::default()
            };
            match slots.iter().position(|s| s.buf.is_none()) {
                Some(i) => {
                    slots[i].gen += 1;
                    slots[i].buf = Some(fresh);
                    (i, slots[i].gen)
                }
                None => {
                    slots.push(PipeSlot {
                        gen: 1,
                        buf: Some(fresh),
                    });
                    (slots.len() - 1, 1)
                }
            }
        };
        let planted = self.with_proc_mut(pid, |proc| {
            let Some(rfd) = proc.alloc_fd() else {
                return Err(Errno::EMFILE);
            };
            proc.fds[rfd] = Some(OpenFile::new(
                FileBacking::Pipe {
                    id,
                    gen,
                    end: PipeEnd::Read,
                },
                OpenFlags::rdonly(),
            ));
            match proc.alloc_fd() {
                Some(wfd) => {
                    proc.fds[wfd] = Some(OpenFile::new(
                        FileBacking::Pipe {
                            id,
                            gen,
                            end: PipeEnd::Write,
                        },
                        OpenFlags {
                            write: true,
                            ..Default::default()
                        },
                    ));
                    Ok((rfd, wfd))
                }
                None => {
                    proc.fds[rfd] = None;
                    Err(Errno::EMFILE)
                }
            }
        });
        match planted {
            Ok(Ok((rfd, wfd))) => Ok(SysRet::PipeFds(rfd, wfd)),
            Ok(Err(e)) | Err(e) => {
                // Roll the slot back; the generation stays burned.
                let mut slots = self.pipes.slots.lock();
                if let Some(slot) = slots.get_mut(id) {
                    if slot.gen == gen {
                        slot.buf = None;
                    }
                }
                Err(e)
            }
        }
    }

    fn pipe_fstat(&self, pid: Pid, id: usize, gen: u64) -> SysResult<SysRet> {
        let buffered = {
            let slots = self.pipes.slots.lock();
            match slots.get(id) {
                Some(s) if s.gen == gen => s.buf.as_ref().map_or(0, |p| p.data.len() as u64),
                _ => return Err(Errno::EBADF),
            }
        };
        let cred = self.with_proc(pid, |p| p.cred)?;
        Ok(SysRet::Stat(idbox_vfs::StatBuf {
            ino: Ino(0),
            kind: FileKind::File,
            mode: 0o600,
            uid: cred.uid,
            gid: cred.gid,
            nlink: 1,
            size: buffered,
            atime: 0,
            mtime: 0,
            ctime: 0,
        }))
    }

    fn do_fstat(&self, pid: Pid, fd: usize) -> SysResult<SysRet> {
        let backing = self
            .with_proc(pid, |p| p.file(fd).map(|f| f.backing.clone()))?
            .ok_or(Errno::EBADF)?;
        match backing {
            FileBacking::Local(ino) => Ok(SysRet::Stat(self.vfs.fstat(ino)?)),
            FileBacking::Pipe { id, gen, .. } => self.pipe_fstat(pid, id, gen),
            FileBacking::Driver { mount, dfd } => {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(mount).ok_or(Errno::EIO)?;
                Ok(SysRet::Stat(d.fstat(dfd)?))
            }
        }
    }

    fn do_open(&self, pid: Pid, p: &str, flags: OpenFlags, mode: u16) -> SysResult<SysRet> {
        if !flags.read && !flags.write {
            return Err(Errno::EINVAL);
        }
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let dfd = {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
                d.open(&rel, flags, mode, &id)?
            };
            let fd = self
                .with_proc_mut(pid, |proc| {
                    proc.alloc_fd().inspect(|&fd| {
                        proc.fds[fd] =
                            Some(OpenFile::new(FileBacking::Driver { mount: m, dfd }, flags));
                    })
                })?
                .ok_or(Errno::EMFILE)?;
            return Ok(SysRet::Num(fd as i64));
        }
        // Walk once and open what the walk reached; a walk gone stale
        // before the open (a raced create) walks again.
        loop {
            if let Ok(opened) = self.open_judged(pid, &self.locate(pid, p)?, flags, mode) {
                return opened;
            }
        }
    }

    /// `open` of a located entry: the object it names (pinned first, so
    /// its number cannot be recycled while the checks run), or with
    /// `O_CREAT` a new file at its creation site.
    fn open_judged(
        &self,
        pid: Pid,
        j: &JudgedEntry<'_>,
        flags: OpenFlags,
        mode: u16,
    ) -> Result<SysResult<SysRet>, Stale> {
        if !flags.read && !flags.write {
            return Ok(Err(Errno::EINVAL));
        }
        let Some(target) = j.entry.target else {
            if !flags.create {
                return Ok(Err(Errno::ENOENT));
            }
            let umask = match self.with_proc(pid, |p| p.umask) {
                Ok(umask) => umask,
                Err(e) => return Ok(Err(e)),
            };
            let entry = &j.entry;
            return Ok(self
                .vfs
                .create_at(entry.dir, &entry.name, mode & !umask, &j.cred)?
                .and_then(|ino| {
                    self.vfs.pin(ino)?;
                    self.install_fd(pid, ino, flags)
                }));
        };
        let st = self.vfs.pin_handle(target)?;
        if let Err(e) = self.check_existing(&st, &j.cred, flags) {
            let _ = self.vfs.unpin(st.ino);
            return Ok(Err(e));
        }
        Ok(self.install_fd(pid, st.ino, flags))
    }

    /// The checks (and `O_TRUNC`) of an `open` that finds its file, which
    /// `st` describes.
    fn check_existing(&self, st: &StatBuf, cred: &Cred, flags: OpenFlags) -> SysResult<()> {
        if flags.create && flags.excl {
            return Err(Errno::EEXIST);
        }
        if st.kind == FileKind::Dir && flags.write {
            return Err(Errno::EISDIR);
        }
        if flags.read {
            st.check_access(cred, Access::R)?;
        }
        if flags.write {
            st.check_access(cred, Access::W)?;
        }
        if flags.trunc && st.kind == FileKind::File {
            self.vfs.truncate(st.ino, 0)?;
        }
        Ok(())
    }

    /// Give `pid` a descriptor for the pinned inode `ino`; on failure the
    /// pin is dropped.
    fn install_fd(&self, pid: Pid, ino: Ino, flags: OpenFlags) -> SysResult<SysRet> {
        let fd = self.with_proc_mut(pid, |proc| {
            proc.alloc_fd().inspect(|&fd| {
                proc.fds[fd] = Some(OpenFile::new(FileBacking::Local(ino), flags));
            })
        });
        match fd {
            Ok(Some(fd)) => Ok(SysRet::Num(fd as i64)),
            Ok(None) | Err(_) => {
                self.vfs.unpin(ino)?;
                Err(fd.err().unwrap_or(Errno::EMFILE))
            }
        }
    }

    fn do_close(&self, pid: Pid, fd: usize) -> SysResult<SysRet> {
        let file = self
            .with_proc_mut(pid, |p| p.fds.get_mut(fd).and_then(Option::take))?
            .ok_or(Errno::EBADF)?;
        match file.backing {
            FileBacking::Local(ino) => self.vfs.unpin(ino)?,
            FileBacking::Driver { mount, dfd } => {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(mount).ok_or(Errno::EIO)?;
                d.close(dfd)?;
            }
            FileBacking::Pipe { id, gen, end } => self.pipe_release(id, gen, end),
        }
        Ok(SysRet::Unit)
    }

    /// `read`, `pread` and `preadx`: one read path, answering with
    /// extents. A local file lends `Arc` clones of its chunks, so no
    /// byte is copied under or after the shard lock; the caller decides
    /// whether to copy them into a guest buffer or to park them. A
    /// driver-backed file has no chunks to share, so its bytes come back
    /// as one owned extent, and so do a pipe's drained bytes. A pipe is
    /// unseekable: a positioned read of one is `ESPIPE`. Only `read`
    /// (`at` is `None`) moves the fd offset.
    fn do_read(
        &self,
        pid: Pid,
        fd: usize,
        len: usize,
        at: Option<u64>,
    ) -> SysResult<SysRet> {
        let file = self
            .with_proc(pid, |p| p.file(fd).cloned())?
            .ok_or(Errno::EBADF)?;
        if !file.flags.read {
            return Err(Errno::EBADF);
        }
        let off = at.unwrap_or(file.offset());
        let extents = match file.backing {
            FileBacking::Local(ino) => self.vfs.file_extents(ino, off, len)?,
            FileBacking::Driver { mount, dfd } => {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(mount).ok_or(Errno::EIO)?;
                ExtentList::single(d.pread(dfd, len, off)?)
            }
            FileBacking::Pipe { id, gen, end } => {
                if end != PipeEnd::Read || at.is_some() {
                    return Err(if at.is_some() { Errno::ESPIPE } else { Errno::EBADF });
                }
                let mut slots = self.pipes.slots.lock();
                let p = match slots.get_mut(id) {
                    Some(s) if s.gen == gen => s.buf.as_mut().ok_or(Errno::EBADF)?,
                    _ => return Err(Errno::EBADF),
                };
                if p.data.is_empty() && p.writers > 0 {
                    return Err(Errno::EAGAIN); // nothing yet, writer alive
                }
                // Empty with no writer left is EOF: `n` is 0.
                let n = len.min(p.data.len());
                let bytes = Arc::<[u8]>::from(&p.data.make_contiguous()[..n]);
                p.data.drain(..n);
                ExtentList::single(bytes)
            }
        };
        if at.is_none() {
            self.with_proc(pid, |p| {
                p.file(fd).map(|f| f.set_offset(off + extents.total as u64))
            })?
            .ok_or(Errno::EBADF)?;
        }
        Ok(SysRet::Extents(extents))
    }

    fn do_write(
        &self,
        pid: Pid,
        fd: usize,
        data: &Arc<[u8]>,
        at: Option<u64>,
    ) -> SysResult<SysRet> {
        let file = self
            .with_proc(pid, |p| p.file(fd).cloned())?
            .ok_or(Errno::EBADF)?;
        if !file.flags.write {
            return Err(Errno::EBADF);
        }
        if let FileBacking::Pipe { id, gen, end } = file.backing {
            if end != PipeEnd::Write || at.is_some() {
                return Err(if at.is_some() { Errno::ESPIPE } else { Errno::EBADF });
            }
            let written = {
                let mut slots = self.pipes.slots.lock();
                match slots.get_mut(id) {
                    Some(s) if s.gen == gen => match &mut s.buf {
                        Some(p) if p.readers > 0 => {
                            p.data.extend(data.iter().copied());
                            Ok(data.len())
                        }
                        // Live slot, no readers: broken pipe.
                        Some(_) => Err(Errno::EPIPE),
                        None => Err(Errno::EBADF),
                    },
                    _ => Err(Errno::EBADF),
                }
            };
            return match written {
                Ok(n) => Ok(SysRet::Num(n as i64)),
                Err(Errno::EPIPE) => {
                    // Writing with no reader: broken pipe (and a signal,
                    // as in a real kernel).
                    self.with_proc_mut(pid, |p| p.pending.push(Signal::Term))?;
                    Err(Errno::EPIPE)
                }
                Err(e) => Err(e),
            };
        }
        let off = match (at, file.flags.append) {
            (Some(off), _) => off,
            (None, true) => match file.backing {
                FileBacking::Local(ino) => self.vfs.fstat(ino)?.size,
                FileBacking::Driver { mount, dfd } => {
                    let mut mounts = self.mounts.lock();
                    let d = mounts.driver_mut(mount).ok_or(Errno::EIO)?;
                    d.fstat(dfd)?.size
                }
                FileBacking::Pipe { .. } => unreachable!("handled above"),
            },
            (None, false) => file.offset(),
        };
        let n = match file.backing {
            FileBacking::Local(ino) => self.vfs.write_owned(ino, off, data)?,
            FileBacking::Driver { mount, dfd } => {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(mount).ok_or(Errno::EIO)?;
                d.pwrite(dfd, data, off)?
            }
            FileBacking::Pipe { .. } => unreachable!("handled above"),
        };
        if at.is_none() {
            self.with_proc(pid, |p| {
                p.file(fd).map(|f| f.set_offset(off + n as u64))
            })?
            .ok_or(Errno::EBADF)?;
        }
        Ok(SysRet::Num(n as i64))
    }

    fn do_lseek(&self, pid: Pid, fd: usize, off: i64, whence: Whence) -> SysResult<SysRet> {
        let file = self
            .with_proc(pid, |p| p.file(fd).cloned())?
            .ok_or(Errno::EBADF)?;
        let size = match file.backing {
            FileBacking::Local(ino) => self.vfs.fstat(ino)?.size,
            FileBacking::Pipe { .. } => return Err(Errno::ESPIPE),
            FileBacking::Driver { mount, dfd } => {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(mount).ok_or(Errno::EIO)?;
                d.fstat(dfd)?.size
            }
        };
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => file.offset() as i64,
            Whence::End => size as i64,
        };
        let new = match base.checked_add(off) {
            Some(n) if n >= 0 => n,
            _ => return Err(Errno::EINVAL),
        };
        self.with_proc(pid, |p| p.file(fd).map(|f| f.set_offset(new as u64)))?
            .ok_or(Errno::EBADF)?;
        Ok(SysRet::Num(new))
    }

    fn do_dup(&self, pid: Pid, fd: usize) -> SysResult<SysRet> {
        let file = self
            .with_proc(pid, |p| p.file(fd).cloned())?
            .ok_or(Errno::EBADF)?;
        let backing = file.backing.clone();
        match backing {
            FileBacking::Local(ino) => self.vfs.pin(ino)?,
            FileBacking::Pipe { id, gen, end } => self.pipe_retain(id, gen, end),
            // Driver handles are not duplicable (the remote side owns
            // them); mirrors the fork limitation documented in DESIGN.md.
            FileBacking::Driver { .. } => return Err(Errno::EINVAL),
        }
        let nfd = self.with_proc_mut(pid, move |proc| {
            proc.alloc_fd().inspect(|&nfd| {
                proc.fds[nfd] = Some(file);
            })
        })?;
        match nfd {
            Some(nfd) => Ok(SysRet::Num(nfd as i64)),
            None => {
                match backing {
                    FileBacking::Local(ino) => {
                        let _ = self.vfs.unpin(ino);
                    }
                    FileBacking::Pipe { id, gen, end } => self.pipe_release(id, gen, end),
                    FileBacking::Driver { .. } => {}
                }
                Err(Errno::EMFILE)
            }
        }
    }

    // ------------------------------------------------------------------
    // Namespace operations
    // ------------------------------------------------------------------

    fn do_mkdir(&self, pid: Pid, p: &str, mode: u16) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            d.mkdir(&rel, mode, &id)?;
            return Ok(SysRet::Unit);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        let umask = self.with_proc(pid, |p| p.umask)?;
        self.vfs.mkdir(cwd, p, mode & !umask, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_rmdir(&self, pid: Pid, p: &str) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            d.rmdir(&rel, &id)?;
            return Ok(SysRet::Unit);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.rmdir(cwd, p, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_unlink(&self, pid: Pid, p: &str) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            d.unlink(&rel, &id)?;
            return Ok(SysRet::Unit);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.unlink(cwd, p, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_link(&self, pid: Pid, old: &str, new: &str) -> SysResult<SysRet> {
        let ro = self.route(pid, old)?;
        let rn = self.route(pid, new)?;
        if ro.is_some() || rn.is_some() {
            return Err(Errno::EXDEV); // no hard links across/to mounts
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.link(cwd, old, new, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_symlink(&self, pid: Pid, target: &str, linkp: &str) -> SysResult<SysRet> {
        if self.route(pid, linkp)?.is_some() {
            return Err(Errno::EXDEV);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.symlink(cwd, target, linkp, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_readlink(&self, pid: Pid, p: &str) -> SysResult<SysRet> {
        if self.route(pid, p)?.is_some() {
            return Err(Errno::EINVAL);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        Ok(SysRet::Text(self.vfs.readlink(cwd, p, &cred)?))
    }

    fn do_rename(&self, pid: Pid, old: &str, new: &str) -> SysResult<SysRet> {
        let ro = self.route(pid, old)?;
        let rn = self.route(pid, new)?;
        match (ro, rn) {
            (Some((mo, relo)), Some((mn, reln))) if mo == mn => {
                let id = self.driver_identity(pid)?;
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(mo).ok_or(Errno::EIO)?;
                d.rename(&relo, &reln, &id)?;
                Ok(SysRet::Unit)
            }
            (None, None) => {
                let (cred, cwd) = self.live_cred(pid)?;
                self.vfs.rename(cwd, old, new, &cred)?;
                Ok(SysRet::Unit)
            }
            _ => Err(Errno::EXDEV),
        }
    }

    fn do_truncate(&self, pid: Pid, p: &str, len: u64) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            d.truncate(&rel, len, &id)?;
            return Ok(SysRet::Unit);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        let ino = self.vfs.resolve(cwd, p, true, &cred)?;
        self.vfs.check_access(ino, &cred, Access::W)?;
        self.vfs.truncate(ino, len)?;
        Ok(SysRet::Unit)
    }

    fn do_access(&self, pid: Pid, p: &str, want: Access) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            d.stat(&rel, &id)?; // existence check only; rights are remote
            return Ok(SysRet::Unit);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.access(cwd, p, want, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_readdir(&self, pid: Pid, p: &str) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, p)? {
            let id = self.driver_identity(pid)?;
            let mut mounts = self.mounts.lock();
            let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
            return Ok(SysRet::Entries(d.readdir(&rel, &id)?));
        }
        let (cred, cwd) = self.live_cred(pid)?;
        Ok(SysRet::Entries(self.vfs.readdir(cwd, p, &cred)?))
    }

    fn do_chmod(&self, pid: Pid, p: &str, mode: u16) -> SysResult<SysRet> {
        if self.route(pid, p)?.is_some() {
            return Err(Errno::ENOSYS); // remote ACLs, not modes
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.chmod(cwd, p, mode, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_chown(&self, pid: Pid, p: &str, uid: u32, gid: u32) -> SysResult<SysRet> {
        if self.route(pid, p)?.is_some() {
            return Err(Errno::ENOSYS);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        self.vfs.chown(cwd, p, uid, gid, &cred)?;
        Ok(SysRet::Unit)
    }

    fn do_chdir(&self, pid: Pid, p: &str) -> SysResult<SysRet> {
        if self.route(pid, p)?.is_some() {
            // cwd inside a mount is not supported; stay on the local fs.
            return Err(Errno::EXDEV);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        let ino = self.vfs.resolve(cwd, p, true, &cred)?;
        self.chdir_to(pid, p, &self.vfs.fstat(ino)?, &cred)
    }

    /// Enter the directory `st` describes, which `p` named.
    fn chdir_to(&self, pid: Pid, p: &str, st: &StatBuf, cred: &Cred) -> SysResult<SysRet> {
        if st.kind != FileKind::Dir {
            return Err(Errno::ENOTDIR);
        }
        st.check_access(cred, Access::X)?;
        let abs = vpath::normalize_lexical(&self.absolutize(pid, p)?);
        self.with_proc_mut(pid, |proc| {
            proc.cwd = st.ino;
            proc.cwd_path = abs;
        })?;
        Ok(SysRet::Unit)
    }

    // ------------------------------------------------------------------
    // Process operations
    // ------------------------------------------------------------------

    fn do_fork(&self, pid: Pid) -> SysResult<SysRet> {
        let child_pid = self.alloc_pid()?;
        let forked = (|| -> SysResult<()> {
            // Parent and child shards, ascending (one guard if equal).
            let keys = [pid.0 as u64, child_pid.0 as u64];
            let mut g = self.procs.shards.write_keys(&keys);
            let parent = g.get(keys[0]).get(&pid.0).ok_or(Errno::ESRCH)?.clone();
            if !parent.is_alive() {
                return Err(Errno::ESRCH);
            }
            // Pin / retain inherited fds. vfs and pipe locks taken under
            // the process-shard guards: allowed by the lock hierarchy
            // (procs → {vfs, pipes}).
            let mut fds = Vec::with_capacity(parent.fds.len());
            for slot in &parent.fds {
                match slot {
                    Some(f) => match f.backing {
                        FileBacking::Local(ino) => {
                            self.vfs.pin(ino)?;
                            fds.push(Some(f.clone()));
                        }
                        FileBacking::Pipe { id, gen, end } => {
                            self.pipe_retain(id, gen, end);
                            fds.push(Some(f.clone()));
                        }
                        // Driver handles are connection-private: not inherited.
                        FileBacking::Driver { .. } => fds.push(None),
                    },
                    None => fds.push(None),
                }
            }
            let child = Process {
                pid: child_pid,
                ppid: pid,
                fds,
                pending: Vec::new(),
                state: ProcState::Running,
                ..parent
            };
            g.get_mut(keys[1]).insert(child_pid.0, child);
            Ok(())
        })();
        self.release_pid(child_pid);
        forked?;
        Ok(SysRet::Num(child_pid.0 as i64))
    }

    /// `exec`: verify the image exists and is executable, then record it
    /// as the process's program. (The simulation does not load code —
    /// guest programs are host functions — but the permission semantics
    /// are real.)
    fn do_exec(&self, pid: Pid, name: &str) -> SysResult<SysRet> {
        if let Some((m, rel)) = self.route(pid, name)? {
            let id = self.driver_identity(pid)?;
            {
                let mut mounts = self.mounts.lock();
                let d = mounts.driver_mut(m).ok_or(Errno::EIO)?;
                d.stat(&rel, &id)?; // existence; rights are the remote's call
            }
            self.with_proc_mut(pid, |p| p.comm = name.to_string())?;
            return Ok(SysRet::Unit);
        }
        let (cred, cwd) = self.live_cred(pid)?;
        let ino = self.vfs.resolve(cwd, name, true, &cred)?;
        self.exec_image(pid, name, &self.vfs.fstat(ino)?, &cred)
    }

    /// Run the image `st` describes, which `name` named: it must be a
    /// regular file the caller may execute.
    fn exec_image(&self, pid: Pid, name: &str, st: &StatBuf, cred: &Cred) -> SysResult<SysRet> {
        if st.kind != FileKind::File {
            return Err(Errno::EACCES);
        }
        st.check_access(cred, Access::X)?;
        self.with_proc_mut(pid, |p| p.comm = name.to_string())?;
        Ok(SysRet::Unit)
    }

    fn do_exit(&self, pid: Pid, code: i32) -> SysResult<SysRet> {
        self.terminate(pid, code)?;
        Ok(SysRet::Unit)
    }

    /// Shared by `exit` and lethal signals.
    fn terminate(&self, pid: Pid, code: i32) -> SysResult<()> {
        // Close all fds (taken under the shard lock, released outside it).
        let fds = self.with_proc_mut(pid, |p| std::mem::take(&mut p.fds))?;
        for f in fds.into_iter().flatten() {
            match f.backing {
                FileBacking::Local(ino) => {
                    let _ = self.vfs.unpin(ino);
                }
                FileBacking::Driver { mount, dfd } => {
                    if let Some(d) = self.mounts.lock().driver_mut(mount) {
                        let _ = d.close(dfd);
                    }
                }
                FileBacking::Pipe { id, gen, end } => self.pipe_release(id, gen, end),
            }
        }
        // Reparent children to init: sweep the shards one at a time (no
        // cross-shard atomicity needed — ppid edges are per-entry).
        for i in 0..self.procs.shards.len() {
            let mut g = self.procs.shards.write(i);
            for p in g.values_mut() {
                if p.ppid == pid && p.pid != pid {
                    p.ppid = INIT;
                }
            }
        }
        self.with_proc_mut(pid, |p| p.state = ProcState::Zombie(code))?;
        Ok(())
    }

    fn do_wait(&self, pid: Pid) -> SysResult<SysRet> {
        loop {
            // Snapshot all shards (ascending acquisition) and pick the
            // lowest-pid zombie child — the same child the single-lock
            // kernel's ascending scan reaped.
            let (have_child, candidate) = {
                let guards = self.procs.shards.read_all();
                let mut have_child = false;
                let mut candidate: Option<Pid> = None;
                for g in &guards {
                    for p in g.values() {
                        if p.ppid == pid && p.pid != pid {
                            have_child = true;
                            if matches!(p.state, ProcState::Zombie(_)) {
                                candidate = Some(candidate.map_or(p.pid, |c| c.min(p.pid)));
                            }
                        }
                    }
                }
                (have_child, candidate)
            };
            match candidate {
                Some(cpid) => {
                    let mut g = self.procs.shards.write(self.procs.shard_of(cpid));
                    // Revalidate: another waiter may have reaped it
                    // between the snapshot and this write lock.
                    if let Some(p) = g.get(&cpid.0) {
                        if p.ppid == pid {
                            if let ProcState::Zombie(code) = p.state {
                                g.remove(&cpid.0);
                                return Ok(SysRet::Reaped(cpid, code));
                            }
                        }
                    }
                    continue;
                }
                None if have_child => return Err(Errno::EAGAIN),
                None => return Err(Errno::ECHILD),
            }
        }
    }

    fn do_kill(&self, pid: Pid, target: Pid, sig: Signal) -> SysResult<SysRet> {
        let sender_uid = self.with_proc(pid, |p| p.cred.uid)?;
        let target_uid = self.with_proc(target, |t| {
            if t.is_alive() {
                Ok(t.cred.uid)
            } else {
                Err(Errno::ESRCH)
            }
        })??;
        // Unix rule: root, or matching uid. (The identity box adds the
        // stricter same-identity rule above this layer.)
        if sender_uid != 0 && sender_uid != target_uid {
            return Err(Errno::EPERM);
        }
        if sig == Signal::Kill {
            self.terminate(target, 128 + sig.number() as i32)?;
        } else {
            self.with_proc_mut(target, |t| t.pending.push(sig))?;
        }
        Ok(SysRet::Unit)
    }

    /// Plant an arbitrary fd into a process table (regression-test rig:
    /// lets tests manufacture a stale pipe fd that survived a full
    /// close, the scenario the generation tag defends against).
    #[cfg(test)]
    fn plant_fd(&self, pid: Pid, backing: FileBacking, flags: OpenFlags) -> usize {
        self.with_proc_mut(pid, |p| {
            let fd = p.alloc_fd().expect("fd table full");
            p.fds[fd] = Some(OpenFile::new(backing, flags));
            fd
        })
        .expect("live process")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Account;

    #[test]
    fn concurrent_snapshots_run_one_at_a_time() {
        let dir = std::env::temp_dir().join(format!("idbox-kernel-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (k, _) = Kernel::with_durability(WalConfig::new(&dir)).unwrap();
        let v = k.vfs();
        v.mkdir(v.root(), "/d", 0o755, &Cred::ROOT).unwrap();
        // Four snapshotters and the writer start together.
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            let snap = || {
                start.wait();
                (0..8).map(|_| k.wal_snapshot().map(|_| ())).collect::<Vec<_>>()
            };
            let snappers: Vec<_> = (0..4).map(|_| s.spawn(snap)).collect();
            start.wait();
            for i in 0..400 {
                v.write_file(v.root(), &format!("/d/f{i}"), &[i as u8; 700], &Cred::ROOT)
                    .unwrap();
            }
            for t in snappers {
                for r in t.join().unwrap() {
                    r.expect("a snapshot taken beside another one failed");
                }
            }
        });
        drop(k);
        let (k, report) = Kernel::with_durability(WalConfig::new(&dir)).unwrap();
        assert!(report.restored);
        for i in 0..400 {
            let v = k.vfs();
            assert_eq!(
                v.read_file(v.root(), &format!("/d/f{i}"), &Cred::ROOT).unwrap(),
                vec![i as u8; 700]
            );
        }
        drop(k);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/etc/passwd` as the vfs holds it.
    fn passwd_bytes(k: &Kernel) -> String {
        let v = k.vfs();
        String::from_utf8(v.read_file(v.root(), PASSWD, &Cred::ROOT).unwrap()).unwrap()
    }

    #[test]
    fn durable_accounts_agree_across_reboots() {
        // A reboot from the log alone, and one from a snapshot plus the
        // log after it, must both read back the live account database
        // from `/etc/passwd`, uid allocator included, under group commit.
        for snapshot in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "idbox-kernel-accounts-{snapshot}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // A one-minute tick: only the drop's own sync can make the
            // last records durable before the reboot.
            let cfg = WalConfig {
                sync_ms: 60_000,
                ..WalConfig::new(&dir)
            };
            let (mut k, _) = Kernel::with_durability(cfg.clone()).unwrap();
            k.accounts_mut().add(Account::new("chirp", 1000, 1000)).unwrap();
            if snapshot {
                k.wal_snapshot().unwrap();
            }
            k.accounts_mut().add(Account::new("x", 1005, 1005)).unwrap();
            k.accounts_mut().remove("x").unwrap();
            let live = k.accounts().passwd_file();
            assert_eq!(passwd_bytes(&k), live);
            drop(k);
            let (mut k, report) = Kernel::with_durability(cfg).unwrap();
            assert_eq!(report.snapshot_loaded, snapshot);
            assert_eq!(k.accounts().passwd_file(), live, "rebooted from a snapshot: {snapshot}");
            assert_eq!(passwd_bytes(&k), live);
            assert_eq!(k.accounts_mut().next_free_uid(), 1006, "uid 1005 was removed");
            drop(k);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_account_add_torn_anywhere_boots_the_old_or_the_new_file() {
        let dir = |budget: u64| {
            std::env::temp_dir().join(format!(
                "idbox-kernel-torn-add-{budget}-{}",
                std::process::id()
            ))
        };
        let fred = || Account::new("fred", 1000, 1000);
        // One untorn add measures the bytes its records log.
        let (mut k, _) = Kernel::with_durability(WalConfig::new(dir(u64::MAX))).unwrap();
        let old = k.accounts().passwd_file();
        let wal = Arc::clone(k.vfs().wal().unwrap());
        let before = wal.stats().append_bytes;
        k.accounts_mut().add(fred()).unwrap();
        let logged = wal.stats().append_bytes - before;
        let new = k.accounts().passwd_file();
        drop((k, wal));
        let _ = std::fs::remove_dir_all(dir(u64::MAX));
        let mut booted_new = 0;
        for budget in 0..=logged {
            let (mut k, _) = Kernel::with_durability(WalConfig::new(dir(budget))).unwrap();
            let wal = Arc::clone(k.vfs().wal().unwrap());
            wal.sync();
            wal.set_crash_after_bytes(budget);
            k.accounts_mut().add(fred()).unwrap();
            drop((k, wal));
            let (k, _) = Kernel::with_durability(WalConfig::new(dir(budget))).unwrap();
            let got = k.accounts().passwd_file();
            assert!(got == old || got == new, "budget {budget}: booted {got:?}");
            assert_eq!(passwd_bytes(&k), got, "budget {budget}");
            booted_new += usize::from(got == new);
            drop(k);
            let _ = std::fs::remove_dir_all(dir(budget));
        }
        assert_eq!(booted_new, 1, "only the whole log boots the new file");
    }

    fn kernel_with_user(name: &str) -> (Kernel, Pid, Cred) {
        let mut k = Kernel::new();
        let uid = k.accounts_mut().next_free_uid();
        k.accounts_mut()
            .add(crate::Account::new(name, uid, uid))
            .unwrap();
        let cred = Cred::new(uid, uid);
        let root = k.vfs().root();
        k.vfs()
            .mkdir(root, &format!("/home/{name}"), 0o755, &Cred::ROOT)
            .unwrap();
        k.vfs()
            .chown(root, &format!("/home/{name}"), uid, uid, &Cred::ROOT)
            .unwrap();
        let pid = k.spawn(cred, &format!("/home/{name}"), "sh").unwrap();
        (k, pid, cred)
    }

    /// The kernel acts on a located entry while it still names what the
    /// walk reached, and reports it stale otherwise: a recycled number,
    /// a changed mode, or a name that appeared at a creation site.
    #[test]
    fn judged_entries_act_on_what_was_judged_or_go_stale() {
        let (k, pid, cred) = kernel_with_user("ann");
        let root = k.vfs().root();
        k.vfs().write_file(root, "/home/ann/a", b"judged", &cred).unwrap();
        let stat = Syscall::Stat("a".into());
        let judged = k.locate(pid, "a").unwrap();
        let size = |r: SysResult<SysRet>| match r {
            Ok(SysRet::Stat(st)) => st.size,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(k.syscall_judged(pid, &stat, &judged).map(size), Ok(6));
        // Replaced by another file on the recycled inode number.
        k.vfs().unlink(root, "/home/ann/a", &cred).unwrap();
        k.vfs().write_file(root, "/home/ann/a", b"other!!", &cred).unwrap();
        assert_eq!(k.locate(pid, "a").unwrap().entry().target.unwrap().ino,
            judged.entry().target.unwrap().ino);
        assert_eq!(k.syscall_judged(pid, &stat, &judged), Err(Stale));
        // A chmod since the walk is a change too.
        let judged = k.locate(pid, "a").unwrap();
        k.vfs().chmod(root, "/home/ann/a", 0o600, &cred).unwrap();
        assert_eq!(k.syscall_judged(pid, &stat, &judged), Err(Stale));
        // A creating open whose name appeared meanwhile is judged again.
        let create = Syscall::Open("new".into(), OpenFlags::wronly_create_trunc(), 0o644);
        let judged = k.locate(pid, "new").unwrap();
        k.vfs().write_file(root, "/home/ann/new", b"raced", &cred).unwrap();
        assert_eq!(k.syscall_judged(pid, &create, &judged), Err(Stale));
        let judged = k.locate(pid, "new").unwrap();
        let fd = k.syscall_judged(pid, &create, &judged).unwrap().unwrap().num();
        assert_eq!(k.vfs().read_file(root, "/home/ann/new", &cred).unwrap(), b"");
        k.syscall_shared(pid, &Syscall::Close(fd as usize)).unwrap();
    }

    #[test]
    fn boot_layout() {
        let mut k = Kernel::new();
        let pid = k.spawn(Cred::ROOT, "/", "probe").unwrap();
        for dir in ["/etc", "/home", "/tmp", "/root", "/bin"] {
            let st = k.syscall(pid, Syscall::Stat(dir.into())).unwrap();
            match st {
                SysRet::Stat(s) => assert!(s.is_dir(), "{dir} should be a dir"),
                other => panic!("unexpected {other:?}"),
            }
        }
        let passwd = k.syscall(pid, Syscall::Stat("/etc/passwd".into())).unwrap();
        assert!(matches!(passwd, SysRet::Stat(s) if s.is_file()));
    }

    #[test]
    fn open_write_read_close() {
        let (mut k, pid, _) = kernel_with_user("dthain");
        let fd = k
            .syscall(
                pid,
                Syscall::Open("notes".into(), OpenFlags::wronly_create_trunc(), 0o644),
            )
            .unwrap()
            .num() as usize;
        let n = k
            .syscall(pid, Syscall::Write(fd, b"hello".to_vec().into()))
            .unwrap()
            .num();
        assert_eq!(n, 5);
        k.syscall(pid, Syscall::Close(fd)).unwrap();
        let fd = k
            .syscall(pid, Syscall::Open("notes".into(), OpenFlags::rdonly(), 0))
            .unwrap()
            .num() as usize;
        let data = k.syscall(pid, Syscall::Read(fd, 100)).unwrap();
        assert_eq!(data.data(), b"hello");
        // Sequential read advances: next read is empty.
        let more = k.syscall(pid, Syscall::Read(fd, 100)).unwrap();
        assert!(more.data().is_empty());
        k.syscall(pid, Syscall::Close(fd)).unwrap();
    }

    #[test]
    fn pread_pwrite_do_not_move_offset() {
        let (mut k, pid, _) = kernel_with_user("u");
        let fd = k
            .syscall(
                pid,
                Syscall::Open("f".into(), OpenFlags::rdwr_create(), 0o644),
            )
            .unwrap_or_else(|_| panic!("open"))
            .num() as usize;
        k.syscall(pid, Syscall::Pwrite(fd, b"abcdef".to_vec().into(), 0)).unwrap();
        let d = k.syscall(pid, Syscall::Pread(fd, 3, 2)).unwrap();
        assert_eq!(d.data(), b"cde");
        // Offset still 0: sequential read sees the start.
        let d = k.syscall(pid, Syscall::Read(fd, 2)).unwrap();
        assert_eq!(d.data(), b"ab");
    }

    #[test]
    fn append_mode() {
        let (mut k, pid, _) = kernel_with_user("u");
        let fd = k
            .syscall(
                pid,
                Syscall::Open("log".into(), OpenFlags::append_create(), 0o644),
            )
            .unwrap()
            .num() as usize;
        k.syscall(pid, Syscall::Write(fd, b"one".to_vec().into())).unwrap();
        k.syscall(pid, Syscall::Write(fd, b"two".to_vec().into())).unwrap();
        k.syscall(pid, Syscall::Close(fd)).unwrap();
        let fd = k
            .syscall(pid, Syscall::Open("log".into(), OpenFlags::rdonly(), 0))
            .unwrap()
            .num() as usize;
        let d = k.syscall(pid, Syscall::Read(fd, 100)).unwrap();
        assert_eq!(d.data(), b"onetwo");
    }

    #[test]
    fn lseek_whences() {
        let (mut k, pid, _) = kernel_with_user("u");
        let fd = k
            .syscall(
                pid,
                Syscall::Open("f".into(), OpenFlags::rdwr_create(), 0o644),
            )
            .unwrap()
            .num() as usize;
        k.syscall(pid, Syscall::Write(fd, b"0123456789".to_vec().into())).unwrap();
        assert_eq!(
            k.syscall(pid, Syscall::Lseek(fd, 2, Whence::Set)).unwrap().num(),
            2
        );
        assert_eq!(
            k.syscall(pid, Syscall::Lseek(fd, 3, Whence::Cur)).unwrap().num(),
            5
        );
        assert_eq!(
            k.syscall(pid, Syscall::Lseek(fd, -1, Whence::End)).unwrap().num(),
            9
        );
        assert_eq!(
            k.syscall(pid, Syscall::Lseek(fd, -100, Whence::Cur)),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn umask_applies_to_create() {
        let (mut k, pid, _) = kernel_with_user("u");
        k.syscall(pid, Syscall::Umask(0o077)).unwrap();
        let fd = k
            .syscall(
                pid,
                Syscall::Open("f".into(), OpenFlags::wronly_create_trunc(), 0o666),
            )
            .unwrap()
            .num() as usize;
        k.syscall(pid, Syscall::Close(fd)).unwrap();
        let st = k.syscall(pid, Syscall::Stat("f".into())).unwrap();
        assert!(matches!(st, SysRet::Stat(s) if s.mode == 0o600));
    }

    #[test]
    fn fork_wait_exit() {
        let (mut k, pid, _) = kernel_with_user("u");
        let child = Pid(k.syscall(pid, Syscall::Fork).unwrap().num() as u32);
        // Child exits 42; parent reaps it.
        k.syscall(child, Syscall::Exit(42)).unwrap();
        match k.syscall(pid, Syscall::Wait).unwrap() {
            SysRet::Reaped(cpid, code) => {
                assert_eq!(cpid, child);
                assert_eq!(code, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(k.syscall(pid, Syscall::Wait), Err(Errno::ECHILD));
    }

    #[test]
    fn wait_with_running_child_is_eagain() {
        let (mut k, pid, _) = kernel_with_user("u");
        let _child = k.syscall(pid, Syscall::Fork).unwrap().num();
        assert_eq!(k.syscall(pid, Syscall::Wait), Err(Errno::EAGAIN));
    }

    #[test]
    fn fork_inherits_fds_with_pins() {
        let (mut k, pid, _) = kernel_with_user("u");
        let fd = k
            .syscall(
                pid,
                Syscall::Open("f".into(), OpenFlags::rdwr_create(), 0o644),
            )
            .unwrap()
            .num() as usize;
        k.syscall(pid, Syscall::Write(fd, b"x".to_vec().into())).unwrap();
        let child = Pid(k.syscall(pid, Syscall::Fork).unwrap().num() as u32);
        // Parent unlinks and closes; child's fd must still work.
        k.syscall(pid, Syscall::Unlink("f".into())).unwrap();
        k.syscall(pid, Syscall::Close(fd)).unwrap();
        let d = k.syscall(child, Syscall::Pread(fd, 1, 0)).unwrap();
        assert_eq!(d.data(), b"x");
        k.syscall(child, Syscall::Exit(0)).unwrap();
    }

    #[test]
    fn kill_permissions_follow_uid() {
        let (mut k, alice_pid, _) = kernel_with_user("alice");
        let bob_uid = k.accounts_mut().next_free_uid();
        k.accounts_mut()
            .add(crate::Account::new("bob", bob_uid, bob_uid))
            .unwrap();
        let bob_pid = k.spawn(Cred::new(bob_uid, bob_uid), "/tmp", "sh").unwrap();
        // Bob cannot signal alice.
        assert_eq!(
            k.syscall(bob_pid, Syscall::Kill(alice_pid, Signal::Term)),
            Err(Errno::EPERM)
        );
        // Alice can signal herself.
        k.syscall(alice_pid, Syscall::Kill(alice_pid, Signal::Usr1))
            .unwrap();
        match k.syscall(alice_pid, Syscall::SigPending).unwrap() {
            SysRet::Signals(sigs) => assert_eq!(sigs, vec![Signal::Usr1]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sigkill_terminates_immediately() {
        let (mut k, pid, _) = kernel_with_user("u");
        let child = Pid(k.syscall(pid, Syscall::Fork).unwrap().num() as u32);
        k.syscall(pid, Syscall::Kill(child, Signal::Kill)).unwrap();
        assert!(!k.process(child).unwrap().is_alive());
        match k.syscall(pid, Syscall::Wait).unwrap() {
            SysRet::Reaped(_, code) => assert_eq!(code, 137),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chdir_and_getcwd() {
        let (mut k, pid, _) = kernel_with_user("u");
        k.syscall(pid, Syscall::Mkdir("sub".into(), 0o755)).unwrap();
        k.syscall(pid, Syscall::Chdir("sub".into())).unwrap();
        match k.syscall(pid, Syscall::Getcwd).unwrap() {
            SysRet::Text(p) => assert_eq!(p, "/home/u/sub"),
            other => panic!("unexpected {other:?}"),
        }
        k.syscall(pid, Syscall::Chdir("..".into())).unwrap();
        match k.syscall(pid, Syscall::Getcwd).unwrap() {
            SysRet::Text(p) => assert_eq!(p, "/home/u"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_user_name_without_box_is_account() {
        let (mut k, pid, _) = kernel_with_user("dthain");
        match k.syscall(pid, Syscall::GetUserName).unwrap() {
            SysRet::Name(id) => assert_eq!(id.as_str(), "dthain"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_user_name_with_identity() {
        let (mut k, pid, _) = kernel_with_user("dthain");
        k.set_identity(pid, Identity::new("globus:/O=UnivNowhere/CN=Fred"))
            .unwrap();
        match k.syscall(pid, Syscall::GetUserName).unwrap() {
            SysRet::Name(id) => {
                assert_eq!(id.as_str(), "globus:/O=UnivNowhere/CN=Fred")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn permission_denied_for_other_users_files() {
        let (mut k, alice_pid, alice) = kernel_with_user("alice");
        let root = k.vfs().root();
        // Alice makes a private file.
        k.vfs()
            .write_file(root, "/home/alice/secret", b"shh", &alice)
            .unwrap();
        k.vfs()
            .chmod(root, "/home/alice/secret", 0o600, &alice)
            .unwrap();
        k.vfs()
            .chmod(root, "/home/alice", 0o700, &alice)
            .unwrap();
        let bob_uid = k.accounts_mut().next_free_uid();
        k.accounts_mut()
            .add(crate::Account::new("bob", bob_uid, bob_uid))
            .unwrap();
        let bob_pid = k.spawn(Cred::new(bob_uid, bob_uid), "/tmp", "sh").unwrap();
        assert_eq!(
            k.syscall(
                bob_pid,
                Syscall::Open("/home/alice/secret".into(), OpenFlags::rdonly(), 0)
            ),
            Err(Errno::EACCES)
        );
        // Alice herself is fine.
        assert!(k
            .syscall(
                alice_pid,
                Syscall::Open("/home/alice/secret".into(), OpenFlags::rdonly(), 0)
            )
            .is_ok());
    }

    #[test]
    fn stats_count_calls() {
        let (mut k, pid, _) = kernel_with_user("u");
        k.syscall(pid, Syscall::Getpid).unwrap();
        k.syscall(pid, Syscall::Getpid).unwrap();
        let _ = k.syscall(pid, Syscall::Stat("/none".into()));
        assert_eq!(k.stats.count("getpid"), 2);
        assert_eq!(k.stats.count("stat"), 1);
        assert_eq!(k.total_syscalls(), 3);
    }

    #[test]
    fn read_path_matches_exclusive_path() {
        // Every call must produce the same result through `syscall_shared`
        // (shared borrow) as through `syscall` (exclusive borrow) against
        // identical kernel state.
        let build = || {
            let (mut k, pid, _) = kernel_with_user("u");
            let root = k.vfs().root();
            k.vfs()
                .write_file(root, "/tmp/f", b"hello world", &Cred::ROOT)
                .unwrap();
            k.vfs()
                .symlink(root, "/tmp/f", "/tmp/ln", &Cred::ROOT)
                .unwrap();
            let fd = k
                .syscall(pid, Syscall::Open("/tmp/f".into(), OpenFlags::rdonly(), 0))
                .unwrap()
                .num() as usize;
            (k, pid, fd)
        };
        let calls = |fd: usize| {
            vec![
                Syscall::Getpid,
                Syscall::Getppid,
                Syscall::Getuid,
                Syscall::Getcwd,
                Syscall::GetUserName,
                Syscall::Stat("/tmp/f".into()),
                Syscall::Stat("/none".into()),
                Syscall::Lstat("/tmp/ln".into()),
                Syscall::Fstat(fd),
                Syscall::Fstat(99),
                Syscall::Readlink("/tmp/ln".into()),
                Syscall::Readlink("/tmp/f".into()),
                Syscall::AccessCheck("/tmp/f".into(), Access::R),
                Syscall::Readdir("/tmp".into()),
                Syscall::Pread(fd, 5, 6),
                Syscall::Read(fd, 4),
                Syscall::Lseek(fd, 2, Whence::Set),
                Syscall::Read(fd, 4),
                Syscall::Lseek(fd, -1, Whence::End),
                Syscall::Lseek(fd, -100, Whence::Cur),
            ]
        };
        let (mut k_mut, pid_a, fd_a) = build();
        let (k_shared, pid_b, fd_b) = build();
        for (a, b) in calls(fd_a).into_iter().zip(calls(fd_b)) {
            let via_mut = k_mut.syscall(pid_a, a.clone());
            let via_read = k_shared.syscall_shared(pid_b, &b);
            assert_eq!(via_mut, via_read, "diverged on {}", a.name());
        }
        assert_eq!(k_mut.total_syscalls(), k_shared.total_syscalls());
    }

    #[test]
    fn shared_path_serves_every_call() {
        // Since the kernel went sharded, the shared-borrow path serves
        // everything — mutating calls included — and counts each exactly
        // once. (Before the shard split, the shared path declined mutating
        // calls and callers fell back to the exclusive lock.)
        let (mut k, pid, _) = kernel_with_user("u");
        let before = k.total_syscalls();
        let child = Pid(
            k.syscall_shared(pid, &Syscall::Fork)
                .unwrap()
                .num() as u32,
        );
        let fd = k
            .syscall_shared(
                pid,
                &Syscall::Open("/tmp/x".into(), OpenFlags::rdwr_create(), 0o644),
            )
            .unwrap()
            .num() as usize;
        k.syscall_shared(pid, &Syscall::Write(fd, b"hi".to_vec().into()))
            .unwrap();
        assert!(k.syscall_shared(pid, &Syscall::Umask(0o022)).is_ok());
        assert!(k.syscall_shared(pid, &Syscall::SigPending).is_ok());
        let (rfd, wfd) = match k.syscall_shared(pid, &Syscall::Pipe).unwrap() {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        k.syscall_shared(pid, &Syscall::Write(wfd, b"x".to_vec().into()))
            .unwrap();
        assert_eq!(
            k.syscall_shared(pid, &Syscall::Read(rfd, 1))
                .unwrap()
                .data(),
            b"x"
        );
        // Shared and exclusive entry points feed the same counters.
        k.syscall(child, Syscall::Exit(0)).unwrap();
        k.syscall(pid, Syscall::Wait).unwrap();
        assert_eq!(k.total_syscalls(), before + 10);
    }

    #[test]
    fn shared_readers_run_concurrently_across_threads() {
        use std::sync::{Arc, RwLock};
        let (k, pid, _) = kernel_with_user("u");
        let root = k.vfs().root();
        k.vfs()
            .write_file(root, "/tmp/f", b"shared data", &Cred::ROOT)
            .unwrap();
        let k = Arc::new(RwLock::new(k));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let k = Arc::clone(&k);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let g = k.read().unwrap();
                        let r = g.syscall_shared(pid, &Syscall::Stat("/tmp/f".into()));
                        assert!(r.is_ok());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(k.read().unwrap().stats.count("stat"), 1000);
    }

    #[test]
    fn open_requires_read_or_write() {
        let (mut k, pid, _) = kernel_with_user("u");
        assert_eq!(
            k.syscall(
                pid,
                Syscall::Open("f".into(), OpenFlags::default(), 0o644)
            ),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn excl_create_fails_on_existing() {
        let (mut k, pid, _) = kernel_with_user("u");
        let mut fl = OpenFlags::wronly_create_trunc();
        fl.excl = true;
        let fd = k
            .syscall(pid, Syscall::Open("f".into(), fl, 0o644))
            .unwrap()
            .num() as usize;
        k.syscall(pid, Syscall::Close(fd)).unwrap();
        assert_eq!(
            k.syscall(pid, Syscall::Open("f".into(), fl, 0o644)),
            Err(Errno::EEXIST)
        );
    }

    #[test]
    fn exit_closes_fds_and_reparents_children() {
        let (mut k, pid, _) = kernel_with_user("u");
        let fd = k
            .syscall(
                pid,
                Syscall::Open("f".into(), OpenFlags::rdwr_create(), 0o644),
            )
            .unwrap()
            .num() as usize;
        let child = Pid(k.syscall(pid, Syscall::Fork).unwrap().num() as u32);
        let grandchild = Pid(k.syscall(child, Syscall::Fork).unwrap().num() as u32);
        k.syscall(child, Syscall::Exit(0)).unwrap();
        // Grandchild reparented to init (pid 1).
        assert_eq!(k.process(grandchild).unwrap().ppid, Pid(1));
        // Parent's fd still valid, child's pins released.
        k.syscall(pid, Syscall::Write(fd, b"ok".to_vec().into())).unwrap();
        k.syscall(grandchild, Syscall::Exit(0)).unwrap();
    }

    #[test]
    fn pipe_roundtrip_and_eof() {
        let (mut k, pid, _) = kernel_with_user("u");
        let fds = k.syscall(pid, Syscall::Pipe).unwrap();
        let (rfd, wfd) = match fds {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        // Empty pipe with live writer: EAGAIN.
        assert_eq!(k.syscall(pid, Syscall::Read(rfd, 10)), Err(Errno::EAGAIN));
        k.syscall(pid, Syscall::Write(wfd, b"through the pipe".to_vec().into()))
            .unwrap();
        let d = k.syscall(pid, Syscall::Read(rfd, 7)).unwrap();
        assert_eq!(d.data(), b"through");
        let d = k.syscall(pid, Syscall::Read(rfd, 100)).unwrap();
        assert_eq!(d.data(), b" the pipe");
        // Close the writer: drained pipe now reports EOF.
        k.syscall(pid, Syscall::Close(wfd)).unwrap();
        let d = k.syscall(pid, Syscall::Read(rfd, 10)).unwrap();
        assert!(d.data().is_empty());
        k.syscall(pid, Syscall::Close(rfd)).unwrap();
    }

    #[test]
    fn pipe_epipe_on_writer_without_reader() {
        let (mut k, pid, _) = kernel_with_user("u");
        let (rfd, wfd) = match k.syscall(pid, Syscall::Pipe).unwrap() {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        k.syscall(pid, Syscall::Close(rfd)).unwrap();
        assert_eq!(
            k.syscall(pid, Syscall::Write(wfd, b"x".to_vec().into())),
            Err(Errno::EPIPE)
        );
        // And a termination signal was queued, as in a real kernel.
        match k.syscall(pid, Syscall::SigPending).unwrap() {
            SysRet::Signals(sigs) => assert_eq!(sigs, vec![Signal::Term]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipe_crosses_fork() {
        let (mut k, pid, _) = kernel_with_user("u");
        let (rfd, wfd) = match k.syscall(pid, Syscall::Pipe).unwrap() {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        let child = Pid(k.syscall(pid, Syscall::Fork).unwrap().num() as u32);
        // Child writes, closes both ends, exits.
        k.syscall(child, Syscall::Write(wfd, b"from child".to_vec().into()))
            .unwrap();
        k.syscall(child, Syscall::Exit(0)).unwrap();
        // Parent closes its write end; reads the child's message; then EOF.
        k.syscall(pid, Syscall::Close(wfd)).unwrap();
        let d = k.syscall(pid, Syscall::Read(rfd, 100)).unwrap();
        assert_eq!(d.data(), b"from child");
        let d = k.syscall(pid, Syscall::Read(rfd, 100)).unwrap();
        assert!(d.data().is_empty(), "EOF after all writers gone");
        k.syscall(pid, Syscall::Wait).unwrap();
    }

    #[test]
    fn pipe_misuse_is_clean_errors() {
        let (mut k, pid, _) = kernel_with_user("u");
        let (rfd, wfd) = match k.syscall(pid, Syscall::Pipe).unwrap() {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        // Wrong-direction I/O.
        assert_eq!(
            k.syscall(pid, Syscall::Write(rfd, b"x".to_vec().into())),
            Err(Errno::EBADF)
        );
        assert_eq!(k.syscall(pid, Syscall::Read(wfd, 1)), Err(Errno::EBADF));
        // Pipes are not seekable and have no positioned I/O.
        assert_eq!(
            k.syscall(pid, Syscall::Lseek(rfd, 0, Whence::Set)),
            Err(Errno::ESPIPE)
        );
        assert_eq!(k.syscall(pid, Syscall::Pread(rfd, 1, 0)), Err(Errno::ESPIPE));
        assert_eq!(k.syscall(pid, Syscall::Preadx(rfd, 1, 0)), Err(Errno::ESPIPE));
        // fstat reports the buffered byte count.
        k.syscall(pid, Syscall::Write(wfd, b"abc".to_vec().into())).unwrap();
        match k.syscall(pid, Syscall::Fstat(rfd)).unwrap() {
            SysRet::Stat(st) => assert_eq!(st.size, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn readdir_via_syscall() {
        let (mut k, pid, _) = kernel_with_user("u");
        k.syscall(pid, Syscall::Mkdir("d".into(), 0o755)).unwrap();
        let fd = k
            .syscall(
                pid,
                Syscall::Open("d/f".into(), OpenFlags::wronly_create_trunc(), 0o644),
            )
            .unwrap()
            .num() as usize;
        k.syscall(pid, Syscall::Close(fd)).unwrap();
        match k.syscall(pid, Syscall::Readdir("d".into())).unwrap() {
            SysRet::Entries(es) => {
                let names: Vec<_> = es.iter().map(|e| e.name.as_str()).collect();
                assert_eq!(names, [".", "..", "f"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pid_allocation_wraps_and_skips_live_pids() {
        let mut k = Kernel::new();
        k.set_max_pid(6); // pid space is {2..=6}; pid 1 is init
        let a = k.spawn(Cred::ROOT, "/", "a").unwrap();
        let b = k.spawn(Cred::ROOT, "/", "b").unwrap();
        let c = k.spawn(Cred::ROOT, "/", "c").unwrap();
        let d = k.spawn(Cred::ROOT, "/", "d").unwrap();
        let e = k.spawn(Cred::ROOT, "/", "e").unwrap();
        assert_eq!((a, b, c, d, e), (Pid(2), Pid(3), Pid(4), Pid(5), Pid(6)));
        // The space is exhausted: allocation reports EAGAIN instead of
        // spinning forever or handing out a duplicate pid. (The old
        // allocator was an unchecked `next_pid += 1`: overflow panic in
        // debug, silent pid aliasing after wrap in release.)
        assert_eq!(k.spawn(Cred::ROOT, "/", "f"), Err(Errno::EAGAIN));
        // One pid frees up (exit, then reaped by init, the spawn parent)…
        k.syscall(c, Syscall::Exit(0)).unwrap();
        match k.syscall(Pid(1), Syscall::Wait).unwrap() {
            SysRet::Reaped(cpid, _) => assert_eq!(cpid, c),
            other => panic!("unexpected {other:?}"),
        }
        // …and the allocator wraps past the live pids to find it again.
        assert_eq!(k.spawn(Cred::ROOT, "/", "g").unwrap(), c);
    }

    #[test]
    fn pipe_slot_reuse_cannot_alias_stale_fds() {
        let (mut k, pid, _) = kernel_with_user("u");
        let (r1, w1) = match k.syscall(pid, Syscall::Pipe).unwrap() {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        // Copy the first pipe's backings, as a leaked stale fd would hold
        // them (historically a double-close plus slot reuse did exactly
        // this: the old fd silently aliased the next pipe in the slot).
        let stale_r = k.process(pid).unwrap().file(r1).unwrap().backing.clone();
        let stale_w = k.process(pid).unwrap().file(w1).unwrap().backing.clone();
        // Close both ends: the slot is freed for reuse.
        k.syscall(pid, Syscall::Close(r1)).unwrap();
        k.syscall(pid, Syscall::Close(w1)).unwrap();
        // A new pipe reuses the slot id under a fresh generation.
        let (r2, w2) = match k.syscall(pid, Syscall::Pipe).unwrap() {
            SysRet::PipeFds(r, w) => (r, w),
            other => panic!("unexpected {other:?}"),
        };
        let fresh_r = k.process(pid).unwrap().file(r2).unwrap().backing.clone();
        let (
            FileBacking::Pipe { id: old_id, gen: old_gen, .. },
            FileBacking::Pipe { id: new_id, gen: new_gen, .. },
        ) = (stale_r.clone(), fresh_r)
        else {
            panic!("expected pipe backings");
        };
        assert_eq!(old_id, new_id, "slot is reused");
        assert!(new_gen > old_gen, "reuse bumps the generation");
        // Plant the stale fds back into the process and verify every pipe
        // op rejects them instead of touching the new pipe.
        let sr = k.plant_fd(pid, stale_r, OpenFlags::rdonly());
        let sw = k.plant_fd(
            pid,
            stale_w,
            OpenFlags {
                write: true,
                ..Default::default()
            },
        );
        k.syscall(pid, Syscall::Write(w2, b"fresh".to_vec().into())).unwrap();
        assert_eq!(k.syscall(pid, Syscall::Read(sr, 5)), Err(Errno::EBADF));
        assert_eq!(k.syscall(pid, Syscall::Fstat(sr)), Err(Errno::EBADF));
        assert_eq!(
            k.syscall(pid, Syscall::Write(sw, b"zzz".to_vec().into())),
            Err(Errno::EBADF)
        );
        // A stale write is EBADF, not EPIPE: no termination signal.
        match k.syscall(pid, Syscall::SigPending).unwrap() {
            SysRet::Signals(sigs) => assert!(sigs.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // The new pipe is untouched by all of the above.
        let d = k.syscall(pid, Syscall::Read(r2, 100)).unwrap();
        assert_eq!(d.data(), b"fresh");
    }

    #[test]
    fn concurrent_syscalls_across_shards_do_not_deadlock() {
        use std::sync::Arc;
        // Mixed cross-shard traffic on every thread: fork/exec/exit/wait
        // (parent and child usually land in different process shards),
        // renames between directories on different vfs shards, pipes.
        // A lock-ordering violation shows up here as a deadlock (the
        // test hangs) rather than a failed assertion.
        let k = Arc::new(Kernel::with_shards(4));
        let workers = 8;
        let mut pids = Vec::new();
        for i in 0..workers {
            let dir = format!("/tmp/w{i}");
            k.vfs().mkdir(k.vfs().root(), &dir, 0o777, &Cred::ROOT).unwrap();
            pids.push(k.spawn(Cred::ROOT, &dir, "sh").unwrap());
        }
        let threads: Vec<_> = pids
            .into_iter()
            .enumerate()
            .map(|(i, pid)| {
                let k = Arc::clone(&k);
                std::thread::spawn(move || {
                    for round in 0..100 {
                        let child = Pid(
                            k.syscall_shared(pid, &Syscall::Fork).unwrap().num() as u32
                        );
                        k.syscall_shared(child, &Syscall::Exec("/bin/sh".into()))
                            .unwrap();
                        let f = format!("f{round}");
                        let fd = k
                            .syscall_shared(
                                child,
                                &Syscall::Open(f.clone(), OpenFlags::rdwr_create(), 0o644),
                            )
                            .unwrap()
                            .num() as usize;
                        k.syscall_shared(child, &Syscall::Write(fd, vec![b'x'; 64].into()))
                            .unwrap();
                        k.syscall_shared(child, &Syscall::Close(fd)).unwrap();
                        // Rename into the *next* worker's directory: the
                        // source and destination parents live on
                        // different vfs shards.
                        let other = format!("/tmp/w{}/g{round}-{i}", (i + 1) % workers);
                        k.syscall_shared(child, &Syscall::Rename(f, other.clone()))
                            .unwrap();
                        k.syscall_shared(pid, &Syscall::Unlink(other)).unwrap();
                        let (rfd, wfd) =
                            match k.syscall_shared(pid, &Syscall::Pipe).unwrap() {
                                SysRet::PipeFds(r, w) => (r, w),
                                other => panic!("unexpected {other:?}"),
                            };
                        k.syscall_shared(pid, &Syscall::Write(wfd, b"ping".to_vec().into()))
                            .unwrap();
                        assert_eq!(
                            k.syscall_shared(pid, &Syscall::Read(rfd, 4)).unwrap().data(),
                            b"ping"
                        );
                        k.syscall_shared(pid, &Syscall::Close(rfd)).unwrap();
                        k.syscall_shared(pid, &Syscall::Close(wfd)).unwrap();
                        k.syscall_shared(child, &Syscall::Exit(0)).unwrap();
                        match k.syscall_shared(pid, &Syscall::Wait) {
                            Ok(SysRet::Reaped(c, 0)) => assert_eq!(c, child),
                            other => panic!("unexpected wait result {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(k.pids().len(), workers + 1, "init + workers survive");
    }
}
