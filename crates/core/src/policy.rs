//! The identity box as a syscall policy.

use crate::aclfs::{self, EffectiveRights};
use crate::audit::{AuditRing, Verdict};
use idbox_acl::{Acl, Rights};
use idbox_interpose::{PolicyDecision, SyscallPolicy};
use idbox_kernel::{Kernel, Pid, Syscall, SysRet};
use idbox_types::{Errno, Identity, SysResult, ACL_FILE_NAME};
use idbox_vfs::{Access, Cred, Ino};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on each policy cache (ACL contents and verdicts). Both
/// are keyed by directory inode, and inodes of removed directories can
/// be recycled, so the maps must not grow without limit on a long-lived
/// server; past the cap an arbitrary entry is evicted (dropping a cache
/// entry is always safe — the next check re-reads from the filesystem).
const ACL_CACHE_CAP: usize = 1024;

/// Evict-then-insert keeping `cache` at or under [`ACL_CACHE_CAP`].
fn bounded_insert<V>(cache: &mut HashMap<Ino, V>, key: Ino, value: V) {
    if cache.len() >= ACL_CACHE_CAP && !cache.contains_key(&key) {
        let victim = cache.keys().next().copied();
        if let Some(victim) = victim {
            cache.remove(&victim);
        }
    }
    cache.insert(key, value);
}

/// Counters describing the box's policy activity.
#[derive(Debug, Default)]
pub struct PolicyStats {
    /// Path calls checked against ACLs.
    pub checks: AtomicU64,
    /// Calls denied.
    pub denials: AtomicU64,
    /// Calls rewritten (passwd redirection).
    pub rewrites: AtomicU64,
    /// Cache hits across both policy caches (when caching is enabled):
    /// a verdict served without re-deriving it, or an ACL text served
    /// without re-parsing it.
    pub cache_hits: AtomicU64,
    /// Effective-rights verdicts served straight from the
    /// generation-keyed verdict cache.
    pub verdict_hits: AtomicU64,
    /// Effective-rights verdicts that had to re-read the directory's
    /// ACL (cold, evicted, or invalidated by a filesystem change).
    pub verdict_misses: AtomicU64,
}

impl PolicyStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot (checks, denials, rewrites, cache hits).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.checks.load(Ordering::Relaxed),
            self.denials.load(Ordering::Relaxed),
            self.rewrites.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the verdict cache alone: (hits, misses).
    pub fn verdict_snapshot(&self) -> (u64, u64) {
        (
            self.verdict_hits.load(Ordering::Relaxed),
            self.verdict_misses.load(Ordering::Relaxed),
        )
    }
}

/// What `post` must do after a successful `mkdir`.
#[derive(Debug, Clone)]
enum PendingMkdir {
    /// Created under the reserve right: stamp a fresh ACL naming the
    /// visitor literally with the granted rights.
    Reserved(Rights),
    /// Ordinary creation: the new directory inherits this parent ACL
    /// (when the parent had one).
    Inherit(Option<Acl>),
}

/// The identity box policy: ACLs first, `nobody` fallback second.
pub struct IdentityBoxPolicy {
    identity: Identity,
    sup_cred: Cred,
    /// Absolute path of the private passwd copy.
    passwd_copy: String,
    cache_acls: bool,
    /// ACL *content* cache: directory inode → (vfs change generation,
    /// parsed ACL — `None` for "no ACL file here"). An entry is valid
    /// only while the filesystem's change generation is unchanged, so
    /// any mutation (including a `setacl` rewrite, an `unlink`, or a
    /// `rename` of the ACL file itself) invalidates it wholesale — no
    /// mtime-tick collisions, no eager eviction bookkeeping, and
    /// recycled inodes can never revive a dead ACL (the recycling
    /// mutation bumped the generation). Behind its own small mutex so
    /// lookups work through `&self` — the concurrent read path rules
    /// under a *shared* kernel borrow. Bounded by [`ACL_CACHE_CAP`].
    acl_cache: Mutex<HashMap<Ino, (u64, Option<Acl>)>>,
    /// Verdict cache: directory inode → (vfs change generation, this
    /// identity's [`EffectiveRights`] there). Sits in front of the
    /// content cache: a hit skips the `.__acl` resolution *and* the
    /// rights derivation. The full decision for any rights mask is a
    /// pure function of the cached value (`rights.contains(needed)`),
    /// so caching per-directory effective rights caches every
    /// `(identity, dir, mask)` verdict at once — while the
    /// Unix-as-nobody fallback, whose answer also depends on the
    /// *target* file's mode, keeps running live. Same generation
    /// keying, same mutex discipline, same bound.
    verdict_cache: Mutex<HashMap<Ino, (u64, EffectiveRights)>>,
    pending_mkdir: Option<(String, PendingMkdir)>,
    stats: Arc<PolicyStats>,
    /// Optional audit ring: when attached, every ruling made through
    /// [`SyscallPolicy::check`] is recorded with identity, syscall,
    /// path, verdict, and errno.
    audit: Option<Arc<AuditRing>>,
    /// Optional current-trace cell (shared with the serving session):
    /// when attached, every audit event is stamped with the trace id of
    /// the RPC being served, making rulings joinable to requests.
    trace: Option<Arc<idbox_obs::TraceCell>>,
    /// Optional per-identity counters: denials and reserve
    /// amplifications are bumped as they are ruled.
    metrics: Option<Arc<idbox_obs::IdentityCounters>>,
}

impl IdentityBoxPolicy {
    /// Build a policy enforcing `identity` with the supervising user's
    /// credential and a passwd-copy path for redirection.
    pub fn new(
        identity: Identity,
        sup_cred: Cred,
        passwd_copy: impl Into<String>,
        cache_acls: bool,
    ) -> Self {
        IdentityBoxPolicy {
            identity,
            sup_cred,
            passwd_copy: passwd_copy.into(),
            cache_acls,
            acl_cache: Mutex::new(HashMap::new()),
            verdict_cache: Mutex::new(HashMap::new()),
            pending_mkdir: None,
            stats: Arc::new(PolicyStats::default()),
            audit: None,
            trace: None,
            metrics: None,
        }
    }

    /// A handle to the policy's counters (remains valid while the
    /// supervisor runs).
    pub fn stats(&self) -> Arc<PolicyStats> {
        Arc::clone(&self.stats)
    }

    /// Share a counters block with another owner (e.g. the
    /// [`IdentityBox`](crate::IdentityBox) aggregating over all the
    /// supervisors it spawns).
    pub fn use_stats(&mut self, stats: Arc<PolicyStats>) {
        self.stats = stats;
    }

    /// Attach an audit ring (typically shared server-wide) that will
    /// receive every ruling this policy makes.
    pub fn use_audit(&mut self, ring: Arc<AuditRing>) {
        self.audit = Some(ring);
    }

    /// Attach a current-trace cell (shared with the serving session);
    /// audit events are thereafter stamped with the RPC's trace id.
    pub fn use_trace(&mut self, cell: Arc<idbox_obs::TraceCell>) {
        self.trace = Some(cell);
    }

    /// Attach this identity's counters; denials and reserve
    /// amplifications are counted as they are ruled.
    pub fn use_metrics(&mut self, counters: Arc<idbox_obs::IdentityCounters>) {
        self.metrics = Some(counters);
    }

    /// Record one ruling into the attached ring, if any. Called from the
    /// `check` trait entry point — *not* from the
    /// (recursive) decision procedure — so one guest call yields exactly
    /// one event.
    fn record_audit(&self, call: &Syscall, decision: &PolicyDecision) {
        let (verdict, errno) = match decision {
            PolicyDecision::Deny(e) => (Verdict::Deny, Some(*e)),
            PolicyDecision::Allow | PolicyDecision::Rewrite(_) => {
                // A mkdir allowed purely through the reserve right has
                // just scheduled a reserved ACL stamp; surface the
                // amplification in the audit trail.
                if matches!(
                    self.pending_mkdir,
                    Some((_, PendingMkdir::Reserved(_)))
                ) {
                    (Verdict::ReserveAmplified, None)
                } else {
                    (Verdict::Allow, None)
                }
            }
        };
        if let Some(counters) = &self.metrics {
            match verdict {
                Verdict::Deny => counters.bump_denial(),
                Verdict::ReserveAmplified => counters.bump_reserve_amplification(),
                Verdict::Allow => {}
            }
        }
        let Some(ring) = &self.audit else { return };
        let trace = self.trace.as_ref().and_then(|cell| cell.get());
        ring.record(self.identity.as_str(), call, verdict, errno, trace);
    }

    /// The boxed identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    // ------------------------------------------------------------------
    // ACL machinery
    // ------------------------------------------------------------------

    /// Effective rights of the boxed identity in directory `dir`, using
    /// the generation-keyed verdict cache when enabled.
    ///
    /// Cached and uncached modes must be indistinguishable to the guest:
    /// the cached path derives its answer from [`Self::cached_acl`],
    /// which mirrors [`aclfs::read_acl`]'s error semantics exactly —
    /// only `ENOENT` means "no ACL here" (Unix-as-nobody fallback); any
    /// other resolve failure propagates (and is never cached), and the
    /// caller denies — failing *closed* rather than open. Both caches
    /// validate against [`idbox_vfs::Vfs::change_generation`], which
    /// every mutating operation bumps, so no filesystem change — ACL
    /// rewrite, unlink, rename, or an inode recycle after any of those —
    /// can be served stale.
    fn rights_in(&self, kernel: &Kernel, dir: Ino) -> SysResult<EffectiveRights> {
        let vfs = kernel.vfs();
        if !self.cache_acls {
            return aclfs::effective_rights(vfs, dir, &self.identity, &self.sup_cred);
        }
        let generation = vfs.change_generation();
        if let Some((cached_gen, er)) = self.verdict_cache.lock().get(&dir) {
            if *cached_gen == generation {
                PolicyStats::bump(&self.stats.cache_hits);
                PolicyStats::bump(&self.stats.verdict_hits);
                if let Some(counters) = &self.metrics {
                    counters.bump_verdict_hit();
                }
                return Ok(er.clone());
            }
        }
        PolicyStats::bump(&self.stats.verdict_misses);
        if let Some(counters) = &self.metrics {
            counters.bump_verdict_miss();
        }
        let er = match self.cached_acl(vfs, dir, generation)? {
            Some(acl) => EffectiveRights::Acl(
                acl.rights_for(&self.identity),
                acl.reserve_grant_for(&self.identity),
            ),
            None => EffectiveRights::UnixAsNobody,
        };
        bounded_insert(&mut self.verdict_cache.lock(), dir, (generation, er.clone()));
        Ok(er)
    }

    /// The directory's parsed ACL (or `None` when it has no ACL file)
    /// through the generation-keyed content cache. Lookup failures are
    /// propagated and never cached, so an error path re-checks the
    /// filesystem every time, exactly like the uncached read.
    fn cached_acl(&self, vfs: &idbox_vfs::Vfs, dir: Ino, generation: u64) -> SysResult<Option<Acl>> {
        if !self.cache_acls {
            return aclfs::read_acl(vfs, dir, &self.sup_cred);
        }
        if let Some((cached_gen, acl)) = self.acl_cache.lock().get(&dir) {
            if *cached_gen == generation {
                PolicyStats::bump(&self.stats.cache_hits);
                return Ok(acl.clone());
            }
        }
        let acl = aclfs::read_acl(vfs, dir, &self.sup_cred)?;
        bounded_insert(&mut self.acl_cache.lock(), dir, (generation, acl.clone()));
        Ok(acl)
    }

    /// Resolve a path to (containing dir, final name, target inode),
    /// following symlinks to where the object really lives.
    fn locate<'p>(
        &self,
        kernel: &Kernel,
        pid: Pid,
        path: &'p str,
    ) -> SysResult<(Ino, Cow<'p, str>, Option<Ino>)> {
        let cwd = kernel.cwd(pid)?;
        kernel.vfs().resolve_entry(cwd, path, &self.sup_cred)
    }

    /// The core check: does the boxed identity hold `needed` on the
    /// directory containing `path`? In ACL-less directories, fall back to
    /// a Unix check as `nobody` using `unix_want` against the target (or,
    /// when the target does not exist yet, against the directory itself
    /// with `unix_dir_want`).
    fn permit(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &str,
        needed: Rights,
        unix_want: Access,
        unix_dir_want: Option<Access>,
    ) -> PolicyDecision {
        PolicyStats::bump(&self.stats.checks);
        let (dir, name, target) = match self.locate(kernel, pid, path) {
            Ok(x) => x,
            // An unresolvable path is denied with its resolve's errno
            // (ENOENT, ELOOP, ...), the one the kernel would give: an
            // Allow would let the call run on whatever the path names
            // by the time the kernel resolves it again.
            Err(e) => return PolicyDecision::Deny(e),
        };
        // The ACL file itself is special: reads need LIST, any mutation
        // needs ADMIN (otherwise a visitor with `w` could grant
        // themselves everything).
        let needed = if name == ACL_FILE_NAME
            && needed & (Rights::WRITE | Rights::DELETE) != Rights::NONE
        {
            needed | Rights::ADMIN
        } else {
            needed
        };
        let er = match self.rights_in(kernel, dir) {
            Ok(er) => er,
            Err(_) => return PolicyDecision::Deny(Errno::EACCES),
        };
        let _ = (dir, target);
        let ok = match &er {
            EffectiveRights::Acl(rights, _) => rights.contains(needed),
            EffectiveRights::UnixAsNobody => {
                self.nobody_allows(kernel, pid, path, unix_want, unix_dir_want)
            }
        };
        if ok {
            PolicyDecision::Allow
        } else {
            PolicyStats::bump(&self.stats.denials);
            PolicyDecision::Deny(Errno::EACCES)
        }
    }

    /// The full `nobody` fallback: resolve the path *as nobody* (so
    /// traversal permissions apply, exactly as they would to a real
    /// `nobody` process) and check the operation's access bits on the
    /// target — or, for creation, on the containing directory.
    fn nobody_allows(
        &self,
        kernel: &Kernel,
        pid: Pid,
        path: &str,
        unix_want: Access,
        unix_dir_want: Option<Access>,
    ) -> bool {
        let Ok(cwd) = kernel.cwd(pid) else {
            return false;
        };
        let vfs = kernel.vfs();
        let nobody = aclfs::nobody_cred();
        match vfs.resolve(cwd, path, true, &nobody) {
            Ok(ino) => vfs.check_access(ino, &nobody, unix_want).is_ok(),
            Err(Errno::ENOENT) => match unix_dir_want {
                Some(want) => match vfs.resolve_parent(cwd, path, &nobody) {
                    Ok((dir, _)) => vfs.check_access(dir, &nobody, want).is_ok(),
                    Err(_) => false,
                },
                None => false,
            },
            Err(_) => false,
        }
    }

    /// "Either of these rights suffices" — deletion is allowed to holders
    /// of `d` or full `w` (the paper's examples grant `rwlax` and expect
    /// cleanup to work).
    #[allow(clippy::too_many_arguments)] // mirrors permit() plus the alternative right
    fn permit_either(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &str,
        a: Rights,
        b: Rights,
        unix_want: Access,
        unix_dir_want: Option<Access>,
    ) -> PolicyDecision {
        match self.permit(kernel, pid, path, a, unix_want, unix_dir_want) {
            PolicyDecision::Deny(_) => {
                // Retry under the alternative right (stat counters count
                // this as a second check, which it is).
                self.permit(kernel, pid, path, b, unix_want, unix_dir_want)
            }
            other => other,
        }
    }

    /// The LIST check against a directory's *own* ACL (readdir/chdir).
    /// Falls back to the containing directory when the path does not
    /// name a directory (the kernel will report the real error).
    fn permit_dir_itself(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &str,
        unix_want: Access,
    ) -> PolicyDecision {
        PolicyStats::bump(&self.stats.checks);
        let target = match self.locate(kernel, pid, path) {
            Ok((_, _, Some(ino))) => ino,
            // Missing or unresolvable: denied with the errno the kernel
            // would give, as in `permit`.
            Ok((_, _, None)) => return PolicyDecision::Deny(Errno::ENOENT),
            Err(e) => return PolicyDecision::Deny(e),
        };
        let is_dir = kernel
            .vfs()
            .fstat(target)
            .map(|st| st.is_dir())
            .unwrap_or(false);
        if !is_dir {
            return self.permit(kernel, pid, path, Rights::LIST, unix_want, None);
        }
        let er = match self.rights_in(kernel, target) {
            Ok(er) => er,
            Err(_) => return PolicyDecision::Deny(Errno::EACCES),
        };
        let ok = match &er {
            EffectiveRights::Acl(rights, _) => rights.contains(Rights::LIST),
            EffectiveRights::UnixAsNobody => {
                self.nobody_allows(kernel, pid, path, unix_want, None)
            }
        };
        if ok {
            PolicyDecision::Allow
        } else {
            PolicyStats::bump(&self.stats.denials);
            PolicyDecision::Deny(Errno::EACCES)
        }
    }

    /// The reserved-directory self-removal rule: an empty directory may
    /// be removed by an identity holding `d` — or full control (`w`+`a`)
    /// — in the directory's *own* ACL, even without rights in the
    /// parent. `deny` is returned unchanged when that does not hold.
    fn permit_own_removal(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &str,
        deny: PolicyDecision,
    ) -> PolicyDecision {
        let Ok((_, _, Some(target))) = self.locate(kernel, pid, path) else {
            return deny;
        };
        let is_dir = kernel
            .vfs()
            .fstat(target)
            .map(|st| st.is_dir())
            .unwrap_or(false);
        if !is_dir {
            return deny;
        }
        match self.rights_in(kernel, target) {
            Ok(EffectiveRights::Acl(rights, _))
                if rights.contains(Rights::DELETE)
                    || rights.contains(Rights::WRITE | Rights::ADMIN) =>
            {
                PolicyDecision::Allow
            }
            _ => deny,
        }
    }

    /// Rewrite `/etc/passwd` accesses to the box's private copy.
    fn rewrite_passwd(&self, call: &Syscall) -> Option<Syscall> {
        let swap = |p: &str| -> Option<String> {
            (p == "/etc/passwd").then(|| self.passwd_copy.clone())
        };
        Some(match call {
            Syscall::Open(p, f, m) => Syscall::Open(swap(p)?, *f, *m),
            Syscall::Stat(p) => Syscall::Stat(swap(p)?),
            Syscall::Lstat(p) => Syscall::Lstat(swap(p)?),
            Syscall::AccessCheck(p, w) => Syscall::AccessCheck(swap(p)?, *w),
            _ => return None,
        })
    }

    /// The mkdir special case: ordinary `w` creates with ACL inheritance;
    /// the reserve right alone creates with a fresh, amplified ACL.
    fn check_mkdir(&mut self, kernel: &Kernel, pid: Pid, path: &str) -> PolicyDecision {
        PolicyStats::bump(&self.stats.checks);
        let (dir, _name, _target) = match self.locate(kernel, pid, path) {
            Ok(x) => x,
            Err(e) => return PolicyDecision::Deny(e),
        };
        let er = match self.rights_in(kernel, dir) {
            Ok(er) => er,
            Err(_) => return PolicyDecision::Deny(Errno::EACCES),
        };
        match er {
            EffectiveRights::Acl(rights, grant) => {
                if rights.contains(Rights::WRITE) {
                    let generation = kernel.vfs().change_generation();
                    let parent = self
                        .cached_acl(kernel.vfs(), dir, generation)
                        .ok()
                        .flatten();
                    self.pending_mkdir =
                        Some((path.to_string(), PendingMkdir::Inherit(parent)));
                    PolicyDecision::Allow
                } else if let Some(grant) = grant {
                    self.pending_mkdir =
                        Some((path.to_string(), PendingMkdir::Reserved(grant)));
                    PolicyDecision::Allow
                } else {
                    PolicyStats::bump(&self.stats.denials);
                    PolicyDecision::Deny(Errno::EACCES)
                }
            }
            EffectiveRights::UnixAsNobody => {
                let ok = kernel
                    .vfs()
                    .check_access(dir, &aclfs::nobody_cred(), Access::W.and(Access::X))
                    .is_ok();
                if ok {
                    self.pending_mkdir = Some((path.to_string(), PendingMkdir::Inherit(None)));
                    PolicyDecision::Allow
                } else {
                    PolicyStats::bump(&self.stats.denials);
                    PolicyDecision::Deny(Errno::EACCES)
                }
            }
        }
    }

    /// Hard links: refused unless the boxed identity can read the target
    /// where it really lives (the Section 6 "indirect paths" rule — no
    /// ACL can be checked through the new name afterwards).
    fn check_link(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        old: &str,
        new: &str,
    ) -> PolicyDecision {
        match self.permit(kernel, pid, old, Rights::READ, Access::R, None) {
            PolicyDecision::Allow => {}
            deny => return deny,
        }
        self.permit(
            kernel,
            pid,
            new,
            Rights::WRITE,
            Access::W,
            Some(Access::W.and(Access::X)),
        )
    }
}

impl IdentityBoxPolicy {
    /// The single decision procedure behind [`SyscallPolicy::check`].
    /// Every rule reads the kernel through a shared borrow, so policy
    /// rulings never force a dispatch path onto the exclusive side of
    /// the kernel's structure lock.
    fn decide(&mut self, kernel: &Kernel, pid: Pid, call: &Syscall) -> PolicyDecision {
        use Syscall::*;
        self.pending_mkdir = None;

        // Passwd virtualization: the rewritten call is then checked like
        // any other (the private copy lives in the box home, which the
        // visitor can read).
        if let Some(rewritten) = self.rewrite_passwd(call) {
            PolicyStats::bump(&self.stats.rewrites);
            return match self.decide(kernel, pid, &rewritten) {
                PolicyDecision::Allow => PolicyDecision::Rewrite(rewritten),
                PolicyDecision::Rewrite(_) => PolicyDecision::Rewrite(rewritten),
                deny => deny,
            };
        }

        let wx = Access::W.and(Access::X);
        match call {
            // Process-local calls carry no object names: always allowed.
            // (Pipes are anonymous, process-private objects: creating one
            // names nothing.)
            Getpid | Getppid | Getuid | Getcwd | Umask(_) | Fork | Exit(_) | Wait
            | SigPending | Pipe | GetUserName | Getenv(_) => PolicyDecision::Allow,

            // fd-based calls were authorized at open time.
            Close(_) | Read(..) | Write(..) | Pread(..) | Preadx(..) | Pwrite(..)
            | Lseek(..) | Dup(_) | Fstat(_) => PolicyDecision::Allow,

            // Signals: only to processes carrying the same identity
            // (paper, Section 3).
            Kill(target, _) => match kernel.process(*target) {
                Ok(t) if t.identity.as_ref() == Some(&self.identity) => {
                    PolicyDecision::Allow
                }
                Ok(_) => {
                    PolicyStats::bump(&self.stats.denials);
                    PolicyDecision::Deny(Errno::EPERM)
                }
                Err(e) => PolicyDecision::Deny(e),
            },

            // stat needs only to *reach* the object under Unix rules
            // (traversal is enforced by the nobody-resolution itself).
            Stat(p) | Lstat(p) | Readlink(p) => {
                self.permit(kernel, pid, p, Rights::LIST, Access::NONE, Some(Access::NONE))
            }
            // Listing or entering a directory is an action on that
            // directory itself: its own ACL (the one governing "files in
            // that directory") is consulted, not its parent's.
            Readdir(p) => self.permit_dir_itself(kernel, pid, p, Access::R),
            Chdir(p) => self.permit_dir_itself(kernel, pid, p, Access::X),

            Open(p, flags, _mode) => {
                let mut needed = Rights::NONE;
                let mut unix = 0u8;
                if flags.read {
                    needed |= Rights::READ;
                    unix |= Access::R.0;
                }
                if flags.write || flags.create || flags.trunc {
                    needed |= Rights::WRITE;
                    unix |= Access::W.0;
                }
                let dir_want = flags.create.then_some(wx);
                self.permit(kernel, pid, p, needed, Access(unix), dir_want)
            }

            Truncate(p, _) => self.permit(kernel, pid, p, Rights::WRITE, Access::W, None),

            Unlink(p) => self.permit_either(
                kernel,
                pid,
                p,
                Rights::DELETE,
                Rights::WRITE,
                Access::W,
                Some(wx),
            ),

            // rmdir normally needs d (or w) in the parent — but the
            // owner of a *reserved* directory holds rights only inside
            // it, so full control of the directory itself (d, or w+a)
            // also suffices: you may dissolve what you reserved.
            Rmdir(p) => {
                match self.permit_either(
                    kernel,
                    pid,
                    p,
                    Rights::DELETE,
                    Rights::WRITE,
                    Access::W,
                    Some(wx),
                ) {
                    PolicyDecision::Allow => PolicyDecision::Allow,
                    deny => self.permit_own_removal(kernel, pid, p, deny),
                }
            }

            Mkdir(p, _mode) => self.check_mkdir(kernel, pid, p),

            Symlink(_target, linkp) => self.permit(
                kernel,
                pid,
                linkp,
                Rights::WRITE,
                Access::W,
                Some(wx),
            ),

            Link(old, new) => self.check_link(kernel, pid, old, new),

            Rename(old, new) => {
                match self.permit_either(
                    kernel,
                    pid,
                    old,
                    Rights::DELETE,
                    Rights::WRITE,
                    Access::W,
                    Some(wx),
                ) {
                    PolicyDecision::Allow => {}
                    deny => return deny,
                }
                self.permit(kernel, pid, new, Rights::WRITE, Access::W, Some(wx))
            }

            AccessCheck(p, want) => {
                let mut needed = Rights::NONE;
                if want.0 & Access::R.0 != 0 {
                    needed |= Rights::READ;
                }
                if want.0 & Access::W.0 != 0 {
                    needed |= Rights::WRITE;
                }
                if want.0 & Access::X.0 != 0 {
                    needed |= Rights::EXECUTE;
                }
                self.permit(kernel, pid, p, needed, *want, None)
            }

            Exec(p) => self.permit(
                kernel,
                pid,
                p,
                Rights::READ | Rights::EXECUTE,
                Access::R.and(Access::X),
                None,
            ),

            // Unix modes and ownership are meaningless under ACLs; only
            // an administrator of the directory may touch the bits, and
            // ownership changes are refused outright.
            Chmod(p, _) => self.permit(kernel, pid, p, Rights::ADMIN, Access::W, None),
            Chown(..) => {
                PolicyStats::bump(&self.stats.denials);
                PolicyDecision::Deny(Errno::EPERM)
            }
        }
    }
}

impl SyscallPolicy for IdentityBoxPolicy {
    fn name(&self) -> &str {
        "identity-box"
    }

    fn check(&mut self, kernel: &Kernel, pid: Pid, call: &Syscall) -> PolicyDecision {
        // No eager eviction is needed for an unlink/rename of an ACL
        // file: executing the call bumps the filesystem's change
        // generation, which invalidates every cached verdict and ACL
        // before the dead inode can be recycled.
        let decision = self.decide(kernel, pid, call);
        self.record_audit(call, &decision);
        decision
    }

    fn post(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        call: &Syscall,
        result: &mut SysResult<SysRet>,
    ) {
        // The ACL file is box infrastructure, invisible to the guest: a
        // directory holding nothing else is "empty". When an authorized
        // rmdir fails only because of it, remove it and retry.
        if let (Syscall::Rmdir(path), Err(Errno::ENOTEMPTY)) = (call, &result) {
            if let Ok((_, _, Some(dir))) = self.locate(kernel, pid, path) {
                let vfs = kernel.vfs();
                let only_acl = vfs
                    .readdir(dir, ".", &self.sup_cred)
                    .map(|es| {
                        es.iter()
                            .all(|e| e.name == "." || e.name == ".." || e.name == ACL_FILE_NAME)
                    })
                    .unwrap_or(false);
                if only_acl {
                    // The unlink bumps the change generation, so the
                    // caches drop the directory's ACL on their own.
                    let _ = vfs.unlink(dir, ACL_FILE_NAME, &self.sup_cred);
                    *result = kernel.syscall_shared(pid, call);
                }
            }
        }

        // Stamp the ACL of a directory that was just created.
        if !matches!(call, Syscall::Mkdir(..)) {
            return;
        }
        let Some((path, pending)) = self.pending_mkdir.take() else {
            return;
        };
        if result.is_ok() {
            if let Ok((_, _, Some(new_dir))) = self.locate(kernel, pid, &path) {
                let acl = match pending {
                    PendingMkdir::Reserved(grant) => {
                        Some(Acl::reserved(&self.identity, grant))
                    }
                    PendingMkdir::Inherit(parent) => parent,
                };
                if let Some(acl) = acl {
                    let _ = aclfs::write_acl(kernel.vfs(), new_dir, &acl, &self.sup_cred);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_acl::AclEntry;
    use idbox_kernel::OpenFlags;

    fn setup() -> (Kernel, Pid, IdentityBoxPolicy) {
        let mut k = Kernel::new();
        // Supervising user dthain, uid 1000.
        k.accounts_mut()
            .add(idbox_kernel::Account::new("dthain", 1000, 1000))
            .unwrap();
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        k.vfs_mut().mkdir(root, "/box", 0o755, &Cred::ROOT).unwrap();
        k.vfs_mut().chown(root, "/box", 1000, 1000, &Cred::ROOT).unwrap();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let acl = Acl::from_entries([AclEntry::new(fred.as_str(), Rights::FULL)]);
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        // Private passwd copy.
        k.vfs_mut()
            .write_file(root, "/box/.passwd", b"fred:x:1000:1000:::\n", &sup)
            .unwrap();
        let pid = k.spawn(sup, "/box", "guest").unwrap();
        k.set_identity(pid, fred.clone()).unwrap();
        let policy = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", false);
        (k, pid, policy)
    }

    fn open_r(p: &str) -> Syscall {
        Syscall::Open(p.into(), OpenFlags::rdonly(), 0)
    }

    fn open_w(p: &str) -> Syscall {
        Syscall::Open(p.into(), OpenFlags::wronly_create_trunc(), 0o644)
    }

    #[test]
    fn acl_grants_inside_box() {
        let (k, pid, mut pol) = setup();
        assert_eq!(
            pol.check(&k, pid, &open_w("/box/data")),
            PolicyDecision::Allow
        );
        assert_eq!(
            pol.check(&k, pid, &Syscall::Readdir("/box".into())),
            PolicyDecision::Allow
        );
    }

    #[test]
    fn no_acl_means_nobody_rules() {
        let (mut k, pid, mut pol) = setup();
        let root = k.vfs().root();
        // Supervisor-private file outside any ACL.
        k.vfs_mut()
            .write_file(root, "/home/secret", b"s", &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .chmod(root, "/home/secret", 0o600, &Cred::ROOT)
            .unwrap();
        assert_eq!(
            pol.check(&k, pid, &open_r("/home/secret")),
            PolicyDecision::Deny(Errno::EACCES)
        );
        // World-readable file: nobody may read it.
        k.vfs_mut()
            .write_file(root, "/home/public", b"p", &Cred::ROOT)
            .unwrap();
        assert_eq!(
            pol.check(&k, pid, &open_r("/home/public")),
            PolicyDecision::Allow
        );
        // But nobody cannot create anywhere non-world-writable.
        assert_eq!(
            pol.check(&k, pid, &open_w("/home/newfile")),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    /// Check and use must judge the same object: a path that does not
    /// resolve at the check is denied then, so a symlink planted before
    /// the kernel resolves it again cannot reach the supervisor's
    /// private file.
    #[test]
    fn unresolvable_path_is_denied_at_the_check() {
        let (mut k, pid, mut pol) = setup();
        let root = k.vfs().root();
        let dthain = Cred::new(1000, 1000);
        k.vfs().mkdir(root, "/home/dthain", 0o700, &Cred::ROOT).unwrap();
        k.vfs().chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT).unwrap();
        k.vfs()
            .write_file(root, "/home/dthain/secret", b"private", &dthain)
            .unwrap();
        let open = open_r("/box/sub/secret");
        let decision = pol.check(&k, pid, &open);
        assert_eq!(decision, PolicyDecision::Deny(Errno::ENOENT));
        assert_eq!(
            pol.check(&k, pid, &Syscall::Readdir("/box/sub".into())),
            PolicyDecision::Deny(Errno::ENOENT)
        );
        k.vfs().symlink(root, "/home/dthain", "/box/sub", &dthain).unwrap();
        let used = match decision {
            PolicyDecision::Allow => k.syscall(pid, open).map(|_| ()),
            PolicyDecision::Rewrite(call) => k.syscall(pid, call).map(|_| ()),
            PolicyDecision::Deny(e) => Err(e),
        };
        assert_eq!(used, Err(Errno::ENOENT), "the planted link was followed");
        // Through the link, the same open is judged, and denied.
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/sub/secret")),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn wrong_identity_denied_by_acl() {
        let (k, pid, _) = setup();
        let george = Identity::new("globus:/O=UnivNowhere/CN=George");
        let sup = Cred::new(1000, 1000);
        let mut pol = IdentityBoxPolicy::new(george, sup, "/box/.passwd", false);
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/anything")),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn passwd_is_rewritten() {
        let (k, pid, mut pol) = setup();
        match pol.check(&k, pid, &open_r("/etc/passwd")) {
            PolicyDecision::Rewrite(Syscall::Open(p, ..)) => {
                assert_eq!(p, "/box/.passwd");
            }
            other => panic!("unexpected {other:?}"),
        }
        match pol.check(&k, pid, &Syscall::Stat("/etc/passwd".into())) {
            PolicyDecision::Rewrite(Syscall::Stat(p)) => assert_eq!(p, "/box/.passwd"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mkdir_with_write_inherits_parent_acl() {
        let (mut k, pid, mut pol) = setup();
        assert_eq!(
            pol.check(&k, pid, &Syscall::Mkdir("/box/sub".into(), 0o755)),
            PolicyDecision::Allow
        );
        let mut result = k.syscall(pid, Syscall::Mkdir("/box/sub".into(), 0o755));
        pol.post(&k, pid, &Syscall::Mkdir("/box/sub".into(), 0o755), &mut result);
        result.unwrap();
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let sub = k.vfs().resolve(root, "/box/sub", true, &sup).unwrap();
        let acl = aclfs::read_acl(k.vfs_mut(), sub, &sup).unwrap().unwrap();
        assert!(acl.allows(
            &Identity::new("globus:/O=UnivNowhere/CN=Fred"),
            Rights::FULL
        ));
    }

    #[test]
    fn reserve_right_amplifies() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        // Root dir of the box grants Fred only v(rwlax).
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let mut acl = Acl::empty();
        acl.set_reserve("globus:/O=UnivNowhere/*", Rights::NONE, Rights::RWLAX);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred.clone(), sup, "/box/.passwd", false);
        // Plain create denied (no w).
        assert_eq!(
            pol.check(&k, pid, &open_w("/box/file")),
            PolicyDecision::Deny(Errno::EACCES)
        );
        // mkdir allowed through the reserve right...
        let call = Syscall::Mkdir("/box/work".into(), 0o755);
        assert_eq!(pol.check(&k, pid, &call), PolicyDecision::Allow);
        let mut result = k.syscall(pid, call.clone());
        pol.post(&k, pid, &call, &mut result);
        result.unwrap();
        // ... and the fresh ACL names Fred literally with the grant.
        let work = k.vfs().resolve(root, "/box/work", true, &sup).unwrap();
        let work_acl = aclfs::read_acl(k.vfs_mut(), work, &sup).unwrap().unwrap();
        assert!(work_acl.allows(&fred, Rights::RWLAX));
        assert_eq!(work_acl.entries().len(), 1);
        assert!(!work_acl.entries()[0].subject.is_wildcard());
        // George gets nothing in /box/work.
        let george = Identity::new("globus:/O=UnivNowhere/CN=George");
        assert_eq!(work_acl.rights_for(&george), Rights::NONE);
    }

    #[test]
    fn reserved_directory_owner_can_dissolve_it() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        // Fred holds only the reserve right in /box.
        let mut acl = Acl::empty();
        acl.set_reserve("globus:/O=UnivNowhere/*", Rights::NONE, Rights::RWLAX);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred.clone(), sup, "/box/.passwd", false);
        // Reserve /box/work.
        let mk = Syscall::Mkdir("/box/work".into(), 0o755);
        assert_eq!(pol.check(&k, pid, &mk), PolicyDecision::Allow);
        let mut result = k.syscall(pid, mk.clone());
        pol.post(&k, pid, &mk, &mut result);
        result.unwrap();
        // With only v in the parent, rmdir is still allowed: Fred holds
        // full control (w+a) of the reserved directory itself.
        assert_eq!(
            pol.check(&k, pid, &Syscall::Rmdir("/box/work".into())),
            PolicyDecision::Allow
        );
        // George, with no rights anywhere, may not.
        let george = Identity::new("globus:/O=Elsewhere/CN=George");
        let mut gpol = IdentityBoxPolicy::new(george, sup, "/box/.passwd", false);
        assert_eq!(
            gpol.check(&k, pid, &Syscall::Rmdir("/box/work".into())),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn acl_file_needs_admin_to_modify() {
        let (mut k, pid, mut pol) = setup();
        // Fred holds FULL (includes ADMIN): may rewrite the ACL.
        assert_eq!(
            pol.check(&k, pid, &open_w("/box/.__acl")),
            PolicyDecision::Allow
        );
        // Downgrade Fred to rwlx (no admin).
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let acl = Acl::from_entries([AclEntry::new(
            "globus:/O=UnivNowhere/CN=Fred",
            Rights::READ | Rights::WRITE | Rights::LIST | Rights::EXECUTE,
        )]);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        assert_eq!(
            pol.check(&k, pid, &open_w("/box/.__acl")),
            PolicyDecision::Deny(Errno::EACCES)
        );
        assert_eq!(
            pol.check(&k, pid, &Syscall::Unlink("/box/.__acl".into())),
            PolicyDecision::Deny(Errno::EACCES)
        );
        // Reading it only takes LIST.
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/.__acl")),
            PolicyDecision::Allow
        );
    }

    #[test]
    fn symlink_target_directory_governs() {
        let (mut k, pid, mut pol) = setup();
        let root = k.vfs().root();
        // A link inside the box pointing at a supervisor-private file.
        k.vfs_mut()
            .write_file(root, "/home/secret", b"s", &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .chmod(root, "/home/secret", 0o600, &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .symlink(root, "/home/secret", "/box/innocent", &Cred::ROOT)
            .unwrap();
        // Opening through the box path must check the *target's* home:
        // no ACL there, nobody can't read 0600 — denied, despite Fred
        // having FULL rights in /box.
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/innocent")),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn hard_link_to_unreadable_refused() {
        let (mut k, pid, mut pol) = setup();
        let root = k.vfs().root();
        k.vfs_mut()
            .write_file(root, "/home/secret", b"s", &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .chmod(root, "/home/secret", 0o600, &Cred::ROOT)
            .unwrap();
        assert_eq!(
            pol.check(
                &k,
                pid,
                &Syscall::Link("/home/secret".into(), "/box/steal".into())
            ),
            PolicyDecision::Deny(Errno::EACCES)
        );
        // Linking a file Fred can read is fine.
        assert_eq!(
            pol.check(
                &k,
                pid,
                &Syscall::Link("/box/.passwd".into(), "/box/copy".into())
            ),
            PolicyDecision::Allow
        );
    }

    #[test]
    fn signals_require_same_identity() {
        let (k, pid, mut pol) = setup();
        let sup = Cred::new(1000, 1000);
        // Same identity: allowed.
        let peer = k.spawn(sup, "/box", "peer").unwrap();
        k.set_identity(peer, Identity::new("globus:/O=UnivNowhere/CN=Fred"))
            .unwrap();
        assert_eq!(
            pol.check(
                &k,
                pid,
                &Syscall::Kill(peer, idbox_kernel::Signal::Term)
            ),
            PolicyDecision::Allow
        );
        // Different identity, same Unix uid: denied by the box even
        // though the kernel's uid rule would allow it.
        let other = k.spawn(sup, "/box", "other").unwrap();
        k.set_identity(other, Identity::new("globus:/O=UnivNowhere/CN=George"))
            .unwrap();
        assert_eq!(
            pol.check(
                &k,
                pid,
                &Syscall::Kill(other, idbox_kernel::Signal::Term)
            ),
            PolicyDecision::Deny(Errno::EPERM)
        );
        // Unboxed process (no identity): denied too.
        let unboxed = k.spawn(sup, "/", "plain").unwrap();
        assert_eq!(
            pol.check(
                &k,
                pid,
                &Syscall::Kill(unboxed, idbox_kernel::Signal::Term)
            ),
            PolicyDecision::Deny(Errno::EPERM)
        );
    }

    #[test]
    fn chown_always_denied_chmod_needs_admin() {
        let (k, pid, mut pol) = setup();
        assert_eq!(
            pol.check(&k, pid, &Syscall::Chown("/box/f".into(), 1, 1)),
            PolicyDecision::Deny(Errno::EPERM)
        );
        // Fred has ADMIN in /box.
        assert_eq!(
            pol.check(&k, pid, &Syscall::Chmod("/box/.passwd".into(), 0o600)),
            PolicyDecision::Allow
        );
    }

    #[test]
    fn exec_needs_x_right() {
        let (mut k, pid, mut pol) = setup();
        // Fred has FULL (includes x): allowed.
        assert_eq!(
            pol.check(&k, pid, &Syscall::Exec("/box/sim.exe".into())),
            PolicyDecision::Allow
        );
        // Downgrade to rwl: denied.
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let acl = Acl::from_entries([AclEntry::new(
            "globus:/O=UnivNowhere/CN=Fred",
            Rights::READ | Rights::WRITE | Rights::LIST,
        )]);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        assert_eq!(
            pol.check(&k, pid, &Syscall::Exec("/box/sim.exe".into())),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn stats_count() {
        let (k, pid, mut pol) = setup();
        let stats = pol.stats();
        pol.check(&k, pid, &open_r("/box/x"));
        pol.check(&k, pid, &Syscall::Chown("/x".into(), 0, 0));
        pol.check(&k, pid, &open_r("/etc/passwd"));
        let (checks, denials, rewrites, _) = stats.snapshot();
        assert!(checks >= 2);
        assert_eq!(denials, 1);
        assert_eq!(rewrites, 1);
    }

    #[test]
    fn cached_mode_fails_closed_like_uncached() {
        let (mut k, pid, _) = setup();
        let root = k.vfs().root();
        // A directory the supervisor itself cannot search (group 1000
        // gets no bits) but `nobody` could (world rwx): the supervisor's
        // ACL lookup fails with EACCES, not ENOENT. Falling back to the
        // Unix-as-nobody rule here would *grant* access on a lookup
        // error — both cache modes must deny instead.
        k.vfs_mut()
            .mkdir(root, "/box/odd", 0o707, &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .chown(root, "/box/odd", 0, 1000, &Cred::ROOT)
            .unwrap();
        let sup = Cred::new(1000, 1000);
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        for cache in [false, true] {
            let mut pol =
                IdentityBoxPolicy::new(fred.clone(), sup, "/box/.passwd", cache);
            assert_eq!(
                pol.check(&k, pid, &Syscall::Readdir("/box/odd".into())),
                PolicyDecision::Deny(Errno::EACCES),
                "cache={cache}: non-ENOENT ACL lookup errors must fail closed"
            );
        }
    }

    #[test]
    fn unlinking_acl_file_invalidates_cached_verdict() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", true);
        // Warm both caches with an allow under the FULL-rights ACL.
        assert_eq!(pol.check(&k, pid, &open_r("/box/a")), PolicyDecision::Allow);
        assert_eq!(pol.check(&k, pid, &open_r("/box/a")), PolicyDecision::Allow);
        assert!(pol.stats().verdict_snapshot().0 > 0, "warm check hit the cache");
        // Fred holds ADMIN, so unlinking the ACL file is permitted.
        assert_eq!(
            pol.check(&k, pid, &Syscall::Unlink("/box/.__acl".into())),
            PolicyDecision::Allow
        );
        k.syscall(pid, Syscall::Unlink("/box/.__acl".into())).unwrap();
        // The unlink bumped the change generation: the cached ACL
        // verdict is dead, and /box now rules as Unix-as-nobody — the
        // missing file is no longer readable by grace of a stale FULL.
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/a")),
            PolicyDecision::Deny(Errno::EACCES),
            "stale allow served after the ACL file was unlinked"
        );
        // A fresh ACL naming only someone else must rule immediately,
        // even though its file may recycle the dead ACL's inode.
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let acl = Acl::from_entries([AclEntry::new("someone-else", Rights::FULL)]);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/a")),
            PolicyDecision::Deny(Errno::EACCES),
            "revoked identity allowed through a stale cache entry"
        );
    }

    #[test]
    fn renaming_acl_file_invalidates_cached_verdict() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", true);
        assert_eq!(pol.check(&k, pid, &open_r("/box/a")), PolicyDecision::Allow);
        // Renaming the ACL file away (allowed: Fred holds ADMIN) must
        // not leave the old verdict behind.
        let mv = Syscall::Rename("/box/.__acl".into(), "/box/plain".into());
        assert_eq!(pol.check(&k, pid, &mv), PolicyDecision::Allow);
        k.syscall(pid, mv).unwrap();
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/a")),
            PolicyDecision::Deny(Errno::EACCES),
            "stale allow served after the ACL file was renamed away"
        );
    }

    #[test]
    fn acl_cache_is_bounded() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let acl = Acl::from_entries([AclEntry::new(fred.as_str(), Rights::FULL)]);
        let n = super::ACL_CACHE_CAP + 32;
        for i in 0..n {
            let d = k
                .vfs_mut()
                .mkdir(root, &format!("/box/d{i}"), 0o755, &sup)
                .unwrap();
            aclfs::write_acl(k.vfs_mut(), d, &acl, &sup).unwrap();
        }
        let mut pol = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", true);
        for i in 0..n {
            assert_eq!(
                pol.check(&k, pid, &Syscall::Stat(format!("/box/d{i}/x"))),
                PolicyDecision::Allow
            );
        }
        assert!(
            pol.acl_cache.lock().len() <= super::ACL_CACHE_CAP,
            "ACL content cache must not grow past the cap"
        );
        assert!(
            pol.verdict_cache.lock().len() <= super::ACL_CACHE_CAP,
            "verdict cache must not grow past the cap"
        );
    }

    #[test]
    fn check_rules_every_call_kind_under_a_shared_borrow() {
        let (k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        // Read-only, rewrite, fallback, fd-local, *and* mutating calls:
        // since the kernel sharded, every ruling happens through `&Kernel`.
        let calls = [
            Syscall::Stat("/box/.passwd".into()),
            Syscall::Lstat("/box/nope".into()),
            Syscall::Readdir("/box".into()),
            Syscall::AccessCheck("/box/.passwd".into(), Access::R),
            Syscall::Stat("/etc/passwd".into()), // rewrite path
            Syscall::Stat("/home".into()),       // nobody fallback
            Syscall::Readlink("/box/.passwd".into()),
            Syscall::Read(3, 16),
            Syscall::Getpid,
            Syscall::GetUserName,
            Syscall::Unlink("/box/a".into()),
            Syscall::Mkdir("/box/newdir".into(), 0o755),
            Syscall::Fork,
        ];
        for call in &calls {
            let mut cached =
                IdentityBoxPolicy::new(fred.clone(), sup, "/box/.passwd", true);
            let mut uncached =
                IdentityBoxPolicy::new(fred.clone(), sup, "/box/.passwd", false);
            let a = cached.check(&k, pid, call);
            let b = uncached.check(&k, pid, call);
            assert_eq!(a, b, "cached vs uncached on {call:?}");
            // And the ruling is stable on repeat (warm caches included).
            assert_eq!(cached.check(&k, pid, call), a, "warm repeat on {call:?}");
        }
    }

    #[test]
    fn acl_cache_hits_and_invalidates() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred.clone(), sup, "/box/.passwd", true);
        let stats = pol.stats();
        assert_eq!(pol.check(&k, pid, &open_r("/box/a")), PolicyDecision::Allow);
        assert_eq!(pol.check(&k, pid, &open_r("/box/b")), PolicyDecision::Allow);
        let (_, _, _, hits) = stats.snapshot();
        assert_eq!(hits, 1, "second lookup must hit the cache");
        let (vhits, vmisses) = stats.verdict_snapshot();
        assert_eq!((vhits, vmisses), (1, 1), "one cold verdict, one cached");
        // Rewriting the ACL bumps the change generation, invalidating
        // the cached verdict.
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let acl = Acl::from_entries([AclEntry::new("someone-else", Rights::FULL)]);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/c")),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn audit_ring_records_denials_with_identity_and_errno() {
        let (k, pid, _) = setup();
        let george = Identity::new("globus:/O=UnivNowhere/CN=George");
        let sup = Cred::new(1000, 1000);
        let mut pol = IdentityBoxPolicy::new(george, sup, "/box/.passwd", false);
        let ring = Arc::new(AuditRing::default());
        pol.use_audit(Arc::clone(&ring));
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/secret")),
            PolicyDecision::Deny(Errno::EACCES)
        );
        // A wrong-identity kill denies with EPERM, not EACCES.
        assert_eq!(
            pol.check(&k, pid, &Syscall::Chown("/box/secret".into(), 0, 0)),
            PolicyDecision::Deny(Errno::EPERM)
        );
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].identity, "globus:/O=UnivNowhere/CN=George");
        assert_eq!(snap[0].syscall, "open");
        assert_eq!(snap[0].path.as_deref(), Some("/box/secret"));
        assert_eq!(snap[0].verdict, Verdict::Deny);
        assert_eq!(snap[0].errno, Some(Errno::EACCES));
        assert_eq!(snap[1].verdict, Verdict::Deny);
        assert_eq!(snap[1].errno, Some(Errno::EPERM));
    }

    #[test]
    fn audit_ring_records_allow_and_reserve_amplification() {
        let (mut k, pid, mut pol) = setup();
        let ring = Arc::new(AuditRing::default());
        pol.use_audit(Arc::clone(&ring));
        assert_eq!(pol.check(&k, pid, &open_r("/box/x")), PolicyDecision::Allow);
        // Switch the box ACL to reserve-only: mkdir amplifies.
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let mut acl = Acl::empty();
        acl.set_reserve("globus:/O=UnivNowhere/*", Rights::NONE, Rights::RWLAX);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        assert_eq!(
            pol.check(&k, pid, &Syscall::Mkdir("/box/mine".into(), 0o755)),
            PolicyDecision::Allow
        );
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].verdict, Verdict::Allow);
        assert_eq!(snap[1].syscall, "mkdir");
        assert_eq!(snap[1].verdict, Verdict::ReserveAmplified);
        assert_eq!(snap[1].errno, None);
    }

    #[test]
    fn audit_ring_records_shared_borrow_rulings_too() {
        let (k, pid, _) = setup();
        let george = Identity::new("globus:/O=UnivNowhere/CN=George");
        let sup = Cred::new(1000, 1000);
        let mut pol = IdentityBoxPolicy::new(george, sup, "/box/.passwd", false);
        let ring = Arc::new(AuditRing::default());
        pol.use_audit(Arc::clone(&ring));
        assert_eq!(
            pol.check(&k, pid, &Syscall::Stat("/box/secret".into())),
            PolicyDecision::Deny(Errno::EACCES)
        );
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].syscall, "stat");
        assert_eq!(snap[0].verdict, Verdict::Deny);
        assert_eq!(snap[0].errno, Some(Errno::EACCES));
    }

    #[test]
    fn audit_ring_stays_bounded_under_policy_churn() {
        let (k, pid, mut pol) = setup();
        let ring = Arc::new(AuditRing::new(16));
        pol.use_audit(Arc::clone(&ring));
        for i in 0..200 {
            let _ = pol.check(&k, pid, &open_r(&format!("/box/f{i}")));
        }
        assert_eq!(ring.len(), 16);
        assert_eq!(ring.total_recorded(), 200);
        // The retained window is the newest decisions, in order.
        let snap = ring.snapshot();
        assert_eq!(snap.first().unwrap().seq, 184);
        assert_eq!(snap.last().unwrap().seq, 199);
        assert_eq!(snap.last().unwrap().path.as_deref(), Some("/box/f199"));
    }
}
