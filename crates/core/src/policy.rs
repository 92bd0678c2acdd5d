//! The identity box as a syscall policy.

use crate::aclfs::{self, EffectiveRights};
use crate::audit::{AuditRing, Verdict};
use idbox_acl::{Acl, Rights};
use idbox_interpose::{PolicyDecision, SyscallPolicy};
use idbox_kernel::{JudgedEntry, Kernel, Pid, Syscall, SysRet};
use idbox_types::{Errno, Identity, SysResult, ACL_FILE_NAME};
use idbox_vfs::{Access, Cred, Ino, IntMap, Vfs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on the verdict cache. It is keyed by directory inode,
/// and inodes of removed directories can be recycled, so the map must
/// not grow without limit on a long-lived server; past the cap an
/// arbitrary entry is evicted (dropping a cache entry is always safe —
/// the next check re-reads from the filesystem).
const ACL_CACHE_CAP: usize = 1024;

/// Counters describing the box's policy activity.
#[derive(Debug, Default)]
pub struct PolicyStats {
    /// Path calls checked against ACLs.
    pub checks: AtomicU64,
    /// Calls denied.
    pub denials: AtomicU64,
    /// Calls rewritten (passwd redirection).
    pub rewrites: AtomicU64,
    /// Cache hits (when caching is enabled): a directory's verdict, and
    /// the ACL it was derived from, served without re-reading the file.
    pub cache_hits: AtomicU64,
    /// Effective-rights verdicts served straight from the verdict
    /// cache.
    pub verdict_hits: AtomicU64,
    /// Effective-rights verdicts that had to re-read the directory's
    /// ACL (cold, evicted, or its ACL file changed).
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

/// One directory's ruling for the boxed identity, and the version of
/// the ACL file it was derived from.
#[derive(Debug, Clone)]
struct DirVerdict {
    /// The ACL file read, as `(ino, mtime)`; `None` when the directory
    /// had none.
    file: Option<(Ino, u64)>,
    /// The identity's rights there. The decision for any rights mask is
    /// a pure function of this (`rights.contains(needed)`), so one
    /// cached value answers every `(identity, dir, mask)` question,
    /// while the Unix-as-nobody fallback, which also depends on the
    /// target's mode, keeps running live.
    rights: EffectiveRights,
    /// The parsed ACL, which a new subdirectory inherits.
    acl: Option<Acl>,
}

impl DirVerdict {
    /// The ruling for whichever ACL `dir` holds now.
    fn read(vfs: &Vfs, dir: Ino, identity: &Identity, sup: &Cred) -> SysResult<DirVerdict> {
        let file = aclfs::read_acl_file(vfs, dir, sup)?;
        let acl = file.as_ref().map(|f| &f.acl);
        Ok(DirVerdict {
            rights: EffectiveRights::under(acl, identity),
            file: file.as_ref().map(|f| (f.ino, f.mtime)),
            acl: file.map(|f| f.acl),
        })
    }

    /// Still the ruling for a directory whose ACL file name binds
    /// `binding` now? Exactly while it binds the same inode at the same
    /// mtime: every write and truncate stamps a fresh mtime, and no
    /// tick repeats, so an unchanged `(ino, mtime)` is unchanged bytes.
    /// An unlink, a rename over the name, a new ACL file and a recycled
    /// directory inode each change the binding or the stamp.
    fn is_current(&self, vfs: &Vfs, binding: Option<Ino>) -> bool {
        match (self.file, binding) {
            (None, None) => true,
            (Some((ino, mtime)), Some(now)) => {
                ino == now && vfs.fstat(ino).is_ok_and(|st| st.mtime == mtime)
            }
            _ => false,
        }
    }
}

/// A ruling on one path: the entry judged, or the errno refusing it.
type Ruling<'p> = Result<JudgedEntry<'p>, Errno>;

/// The identity box policy: ACLs first, `nobody` fallback second.
pub struct IdentityBoxPolicy {
    identity: Identity,
    sup_cred: Cred,
    /// Absolute path of the private passwd copy.
    passwd_copy: String,
    cache_acls: bool,
    /// The verdict cache: directory inode → its [`DirVerdict`],
    /// validated on every use against the directory's ACL binding (see
    /// [`DirVerdict::is_current`]), so no ACL change, however it is
    /// made, is served stale, and no change to any other file costs a
    /// re-read. Owned by this policy, which rules one call at a time.
    /// Bounded by [`ACL_CACHE_CAP`].
    verdicts: IntMap<Ino, DirVerdict>,
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
            verdicts: IntMap::default(),
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
    /// (recursive) decision procedure — so one ruling yields exactly
    /// one event (a call judged again because its entry went stale
    /// before the kernel acted is two rulings).
    fn record_audit(&self, call: &Syscall, decision: &PolicyDecision<'_>) {
        let (verdict, errno) = match decision {
            PolicyDecision::Deny(e) => (Verdict::Deny, Some(*e)),
            PolicyDecision::Allow(_) | PolicyDecision::Rewrite(..) => {
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

    /// `f` of directory `dir`'s [`DirVerdict`], through the verdict cache
    /// when enabled. `binding` is what `dir`'s ACL file name binds now,
    /// as the supervisor looks it up.
    ///
    /// Cached and uncached modes must be indistinguishable to the guest:
    /// both derive the verdict from [`aclfs::read_acl_file`], where only
    /// `ENOENT` means "no ACL here" (Unix-as-nobody fallback); any other
    /// failure propagates (and is never cached), and the caller denies —
    /// failing *closed* rather than open. A cached verdict is served only
    /// while [`DirVerdict::is_current`] holds.
    fn with_verdict<R>(
        &mut self,
        vfs: &Vfs,
        dir: Ino,
        binding: Option<Ino>,
        f: impl FnOnce(&DirVerdict) -> R,
    ) -> SysResult<R> {
        if !self.cache_acls {
            return Ok(f(&DirVerdict::read(vfs, dir, &self.identity, &self.sup_cred)?));
        }
        if let Some(v) = self.verdicts.get(&dir).filter(|v| v.is_current(vfs, binding)) {
            PolicyStats::bump(&self.stats.cache_hits);
            PolicyStats::bump(&self.stats.verdict_hits);
            if let Some(counters) = &self.metrics {
                counters.bump_verdict_hit();
            }
            return Ok(f(v));
        }
        PolicyStats::bump(&self.stats.verdict_misses);
        if let Some(counters) = &self.metrics {
            counters.bump_verdict_miss();
        }
        let v = DirVerdict::read(vfs, dir, &self.identity, &self.sup_cred)?;
        let out = f(&v);
        if self.verdicts.len() >= ACL_CACHE_CAP && !self.verdicts.contains_key(&dir) {
            let victim = self.verdicts.keys().next().copied();
            if let Some(victim) = victim {
                self.verdicts.remove(&victim);
            }
        }
        self.verdicts.insert(dir, v);
        Ok(out)
    }

    /// What the directory an entry lies in binds as its ACL file name,
    /// as the supervisor looks it up. A walk made with the supervisor's
    /// own credential searched that directory as the supervisor would,
    /// so its binding is the answer; another caller's walk is looked up
    /// again.
    fn binding_of(&self, vfs: &Vfs, judged: &JudgedEntry<'_>) -> SysResult<Option<Ino>> {
        let entry = judged.entry();
        if judged.cred() == self.sup_cred {
            Ok(entry.acl)
        } else {
            vfs.acl_binding(entry.dir.ino, &self.sup_cred)
        }
    }

    /// The identity's rights in the directory holding `judged`.
    fn rights_at(&mut self, vfs: &Vfs, judged: &JudgedEntry<'_>) -> SysResult<EffectiveRights> {
        let binding = self.binding_of(vfs, judged)?;
        self.with_verdict(vfs, judged.entry().dir.ino, binding, |v| v.rights.clone())
    }

    /// The identity's rights in directory `dir` itself (its own ACL).
    fn rights_in(&mut self, vfs: &Vfs, dir: Ino) -> SysResult<EffectiveRights> {
        let binding = vfs.acl_binding(dir, &self.sup_cred)?;
        self.with_verdict(vfs, dir, binding, |v| v.rights.clone())
    }

    /// The core check: does the boxed identity hold `needed` on the
    /// directory containing `path`? In ACL-less directories, fall back to
    /// a Unix check as `nobody` using `unix_want` against the target (or,
    /// when the target does not exist yet, against the directory itself
    /// with `unix_dir_want`). Allowed, the ruling is the entry judged.
    fn permit<'p>(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &'p str,
        needed: Rights,
        unix_want: Access,
        unix_dir_want: Option<Access>,
    ) -> Ruling<'p> {
        PolicyStats::bump(&self.stats.checks);
        // An unresolvable path is denied with its resolve's errno
        // (ENOENT, ELOOP, ...), the one the kernel would give.
        let judged = kernel.locate(pid, path)?;
        // The ACL file itself is special: reads need LIST, any mutation
        // needs ADMIN (otherwise a visitor with `w` could grant
        // themselves everything).
        let needed = if judged.entry().name == ACL_FILE_NAME
            && needed & (Rights::WRITE | Rights::DELETE) != Rights::NONE
        {
            needed | Rights::ADMIN
        } else {
            needed
        };
        let er = self
            .rights_at(kernel.vfs(), &judged)
            .map_err(|_| Errno::EACCES)?;
        let ok = match &er {
            EffectiveRights::Acl(rights, _) => rights.contains(needed),
            EffectiveRights::UnixAsNobody => {
                self.nobody_allows(kernel, pid, path, &judged, unix_want, unix_dir_want)
            }
        };
        self.allow_if(ok, judged)
    }

    /// `judged` when `ok`; otherwise a counted `EACCES` denial.
    fn allow_if<'p>(&self, ok: bool, judged: JudgedEntry<'p>) -> Ruling<'p> {
        if ok {
            Ok(judged)
        } else {
            PolicyStats::bump(&self.stats.denials);
            Err(Errno::EACCES)
        }
    }

    /// The full `nobody` fallback: resolve the path *as nobody* (so
    /// traversal permissions apply, exactly as they would to a real
    /// `nobody` process) and check the operation's access bits on the
    /// target — or, for creation, on the containing directory. The walk
    /// as nobody must reach what the caller's walk reached (`judged`),
    /// which the kernel will act on; if the namespace changed between
    /// the two walks, or a dangling symlink leads somewhere other than
    /// the directory it lies in, the call is refused.
    fn nobody_allows(
        &self,
        kernel: &Kernel,
        pid: Pid,
        path: &str,
        judged: &JudgedEntry<'_>,
        unix_want: Access,
        unix_dir_want: Option<Access>,
    ) -> bool {
        let Ok(cwd) = kernel.cwd(pid) else {
            return false;
        };
        let vfs = kernel.vfs();
        let nobody = aclfs::nobody_cred();
        let entry = judged.entry();
        match vfs.resolve(cwd, path, true, &nobody) {
            Ok(ino) => {
                entry.target.is_some_and(|t| t.ino == ino)
                    && vfs.check_access(ino, &nobody, unix_want).is_ok()
            }
            Err(Errno::ENOENT) => match unix_dir_want {
                Some(want) => match vfs.resolve_parent(cwd, path, &nobody) {
                    Ok((dir, _)) => {
                        entry.target.is_none()
                            && entry.dir.ino == dir
                            && vfs.check_access(dir, &nobody, want).is_ok()
                    }
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
    fn permit_either<'p>(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &'p str,
        a: Rights,
        b: Rights,
        unix_want: Access,
        unix_dir_want: Option<Access>,
    ) -> Ruling<'p> {
        // Retry under the alternative right (stat counters count this as
        // a second check, which it is).
        self.permit(kernel, pid, path, a, unix_want, unix_dir_want)
            .or_else(|_| self.permit(kernel, pid, path, b, unix_want, unix_dir_want))
    }

    /// The LIST check against a directory's *own* ACL (readdir/chdir).
    /// Falls back to the containing directory when the path does not
    /// name a directory (the kernel will report the real error).
    fn permit_dir_itself<'p>(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        path: &'p str,
        unix_want: Access,
    ) -> Ruling<'p> {
        PolicyStats::bump(&self.stats.checks);
        // Missing or unresolvable: denied with the errno the kernel
        // would give, as in `permit`.
        let judged = kernel.locate(pid, path)?;
        let target = judged.entry().target.ok_or(Errno::ENOENT)?;
        if !self.is_dir(kernel.vfs(), target.ino) {
            return self.permit(kernel, pid, path, Rights::LIST, unix_want, None);
        }
        let er = self
            .rights_in(kernel.vfs(), target.ino)
            .map_err(|_| Errno::EACCES)?;
        let ok = match &er {
            EffectiveRights::Acl(rights, _) => rights.contains(Rights::LIST),
            EffectiveRights::UnixAsNobody => {
                self.nobody_allows(kernel, pid, path, &judged, unix_want, None)
            }
        };
        self.allow_if(ok, judged)
    }

    fn is_dir(&self, vfs: &Vfs, ino: Ino) -> bool {
        vfs.fstat(ino).is_ok_and(|st| st.is_dir())
    }

    /// The reserved-directory self-removal rule: an empty directory may
    /// be removed by an identity holding `d` — or full control (`w`+`a`)
    /// — in the directory's *own* ACL, even without rights in the
    /// parent.
    fn permits_own_removal(&mut self, kernel: &Kernel, pid: Pid, path: &str) -> bool {
        let Ok(Some(target)) = kernel.locate(pid, path).map(|j| j.entry().target) else {
            return false;
        };
        if !self.is_dir(kernel.vfs(), target.ino) {
            return false;
        }
        matches!(
            self.rights_in(kernel.vfs(), target.ino),
            Ok(EffectiveRights::Acl(rights, _))
                if rights.contains(Rights::DELETE)
                    || rights.contains(Rights::WRITE | Rights::ADMIN)
        )
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
    fn check_mkdir<'p>(&mut self, kernel: &Kernel, pid: Pid, path: &'p str) -> Ruling<'p> {
        PolicyStats::bump(&self.stats.checks);
        let judged = kernel.locate(pid, path)?;
        let vfs = kernel.vfs();
        let dir = judged.entry().dir.ino;
        let (er, parent) = self
            .binding_of(vfs, &judged)
            .and_then(|binding| {
                self.with_verdict(vfs, dir, binding, |v| (v.rights.clone(), v.acl.clone()))
            })
            .map_err(|_| Errno::EACCES)?;
        let pending = match er {
            EffectiveRights::Acl(rights, _) if rights.contains(Rights::WRITE) => {
                PendingMkdir::Inherit(parent)
            }
            EffectiveRights::Acl(_, Some(grant)) => PendingMkdir::Reserved(grant),
            EffectiveRights::Acl(_, None) => return self.allow_if(false, judged),
            EffectiveRights::UnixAsNobody => {
                let ok = vfs
                    .check_access(dir, &aclfs::nobody_cred(), Access::W.and(Access::X))
                    .is_ok();
                if !ok {
                    return self.allow_if(false, judged);
                }
                PendingMkdir::Inherit(None)
            }
        };
        self.pending_mkdir = Some((path.to_string(), pending));
        Ok(judged)
    }

    /// Hard links: refused unless the boxed identity can read the target
    /// where it really lives (the Section 6 "indirect paths" rule — no
    /// ACL can be checked through the new name afterwards).
    fn check_link<'p>(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        old: &str,
        new: &'p str,
    ) -> Ruling<'p> {
        self.permit(kernel, pid, old, Rights::READ, Access::R, None)?;
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
    /// the kernel's structure lock. An allowed call whose
    /// [`Syscall::judged_path`] the policy resolved carries the entry it
    /// judged, which the kernel acts on; any other call's entries are
    /// dropped, and the kernel walks its paths itself.
    fn decide<'c>(&mut self, kernel: &Kernel, pid: Pid, call: &'c Syscall) -> PolicyDecision<'c> {
        self.pending_mkdir = None;

        // Passwd virtualization: the rewritten call is then checked like
        // any other (the private copy lives in the box home, which the
        // visitor can read).
        if let Some(rewritten) = self.rewrite_passwd(call) {
            PolicyStats::bump(&self.stats.rewrites);
            let judged = match self.decide(kernel, pid, &rewritten) {
                PolicyDecision::Allow(judged) => judged.map(JudgedEntry::into_owned),
                PolicyDecision::Rewrite(_, judged) => judged,
                PolicyDecision::Deny(e) => return PolicyDecision::Deny(e),
            };
            return PolicyDecision::Rewrite(rewritten, judged);
        }

        match self.rule(kernel, pid, call) {
            Ok(Some(judged)) if call.judged_path().is_some() => {
                PolicyDecision::Allow(Some(judged))
            }
            Ok(_) => PolicyDecision::ALLOW,
            Err(e) => PolicyDecision::Deny(e),
        }
    }

    /// Rule on `call`: allowed (with the entry judged for its last
    /// path, if it names one) or refused with an errno.
    fn rule<'c>(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        call: &'c Syscall,
    ) -> Result<Option<JudgedEntry<'c>>, Errno> {
        use Syscall::*;
        let wx = Access::W.and(Access::X);
        // Deletion: `d`, or full `w`, in the containing directory.
        let deletable = |this: &mut Self, p| {
            this.permit_either(kernel, pid, p, Rights::DELETE, Rights::WRITE, Access::W, Some(wx))
        };
        let judged = match call {
            // Process-local calls carry no object names: always allowed.
            // (Pipes are anonymous, process-private objects: creating one
            // names nothing.)
            Getpid | Getppid | Getuid | Getcwd | Umask(_) | Fork | Exit(_) | Wait
            | SigPending | Pipe | GetUserName | Getenv(_) => return Ok(None),

            // fd-based calls were authorized at open time.
            Close(_) | Read(..) | Write(..) | Pread(..) | Preadx(..) | Pwrite(..)
            | Lseek(..) | Dup(_) | Fstat(_) => return Ok(None),

            // Signals: only to processes carrying the same identity
            // (paper, Section 3).
            Kill(target, _) => {
                let t = kernel.process(*target)?;
                if t.identity.as_ref() == Some(&self.identity) {
                    return Ok(None);
                }
                PolicyStats::bump(&self.stats.denials);
                return Err(Errno::EPERM);
            }

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

            Unlink(p) => deletable(self, p),

            // rmdir normally needs d (or w) in the parent — but the
            // owner of a *reserved* directory holds rights only inside
            // it, so full control of the directory itself (d, or w+a)
            // also suffices: you may dissolve what you reserved.
            Rmdir(p) => {
                match deletable(self, p) {
                    Err(_) if self.permits_own_removal(kernel, pid, p) => return Ok(None),
                    ruling => ruling,
                }
            }

            Mkdir(p, _mode) => self.check_mkdir(kernel, pid, p),

            Symlink(_target, linkp) => {
                self.permit(kernel, pid, linkp, Rights::WRITE, Access::W, Some(wx))
            }

            Link(old, new) => self.check_link(kernel, pid, old, new),

            Rename(old, new) => {
                deletable(self, old)?;
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
                return Err(Errno::EPERM);
            }
        };
        judged.map(Some)
    }
}

impl SyscallPolicy for IdentityBoxPolicy {
    fn name(&self) -> &str {
        "identity-box"
    }

    fn check<'c>(&mut self, kernel: &Kernel, pid: Pid, call: &'c Syscall) -> PolicyDecision<'c> {
        // No eviction is needed for an unlink, rename or rewrite of an
        // ACL file: a cached verdict is served only while the
        // directory's ACL name binds the inode it was read from, at the
        // mtime it was read at.
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
            if let Ok(Some(dir)) = kernel.locate(pid, path).map(|j| j.entry().target) {
                let vfs = kernel.vfs();
                let only_acl = vfs
                    .readdir(dir.ino, ".", &self.sup_cred)
                    .map(|es| {
                        es.iter()
                            .all(|e| e.name == "." || e.name == ".." || e.name == ACL_FILE_NAME)
                    })
                    .unwrap_or(false);
                if only_acl {
                    // The unlink changes the directory's ACL binding, so
                    // no cached verdict for it is served again.
                    let _ = vfs.unlink(dir.ino, ACL_FILE_NAME, &self.sup_cred);
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
            if let Ok(Some(new_dir)) = kernel.locate(pid, &path).map(|j| j.entry().target) {
                let acl = match pending {
                    PendingMkdir::Reserved(grant) => {
                        Some(Acl::reserved(&self.identity, grant))
                    }
                    PendingMkdir::Inherit(parent) => parent,
                };
                if let Some(acl) = acl {
                    let _ = aclfs::write_acl(kernel.vfs(), new_dir.ino, &acl, &self.sup_cred);
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

    fn allowed(decision: PolicyDecision<'_>) -> bool {
        matches!(decision, PolicyDecision::Allow(_))
    }

    /// Run `call` as the supervisor does after `decision`: on the entry
    /// judged, when there is one.
    fn act(k: &Kernel, pid: Pid, call: &Syscall, decision: PolicyDecision<'_>) -> SysResult<SysRet> {
        let fresh = |r: Result<_, _>| r.expect("fresh entry");
        match decision {
            PolicyDecision::Allow(None) => k.syscall_shared(pid, call),
            PolicyDecision::Allow(Some(j)) => fresh(k.syscall_judged(pid, call, &j)),
            PolicyDecision::Rewrite(c, None) => k.syscall_shared(pid, &c),
            PolicyDecision::Rewrite(c, Some(j)) => fresh(k.syscall_judged(pid, &c, &j)),
            PolicyDecision::Deny(e) => Err(e),
        }
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
        assert!(allowed(pol.check(&k, pid, &open_w("/box/data"))));
        assert!(allowed(pol.check(&k, pid, &Syscall::Readdir("/box".into()))));
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
        assert!(allowed(pol.check(&k, pid, &open_r("/home/public"))));
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
        let (k, pid, mut pol) = setup();
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
        let used = act(&k, pid, &open, decision).map(|_| ());
        assert_eq!(used, Err(Errno::ENOENT), "the planted link was followed");
        // Through the link, the same open is judged, and denied.
        assert_eq!(
            pol.check(&k, pid, &open_r("/box/sub/secret")),
            PolicyDecision::Deny(Errno::EACCES)
        );
    }

    /// The `nobody` fallback rules on the object the kernel will act
    /// on: a dangling symlink in a world-writable directory does not let
    /// a visitor create a file in the directory its target names, which
    /// nobody may search but not write.
    #[test]
    fn dangling_symlink_cannot_create_where_nobody_may_not() {
        let (k, pid, mut pol) = setup();
        let root = k.vfs().root();
        let dthain = Cred::new(1000, 1000);
        k.vfs().mkdir(root, "/home/dthain", 0o755, &Cred::ROOT).unwrap();
        k.vfs().chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT).unwrap();
        k.vfs().chmod(root, "/tmp", 0o777, &Cred::ROOT).unwrap();
        k.vfs().symlink(root, "/home/dthain/planted", "/tmp/lnk", &dthain).unwrap();
        let create = open_w("/tmp/lnk");
        assert_eq!(pol.check(&k, pid, &create), PolicyDecision::Deny(Errno::EACCES));
        // Where the link and its target share the directory, nobody's
        // write permission there rules as before.
        k.vfs().symlink(root, "/tmp/planted", "/tmp/near", &dthain).unwrap();
        assert!(allowed(pol.check(&k, pid, &open_w("/tmp/near"))));
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
            PolicyDecision::Rewrite(Syscall::Open(p, ..), Some(_)) => {
                assert_eq!(p, "/box/.passwd");
            }
            other => panic!("unexpected {other:?}"),
        }
        match pol.check(&k, pid, &Syscall::Stat("/etc/passwd".into())) {
            PolicyDecision::Rewrite(Syscall::Stat(p), Some(_)) => assert_eq!(p, "/box/.passwd"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mkdir_with_write_inherits_parent_acl() {
        let (mut k, pid, mut pol) = setup();
        assert!(allowed(pol.check(&k, pid, &Syscall::Mkdir("/box/sub".into(), 0o755))));
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
        assert!(allowed(pol.check(&k, pid, &call)));
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
        assert!(allowed(pol.check(&k, pid, &mk)));
        let mut result = k.syscall(pid, mk.clone());
        pol.post(&k, pid, &mk, &mut result);
        result.unwrap();
        // With only v in the parent, rmdir is still allowed: Fred holds
        // full control (w+a) of the reserved directory itself.
        assert!(allowed(pol.check(&k, pid, &Syscall::Rmdir("/box/work".into()))));
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
        assert!(allowed(pol.check(&k, pid, &open_w("/box/.__acl"))));
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
        assert!(allowed(pol.check(&k, pid, &open_r("/box/.__acl"))));
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
        assert!(allowed(pol.check(
                &k,
                pid,
                &Syscall::Link("/box/.passwd".into(), "/box/copy".into())
            )));
    }

    #[test]
    fn signals_require_same_identity() {
        let (k, pid, mut pol) = setup();
        let sup = Cred::new(1000, 1000);
        // Same identity: allowed.
        let peer = k.spawn(sup, "/box", "peer").unwrap();
        k.set_identity(peer, Identity::new("globus:/O=UnivNowhere/CN=Fred"))
            .unwrap();
        assert!(allowed(pol.check(
                &k,
                pid,
                &Syscall::Kill(peer, idbox_kernel::Signal::Term)
            )));
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
        assert!(allowed(pol.check(&k, pid, &Syscall::Chmod("/box/.passwd".into(), 0o600))));
    }

    #[test]
    fn exec_needs_x_right() {
        let (mut k, pid, mut pol) = setup();
        // Fred has FULL (includes x): allowed.
        assert!(allowed(pol.check(&k, pid, &Syscall::Exec("/box/sim.exe".into()))));
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

    /// A cached policy over `setup()`'s box, its cache warm with
    /// /box's FULL-rights verdict, and a second ACL text naming only
    /// someone else.
    fn warm_cached_policy(k: &Kernel, pid: Pid) -> (IdentityBoxPolicy, Vec<u8>) {
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred, Cred::new(1000, 1000), "/box/.passwd", true);
        assert!(allowed(pol.check(k, pid, &open_r("/box/.passwd"))));
        assert!(allowed(pol.check(k, pid, &open_r("/box/.passwd"))));
        assert_eq!(pol.stats().verdict_snapshot(), (1, 1), "warm");
        let revoked = Acl::from_entries([AclEntry::new("someone-else", Rights::FULL)]);
        (pol, revoked.to_text().into_bytes())
    }

    fn revoked(pol: &mut IdentityBoxPolicy, k: &Kernel, pid: Pid) -> bool {
        pol.check(k, pid, &open_r("/box/.passwd")) == PolicyDecision::Deny(Errno::EACCES)
    }

    /// The verdict cache validates on the ACL file's mtime, not just
    /// its inode number: every in-place change of its bytes (a write, a
    /// truncate, a write through a hard link under another name) is
    /// seen at once.
    #[test]
    fn in_place_acl_rewrites_invalidate_cached_verdict() {
        const SUP: Cred = Cred { uid: 1000, gid: 1000 };
        /// Overwrite the file at `path` in place with `text`, padded
        /// with newlines to the file's length.
        fn overwrite(k: &Kernel, path: &str, text: &[u8]) {
            let ino = k.vfs().resolve(k.vfs().root(), path, false, &SUP).unwrap();
            let mut padded = text.to_vec();
            padded.resize(k.vfs().fstat(ino).unwrap().size as usize, b'\n');
            k.vfs().write_at(ino, 0, &padded).unwrap();
        }
        type Rewrite = dyn Fn(&Kernel, &[u8]);
        let rewrites: [(&str, &Rewrite); 3] = [
            ("write", &|k, text| overwrite(k, "/box/.__acl", text)),
            ("truncate", &|k, _| {
                let acl = k.vfs().resolve(k.vfs().root(), "/box/.__acl", false, &SUP).unwrap();
                k.vfs().truncate(acl, 0).unwrap();
            }),
            ("write through a hard link", &|k, text| {
                k.vfs().link(k.vfs().root(), "/box/.__acl", "/box/alias", &SUP).unwrap();
                overwrite(k, "/box/alias", text);
            }),
        ];
        let stale: Vec<&str> = rewrites
            .iter()
            .filter(|(_, rewrite)| {
                let (k, pid, _) = setup();
                let (mut pol, text) = warm_cached_policy(&k, pid);
                rewrite(&k, &text);
                !revoked(&mut pol, &k, pid)
            })
            .map(|(name, _)| *name)
            .collect();
        assert!(stale.is_empty(), "stale verdicts served after: {stale:?}");
    }

    /// The verdict cache validates on the directory's binding of its
    /// ACL name: renaming another file over it, unlinking it (while
    /// another name keeps the old file alive) and creating one where
    /// there was none each change the ruling at once.
    #[test]
    fn acl_binding_changes_invalidate_cached_verdict() {
        let sup = Cred::new(1000, 1000);
        let mut stale = Vec::new();

        let (k, pid, _) = setup();
        let root = k.vfs().root();
        let (mut pol, text) = warm_cached_policy(&k, pid);
        k.vfs().link(root, "/box/.__acl", "/box/kept", &sup).unwrap();
        k.vfs().write_file(root, "/box/next", &text, &sup).unwrap();
        k.vfs().rename(root, "/box/next", "/box/.__acl", &sup).unwrap();
        if !revoked(&mut pol, &k, pid) {
            stale.push("rename over the ACL");
        }

        let (k, pid, _) = setup();
        let (mut pol, _) = warm_cached_policy(&k, pid);
        k.vfs().link(root, "/box/.__acl", "/box/kept", &sup).unwrap();
        k.vfs().unlink(root, "/box/.__acl", &sup).unwrap();
        // Without an ACL, nobody rules; a file nobody may not read
        // shows whether the fallback or a stale FULL verdict ruled.
        k.vfs().chmod(root, "/box/.passwd", 0o600, &sup).unwrap();
        if !revoked(&mut pol, &k, pid) {
            stale.push("unlink of the ACL");
        }

        // A directory without an ACL rules as nobody until one appears.
        let (k, pid, _) = setup();
        k.vfs().mkdir(root, "/box/open", 0o755, &sup).unwrap();
        k.vfs().write_file(root, "/box/open/f", b"f", &sup).unwrap();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", true);
        let read_f = open_r("/box/open/f");
        assert!(allowed(pol.check(&k, pid, &read_f)), "nobody may read a 0644 file");
        let none = Acl::from_entries([AclEntry::new("someone-else", Rights::FULL)]);
        let dir = k.vfs().resolve(root, "/box/open", true, &sup).unwrap();
        aclfs::write_acl(k.vfs(), dir, &none, &sup).unwrap();
        if pol.check(&k, pid, &read_f) != PolicyDecision::Deny(Errno::EACCES) {
            stale.push("a new ACL");
        }
        assert!(stale.is_empty(), "stale verdicts served after: {stale:?}");
    }

    /// A verdict is never served for a directory inode recycled after
    /// an rmdir: the new directory's ACL binding is its own.
    #[test]
    fn recycled_directory_inode_gets_no_stale_verdict() {
        let sup = Cred::new(1000, 1000);
        let (k, pid, _) = setup();
        let root = k.vfs().root();
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let acl = Acl::from_entries([AclEntry::new(fred.as_str(), Rights::FULL)]);
        let d = k.vfs().mkdir(root, "/box/d", 0o700, &sup).unwrap();
        aclfs::write_acl(k.vfs(), d, &acl, &sup).unwrap();
        let mut pol = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", true);
        assert!(allowed(pol.check(&k, pid, &open_w("/box/d/f"))));
        k.vfs().unlink(root, "/box/d/.__acl", &sup).unwrap();
        k.vfs().rmdir(root, "/box/d", &sup).unwrap();
        let e = k.vfs().mkdir(root, "/box/e", 0o700, &sup).unwrap();
        assert_eq!(d, e, "the directory inode must be recycled for this test to bite");
        assert_eq!(
            pol.check(&k, pid, &open_w("/box/e/f")),
            PolicyDecision::Deny(Errno::EACCES),
            "a dead directory's verdict was served for its recycled inode"
        );
    }

    #[test]
    fn unlinking_acl_file_invalidates_cached_verdict() {
        let (mut k, pid, _) = setup();
        let sup = Cred::new(1000, 1000);
        let fred = Identity::new("globus:/O=UnivNowhere/CN=Fred");
        let mut pol = IdentityBoxPolicy::new(fred, sup, "/box/.passwd", true);
        // Warm both caches with an allow under the FULL-rights ACL.
        assert!(allowed(pol.check(&k, pid, &open_r("/box/a"))));
        assert!(allowed(pol.check(&k, pid, &open_r("/box/a"))));
        assert!(pol.stats().verdict_snapshot().0 > 0, "warm check hit the cache");
        // Fred holds ADMIN, so unlinking the ACL file is permitted.
        assert!(allowed(pol.check(&k, pid, &Syscall::Unlink("/box/.__acl".into()))));
        k.syscall(pid, Syscall::Unlink("/box/.__acl".into())).unwrap();
        // The unlink changed the directory's ACL binding: the cached
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
        assert!(allowed(pol.check(&k, pid, &open_r("/box/a"))));
        // Renaming the ACL file away (allowed: Fred holds ADMIN) must
        // not leave the old verdict behind.
        let mv = Syscall::Rename("/box/.__acl".into(), "/box/plain".into());
        assert!(allowed(pol.check(&k, pid, &mv)));
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
            assert!(allowed(pol.check(&k, pid, &Syscall::Stat(format!("/box/d{i}/x")))));
        }
        assert!(
            pol.verdicts.len() <= super::ACL_CACHE_CAP,
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
        assert!(allowed(pol.check(&k, pid, &open_r("/box/a"))));
        assert!(allowed(pol.check(&k, pid, &open_r("/box/b"))));
        let (_, _, _, hits) = stats.snapshot();
        assert_eq!(hits, 1, "second lookup must hit the cache");
        let (vhits, vmisses) = stats.verdict_snapshot();
        assert_eq!((vhits, vmisses), (1, 1), "one cold verdict, one cached");
        // Rewriting the ACL stamps a fresh mtime on its file,
        // invalidating the cached verdict.
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
        assert!(allowed(pol.check(&k, pid, &open_r("/box/x"))));
        // Switch the box ACL to reserve-only: mkdir amplifies.
        let sup = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let dir = k.vfs().resolve(root, "/box", true, &sup).unwrap();
        let mut acl = Acl::empty();
        acl.set_reserve("globus:/O=UnivNowhere/*", Rights::NONE, Rights::RWLAX);
        aclfs::write_acl(k.vfs_mut(), dir, &acl, &sup).unwrap();
        assert!(allowed(pol.check(&k, pid, &Syscall::Mkdir("/box/mine".into(), 0o755))));
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
