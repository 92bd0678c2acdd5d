//! Creating and running identity boxes.

use crate::aclfs;
use crate::audit::AuditRing;
use crate::policy::{IdentityBoxPolicy, PolicyStats};
use idbox_acl::Acl;
use idbox_interpose::{GuestCtx, SharedKernel, Supervisor, TraceSink};
use idbox_kernel::Pid;
use idbox_types::{CostModel, Identity, SysResult, TrapCostReport};
use idbox_vfs::Cred;
use std::sync::Arc;

/// Configuration of an identity box.
#[derive(Debug, Clone)]
pub struct BoxOptions {
    /// Where visitor home directories are provisioned.
    pub home_root: String,
    /// Cache parsed ACLs (validated by mtime). On by default; the
    /// ablation bench turns it off.
    pub cache_acls: bool,
    /// The cost model for the interposition supervisor.
    pub cost_model: CostModel,
    /// Record every trapped call for forensic review (Section 9's
    /// "recording the objects accessed and the activities taken").
    pub audit: bool,
    /// A (typically server-wide) ring receiving every policy decision —
    /// identity, syscall, path, verdict, errno. Unlike the forensic
    /// trace this is bounded, so it is safe to leave attached forever.
    pub audit_ring: Option<Arc<AuditRing>>,
    /// The current-trace cell of the serving session. When attached,
    /// audit events and dispatch/policy spans carry the trace id of the
    /// RPC being served.
    pub trace: Option<Arc<idbox_obs::TraceCell>>,
    /// A (typically server-wide) per-identity metrics registry. When
    /// attached, this box's supervisors count syscalls, bytes moved,
    /// denials, and reserve amplifications under the boxed identity,
    /// and record dispatch/policy spans into the flight recorder.
    pub metrics: Option<Arc<idbox_obs::IdentityMetrics>>,
}

impl Default for BoxOptions {
    fn default() -> Self {
        BoxOptions {
            home_root: "/home/boxes".to_string(),
            cache_acls: true,
            cost_model: CostModel::calibrated(),
            audit: false,
            audit_ring: None,
            trace: None,
            metrics: None,
        }
    }
}

/// An identity box: a named protection domain created on the fly, with
/// no reference to any account database (paper, Section 3).
///
/// Creating a box provisions a fresh home directory (ACL granting the
/// visitor full control) and a private copy of `/etc/passwd` whose first
/// entry is the visiting identity. [`IdentityBox::supervisor`] then
/// yields an interposed supervisor enforcing the box policy;
/// [`IdentityBox::run`] is the one-call convenience that the
/// `parrot_identity_box` command-line wraps.
pub struct IdentityBox {
    kernel: SharedKernel,
    identity: Identity,
    sup_cred: Cred,
    home: String,
    passwd_copy: String,
    options: BoxOptions,
    stats: Arc<PolicyStats>,
    audit: Option<TraceSink>,
}

impl IdentityBox {
    /// Create a box for `identity`, supervised by the Unix user
    /// `sup_cred`, with default options.
    pub fn create(
        kernel: SharedKernel,
        identity: impl Into<Identity>,
        sup_cred: Cred,
    ) -> SysResult<Self> {
        IdentityBox::with_options(kernel, identity, sup_cred, BoxOptions::default())
    }

    /// Create a box with explicit options.
    pub fn with_options(
        kernel: SharedKernel,
        identity: impl Into<Identity>,
        sup_cred: Cred,
        options: BoxOptions,
    ) -> SysResult<Self> {
        let identity = identity.into();
        let (home, passwd_copy) = {
            let mut k = kernel.lock();
            let root = k.vfs().root();
            // The home root is world-writable system furniture (like
            // /tmp): any unprivileged user may provision boxes under it.
            // Created once, as a side effect of the first box.
            k.vfs_mut()
                .mkdir_all(root, &options.home_root, 0o777, &Cred::ROOT)?;
            // Fresh home directory with an ACL giving the visitor
            // complete access (Figure 2's "mydata" directory).
            let home = format!("{}/{}", options.home_root, identity.home_component());
            let home_ino = match k.vfs_mut().mkdir(root, &home, 0o755, &sup_cred) {
                Ok(ino) => ino,
                // Returning visitor: the home (and its ACL) already exist.
                Err(idbox_types::Errno::EEXIST) => {
                    k.vfs().resolve(root, &home, true, &sup_cred)?
                }
                Err(e) => return Err(e),
            };
            aclfs::write_acl(k.vfs_mut(), home_ino, &Acl::owner(&identity), &sup_cred)?;
            // Private passwd copy: visiting identity first, then the
            // system entries. Neither plays any role in access control.
            let system = k.accounts().passwd_file();
            let passwd = format!(
                "{}:x:{}:{}:identity box visitor:{}:/bin/sh\n{}",
                identity.as_str(),
                sup_cred.uid,
                sup_cred.gid,
                home,
                system
            );
            let passwd_copy = format!("{home}/.passwd");
            k.vfs_mut()
                .write_file(root, &passwd_copy, passwd.as_bytes(), &sup_cred)?;
            (home, passwd_copy)
        };
        let policy = IdentityBoxPolicy::new(
            identity.clone(),
            sup_cred,
            passwd_copy.clone(),
            options.cache_acls,
        );
        let stats = policy.stats();
        let audit = options.audit.then(TraceSink::new);
        Ok(IdentityBox {
            kernel,
            identity,
            sup_cred,
            home,
            passwd_copy,
            options,
            stats,
            audit,
        })
    }

    /// The boxed identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// The visitor's provisioned home directory.
    pub fn home(&self) -> &str {
        &self.home
    }

    /// Path of the private passwd copy.
    pub fn passwd_copy(&self) -> &str {
        &self.passwd_copy
    }

    /// The shared kernel.
    pub fn kernel(&self) -> &SharedKernel {
        &self.kernel
    }

    /// Policy counters (checks / denials / rewrites / cache hits).
    pub fn stats(&self) -> &Arc<PolicyStats> {
        &self.stats
    }

    /// The forensic audit log (present when `BoxOptions::audit` is set).
    /// Records accumulate across every supervisor this box spawns.
    pub fn audit(&self) -> Option<&TraceSink> {
        self.audit.as_ref()
    }

    /// The policy-decision audit ring, when one was attached through
    /// [`BoxOptions::audit_ring`].
    pub fn audit_ring(&self) -> Option<&Arc<AuditRing>> {
        self.options.audit_ring.as_ref()
    }

    /// Build an interposed supervisor enforcing this box.
    pub fn supervisor(&self) -> Supervisor {
        let mut policy = IdentityBoxPolicy::new(
            self.identity.clone(),
            self.sup_cred,
            self.passwd_copy.clone(),
            self.options.cache_acls,
        );
        policy.use_stats(Arc::clone(&self.stats));
        if let Some(ring) = &self.options.audit_ring {
            policy.use_audit(Arc::clone(ring));
        }
        if let Some(cell) = &self.options.trace {
            policy.use_trace(Arc::clone(cell));
        }
        let obs = self.options.metrics.as_ref().map(|registry| {
            let counters = registry.handle(self.identity.as_str());
            policy.use_metrics(Arc::clone(&counters));
            idbox_interpose::ObsHooks {
                identity: Arc::from(self.identity.as_str()),
                counters,
                trace: self
                    .options
                    .trace
                    .clone()
                    .unwrap_or_else(|| Arc::new(idbox_obs::TraceCell::new())),
            }
        });
        let mut sup = Supervisor::interposed(
            Arc::clone(&self.kernel),
            Box::new(policy),
            self.options.cost_model,
        );
        if let Some(sink) = &self.audit {
            sup.attach_trace(sink.clone());
        }
        if let Some(hooks) = obs {
            sup.attach_obs(hooks);
        }
        sup
    }

    /// Spawn a kernel process inside the box: it runs under the
    /// supervising user's uid, starts in the visitor's home, and carries
    /// the visiting identity.
    pub fn spawn_process(&self, comm: &str) -> SysResult<Pid> {
        let k = self.kernel.lock();
        let pid = k.spawn(self.sup_cred, &self.home, comm)?;
        k.set_identity(pid, self.identity.clone())?;
        Ok(pid)
    }

    /// Run a guest program inside the box to completion. Returns the
    /// exit code and the trap-cost report of its supervisor.
    pub fn run(
        &self,
        comm: &str,
        prog: impl FnOnce(&mut GuestCtx<'_>) -> i32,
    ) -> SysResult<(i32, TrapCostReport)> {
        let pid = self.spawn_process(comm)?;
        let mut sup = self.supervisor();
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let code = prog(&mut ctx);
        ctx.exit(code);
        Ok((code, sup.cost_report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::{Kernel, OpenFlags};
    use idbox_types::Errno;

    fn kernel_with_dthain() -> (SharedKernel, Cred) {
        let mut k = Kernel::new();
        k.accounts_mut()
            .add(idbox_kernel::Account::new("dthain", 1000, 1000))
            .unwrap();
        let root = k.vfs().root();
        k.vfs_mut()
            .mkdir(root, "/home/dthain", 0o700, &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT)
            .unwrap();
        (idbox_interpose::share(k), Cred::new(1000, 1000))
    }

    #[test]
    fn create_provisions_home_and_passwd() {
        let (kernel, sup) = kernel_with_dthain();
        let b = IdentityBox::create(kernel.clone(), "Freddy", sup).unwrap();
        assert_eq!(b.home(), "/home/boxes/Freddy");
        let mut k = kernel.lock();
        let root = k.vfs().root();
        let st = k.vfs().stat(root, b.home(), true, &sup).unwrap();
        assert!(st.is_dir());
        let passwd = k.vfs_mut().read_file(root, b.passwd_copy(), &sup).unwrap();
        let text = String::from_utf8(passwd).unwrap();
        assert!(text.starts_with("Freddy:x:1000:1000:"));
        assert!(text.contains("root:x:0:0"));
    }

    #[test]
    fn figure2_transcript_semantics() {
        // dthain creates `secret` in his home; Freddy's box denies it but
        // allows work in Freddy's fresh home.
        let (kernel, sup) = kernel_with_dthain();
        {
            let mut k = kernel.lock();
            let root = k.vfs().root();
            k.vfs_mut()
                .write_file(root, "/home/dthain/secret", b"secret!", &sup)
                .unwrap();
            k.vfs_mut()
                .chmod(root, "/home/dthain/secret", 0o600, &sup)
                .unwrap();
        }
        let b = IdentityBox::create(kernel.clone(), "Freddy", sup).unwrap();
        let (code, report) = b
            .run("tcsh", |ctx| {
                // whoami: the new syscall reports the boxed identity.
                assert_eq!(ctx.get_user_name().unwrap().as_str(), "Freddy");
                // cat ~dthain/secret: permission denied.
                assert_eq!(
                    ctx.open("/home/dthain/secret", OpenFlags::rdonly(), 0),
                    Err(Errno::EACCES)
                );
                // vi mydata in the fresh home: allowed by its ACL.
                ctx.write_file("/home/boxes/Freddy/mydata", b"freddy's data")
                    .unwrap();
                assert_eq!(
                    ctx.read_file("/home/boxes/Freddy/mydata").unwrap(),
                    b"freddy's data"
                );
                0
            })
            .unwrap();
        assert_eq!(code, 0);
        assert!(report.traps > 0, "the box must actually interpose");
    }

    #[test]
    fn whoami_via_private_passwd() {
        let (kernel, sup) = kernel_with_dthain();
        let b = IdentityBox::create(kernel, "Anonymous429", sup).unwrap();
        b.run("whoami", |ctx| {
            let passwd = ctx.read_file("/etc/passwd").unwrap();
            let text = String::from_utf8(passwd).unwrap();
            // The first entry is the visiting identity: whoami-style
            // tools produce sensible output.
            assert!(text.starts_with("Anonymous429:x:"));
            0
        })
        .unwrap();
    }

    #[test]
    fn two_boxes_isolated_from_each_other() {
        let (kernel, sup) = kernel_with_dthain();
        let fred = IdentityBox::create(kernel.clone(), "Fred", sup).unwrap();
        let george = IdentityBox::create(kernel.clone(), "George", sup).unwrap();
        fred.run("sh", |ctx| {
            ctx.write_file("/home/boxes/Fred/private", b"fred's").unwrap();
            0
        })
        .unwrap();
        george
            .run("sh", |ctx| {
                // George cannot read Fred's home (ACL names only Fred).
                assert_eq!(
                    ctx.read_file("/home/boxes/Fred/private"),
                    Err(Errno::EACCES)
                );
                0
            })
            .unwrap();
    }

    #[test]
    fn sharing_via_acl_admin() {
        let (kernel, sup) = kernel_with_dthain();
        let fred = IdentityBox::create(kernel.clone(), "Fred", sup).unwrap();
        let george = IdentityBox::create(kernel.clone(), "George", sup).unwrap();
        // Fred, holding A in his home, extends read+list to George by
        // editing the ACL file through ordinary file I/O.
        fred.run("sh", |ctx| {
            ctx.write_file("/home/boxes/Fred/shared.txt", b"for george")
                .unwrap();
            let acl = ctx.read_file("/home/boxes/Fred/.__acl").unwrap();
            let mut text = String::from_utf8(acl).unwrap();
            text.push_str("George rl\n");
            ctx.write_file("/home/boxes/Fred/.__acl", text.as_bytes())
                .unwrap();
            0
        })
        .unwrap();
        george
            .run("sh", |ctx| {
                assert_eq!(
                    ctx.read_file("/home/boxes/Fred/shared.txt").unwrap(),
                    b"for george"
                );
                // Read+list only: no writing.
                assert_eq!(
                    ctx.write_file("/home/boxes/Fred/intruder", b"x"),
                    Err(Errno::EACCES)
                );
                0
            })
            .unwrap();
    }

    #[test]
    fn return_to_stored_data() {
        // The "allow return" property of Figure 1: a visitor stores data,
        // leaves, and a later session under the same identity finds it.
        let (kernel, sup) = kernel_with_dthain();
        {
            let b = IdentityBox::create(kernel.clone(), "Fred", sup).unwrap();
            b.run("job1", |ctx| {
                ctx.write_file("/home/boxes/Fred/results.dat", b"run 1")
                    .unwrap();
                0
            })
            .unwrap();
        }
        // A brand-new box for the same identity sees the same home.
        let b2 = IdentityBox::create(kernel, "Fred", sup).unwrap();
        b2.run("job2", |ctx| {
            assert_eq!(
                ctx.read_file("/home/boxes/Fred/results.dat").unwrap(),
                b"run 1"
            );
            0
        })
        .unwrap();
    }

    #[test]
    fn identity_inherited_across_fork() {
        let (kernel, sup) = kernel_with_dthain();
        let b = IdentityBox::create(kernel, "Fred", sup).unwrap();
        b.run("parent", |ctx| {
            let child = ctx
                .run_child(|c| {
                    assert_eq!(c.get_user_name().unwrap().as_str(), "Fred");
                    0
                })
                .unwrap();
            let (reaped, code) = ctx.wait().unwrap();
            assert_eq!(reaped, child);
            assert_eq!(code, 0);
            0
        })
        .unwrap();
    }
}
