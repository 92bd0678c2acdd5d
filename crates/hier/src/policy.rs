//! Hierarchical enforcement as a syscall policy.

use crate::hierid::HierId;
use crate::tree::DomainTree;
use idbox_core::IdentityBoxPolicy;
use idbox_interpose::{PolicyDecision, SyscallPolicy};
use idbox_kernel::{Kernel, Pid, Syscall, SysRet};
use idbox_types::{Errno, SysResult};
use parking_lot::Mutex;
use std::sync::Arc;

/// The identity-box policy generalized to a hierarchical namespace:
/// file access is governed by ACLs exactly as in [`IdentityBoxPolicy`]
/// (the subject is the full hierarchical name, so patterns like
/// `root:dthain:*` work), while **process management follows the
/// tree** — a process may signal processes in its own domain *or any
/// descendant domain*, replacing the flat same-identity rule.
pub struct HierPolicy {
    domain: HierId,
    tree: Arc<Mutex<DomainTree>>,
    inner: IdentityBoxPolicy,
}

impl HierPolicy {
    /// Build a policy for a process tree living in `domain`.
    pub fn new(
        domain: HierId,
        tree: Arc<Mutex<DomainTree>>,
        inner: IdentityBoxPolicy,
    ) -> Self {
        HierPolicy {
            domain,
            tree,
            inner,
        }
    }

    /// The domain this policy enforces.
    pub fn domain(&self) -> &HierId {
        &self.domain
    }
}

impl SyscallPolicy for HierPolicy {
    fn name(&self) -> &str {
        "hierarchical-identity-box"
    }

    fn check<'c>(&mut self, kernel: &Kernel, pid: Pid, call: &'c Syscall) -> PolicyDecision<'c> {
        if let Syscall::Kill(target, _) = call {
            let tree = self.tree.lock();
            return match tree.domain_of(*target) {
                Some(target_dom) if self.domain.is_same_or_ancestor_of(target_dom) => {
                    PolicyDecision::ALLOW
                }
                Some(_) => PolicyDecision::Deny(Errno::EPERM),
                // Unassigned processes are outside every box: opaque.
                None => PolicyDecision::Deny(Errno::EPERM),
            };
        }
        self.inner.check(kernel, pid, call)
    }

    fn post(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        call: &Syscall,
        result: &mut SysResult<SysRet>,
    ) {
        // New children stay in the parent's domain.
        if let (Syscall::Fork, Ok(SysRet::Num(child))) = (call, &result) {
            let _ = self
                .tree
                .lock()
                .assign(Pid(*child as u32), self.domain.clone());
        }
        self.inner.post(kernel, pid, call, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_interpose::{share, GuestCtx, SharedKernel, Supervisor};
    use idbox_kernel::Signal;
    use idbox_types::CostModel;
    use idbox_vfs::Cred;

    /// Two domains under dthain: the visitor and a sibling service.
    fn setup() -> (SharedKernel, Arc<Mutex<DomainTree>>, HierId, HierId, HierId) {
        let kernel = share(idbox_kernel::Kernel::new());
        let tree = Arc::new(Mutex::new(DomainTree::new()));
        let root = HierId::root();
        let dthain = root.child("dthain").unwrap();
        let visitor = dthain.child("visitor").unwrap();
        let service = dthain.child("service").unwrap();
        {
            let mut t = tree.lock();
            t.create(&root, &root, "dthain").unwrap();
            t.create(&dthain, &dthain, "visitor").unwrap();
            t.create(&dthain, &dthain, "service").unwrap();
        }
        (kernel, tree, dthain, visitor, service)
    }

    fn spawn_in(
        kernel: &SharedKernel,
        tree: &Arc<Mutex<DomainTree>>,
        domain: &HierId,
        comm: &str,
    ) -> Pid {
        let k = kernel.lock();
        let pid = k.spawn(Cred::new(1000, 1000), "/tmp", comm).unwrap();
        k.set_identity(pid, domain.to_identity()).unwrap();
        tree.lock().assign(pid, domain.clone()).unwrap();
        pid
    }

    fn policy_for(
        domain: &HierId,
        tree: &Arc<Mutex<DomainTree>>,
    ) -> HierPolicy {
        let inner = IdentityBoxPolicy::new(
            domain.to_identity(),
            Cred::new(1000, 1000),
            "/tmp/.passwd",
            false,
        );
        HierPolicy::new(domain.clone(), Arc::clone(tree), inner)
    }

    #[test]
    fn parent_signals_child_domain_but_not_vice_versa() {
        let (kernel, tree, dthain, visitor, _) = setup();
        let dthain_pid = spawn_in(&kernel, &tree, &dthain, "dthain-shell");
        let visitor_pid = spawn_in(&kernel, &tree, &visitor, "visitor-job");

        let mut parent_pol = policy_for(&dthain, &tree);
        let mut child_pol = policy_for(&visitor, &tree);
        let k = kernel.lock();
        // dthain may signal down into the visitor domain.
        assert_eq!(
            parent_pol.check(&k, dthain_pid, &Syscall::Kill(visitor_pid, Signal::Term)),
            PolicyDecision::ALLOW
        );
        // The visitor may not signal up.
        assert_eq!(
            child_pol.check(&k, visitor_pid, &Syscall::Kill(dthain_pid, Signal::Term)),
            PolicyDecision::Deny(Errno::EPERM)
        );
        // The visitor may signal within its own domain.
        assert_eq!(
            child_pol.check(&k, visitor_pid, &Syscall::Kill(visitor_pid, Signal::Usr1)),
            PolicyDecision::ALLOW
        );
    }

    #[test]
    fn siblings_are_isolated() {
        let (kernel, tree, _, visitor, service) = setup();
        let v_pid = spawn_in(&kernel, &tree, &visitor, "v");
        let s_pid = spawn_in(&kernel, &tree, &service, "s");
        let mut v_pol = policy_for(&visitor, &tree);
        let k = kernel.lock();
        assert_eq!(
            v_pol.check(&k, v_pid, &Syscall::Kill(s_pid, Signal::Term)),
            PolicyDecision::Deny(Errno::EPERM)
        );
    }

    #[test]
    fn fork_keeps_children_in_the_domain() {
        let (kernel, tree, _, visitor, _) = setup();
        let pid = spawn_in(&kernel, &tree, &visitor, "v");
        let mut sup = Supervisor::in_kernel(
            Arc::clone(&kernel),
            Box::new(policy_for(&visitor, &tree)),
        );
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let child = ctx.fork().unwrap();
        assert_eq!(tree.lock().domain_of(child), Some(&visitor));
        // And the child can be signalled by its own domain.
        ctx.kill(child, Signal::Term).unwrap();
    }

    #[test]
    fn in_kernel_mode_enforces_like_interposed() {
        // The Section 9 claim: same semantics, different cost. Run the
        // same denied operation under both modes.
        let (kernel, tree, dthain, visitor, _) = setup();
        let d_pid = spawn_in(&kernel, &tree, &dthain, "d");
        for interposed in [false, true] {
            let v_pid = spawn_in(&kernel, &tree, &visitor, "v");
            let pol = Box::new(policy_for(&visitor, &tree));
            let mut sup = if interposed {
                Supervisor::interposed(Arc::clone(&kernel), pol, CostModel::calibrated())
            } else {
                Supervisor::in_kernel(Arc::clone(&kernel), pol)
            };
            let mut ctx = GuestCtx::new(&mut sup, v_pid);
            assert_eq!(ctx.kill(d_pid, Signal::Term), Err(Errno::EPERM));
            assert_eq!(ctx.kill(v_pid, Signal::Usr1), Ok(()));
        }
    }

    #[test]
    fn file_checks_still_apply() {
        let (kernel, tree, _, visitor, _) = setup();
        let pid = spawn_in(&kernel, &tree, &visitor, "v");
        {
            let mut k = kernel.lock();
            let root = k.vfs().root();
            k.vfs_mut()
                .write_file(root, "/home/private", b"x", &Cred::ROOT)
                .unwrap();
            k.vfs_mut()
                .chmod(root, "/home/private", 0o600, &Cred::ROOT)
                .unwrap();
        }
        let mut sup = Supervisor::in_kernel(
            Arc::clone(&kernel),
            Box::new(policy_for(&visitor, &tree)),
        );
        let mut ctx = GuestCtx::new(&mut sup, pid);
        assert_eq!(ctx.read_file("/home/private"), Err(Errno::EACCES));
    }
}
