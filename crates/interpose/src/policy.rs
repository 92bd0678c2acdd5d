//! Syscall policies: what the supervisor decides per trapped call.
//!
//! Parrot is a *delegation* architecture (like Ostia): the supervisor
//! implements every call itself, so policy is a pure function from the
//! decoded call to a decision — allow it, rewrite it (e.g. redirect
//! `/etc/passwd` to the box's private copy), or deny it with an errno.
//! Containment is achieved through access control, never by outlawing an
//! interface (Garfinkel's "incorrect subsetting" pitfall), and denial is
//! always a clean error return (his "side effects of denying" pitfall).
//!
//! A policy that resolved a call's [`Syscall::judged_path`] to rule on
//! it returns the entry it judged with its `Allow`; the supervisor hands
//! that entry to [`Kernel::syscall_judged`], which acts on it instead of
//! resolving the path again, so check and use see one resolution (the
//! "race conditions" pitfall). A judged entry gone stale by the time the
//! kernel acts is judged again; it never runs unjudged.
//!
//! Every policy entry point takes the kernel by **shared** borrow: since
//! the kernel became internally sharded, all syscalls — mutating ones
//! included — dispatch through `&Kernel`, and policies rule the same
//! way. A policy that needs to mutate kernel state (e.g. stamping a
//! fresh directory's ACL in [`SyscallPolicy::post`]) goes through the
//! kernel's own interior-locked operations.

use idbox_kernel::{JudgedEntry, Kernel, Pid, Syscall, SysRet};
use idbox_types::{Errno, SysResult};

/// The supervisor's decision about one trapped call, borrowing from the
/// call it rules on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyDecision<'c> {
    /// Execute the call as decoded: on the entry the policy judged for
    /// its [`Syscall::judged_path`] when it resolved one, otherwise by
    /// the kernel's own walk.
    Allow(Option<JudgedEntry<'c>>),
    /// Execute a rewritten call instead (the guest never knows), on the
    /// entry judged for the rewritten call's path, if any.
    Rewrite(Syscall, Option<JudgedEntry<'static>>),
    /// Refuse with this errno; the kernel is not entered.
    Deny(Errno),
}

impl PolicyDecision<'_> {
    /// Allowed, with no judged entry: the kernel walks the path itself.
    pub const ALLOW: PolicyDecision<'static> = PolicyDecision::Allow(None);
}

/// A policy consulted on every trapped system call.
pub trait SyscallPolicy: Send {
    /// Policy name for diagnostics.
    fn name(&self) -> &str;

    /// Decide what to do with `call` before it reaches the kernel.
    fn check<'c>(&mut self, kernel: &Kernel, pid: Pid, call: &'c Syscall) -> PolicyDecision<'c>;

    /// Post-process a result (e.g. initialize the ACL of a directory
    /// created under the reserve right). May replace the result.
    fn post(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        call: &Syscall,
        result: &mut SysResult<SysRet>,
    ) {
        let _ = (kernel, pid, call, result);
    }
}

/// The transparent policy: interposition cost without access control.
/// This is "plain Parrot" — what the paper's Figure 5 baseline-with-agent
/// measurements run.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllowAll;

impl SyscallPolicy for AllowAll {
    fn name(&self) -> &str {
        "allow-all"
    }

    fn check<'c>(&mut self, _: &Kernel, _: Pid, _: &'c Syscall) -> PolicyDecision<'c> {
        PolicyDecision::ALLOW
    }
}

/// A policy denying every path-naming call with `EACCES` (non-path calls
/// pass). Used by tests that verify denial is a clean errno, never a
/// killed process.
#[derive(Debug, Default, Clone, Copy)]
pub struct DenyAll;

impl SyscallPolicy for DenyAll {
    fn name(&self) -> &str {
        "deny-all"
    }

    fn check<'c>(&mut self, _: &Kernel, _: Pid, call: &'c Syscall) -> PolicyDecision<'c> {
        if call.paths().next().is_some() {
            PolicyDecision::Deny(Errno::EACCES)
        } else {
            PolicyDecision::ALLOW
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::OpenFlags;

    #[test]
    fn allow_all_allows() {
        let k = Kernel::new();
        let mut p = AllowAll;
        assert_eq!(p.check(&k, Pid(1), &Syscall::Getpid), PolicyDecision::ALLOW);
        assert_eq!(p.name(), "allow-all");
    }

    #[test]
    fn deny_all_denies_paths_only() {
        let k = Kernel::new();
        let mut p = DenyAll;
        assert_eq!(
            p.check(
                &k,
                Pid(1),
                &Syscall::Open("/etc/passwd".into(), OpenFlags::rdonly(), 0)
            ),
            PolicyDecision::Deny(Errno::EACCES)
        );
        assert_eq!(p.check(&k, Pid(1), &Syscall::Getpid), PolicyDecision::ALLOW);
    }
}
