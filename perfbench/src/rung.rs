//! The execution ladder: the same guest work under four supervisors,
//! each adding one layer to the one before.
//!
//! * `Direct` — plain kernel calls, no policy.
//! * `InKernel` — the identity-box policy at function-call cost.
//! * `Free` — full interposition (decode, peek/poke, channel, nullified
//!   getpid) with the context switches left uncharged; the Chirp
//!   server's sessions run this way.
//! * `Calibrated` — full interposition plus the constant
//!   `CostModel::calibrated()` switch charge.
//!
//! Differences between neighbouring rungs price one layer each.

use idbox_core::{BoxOptions, IdentityBox, IdentityBoxPolicy};
use idbox_interpose::{SharedKernel, Supervisor};
use idbox_kernel::Pid;
use idbox_types::{CostModel, SysResult};
use idbox_vfs::Cred;
use std::sync::Arc;

/// The supervising Unix user of every box (the Chirp server's `chirp`
/// account has the same ids).
pub const SUP_CRED: Cred = Cred {
    uid: 1000,
    gid: 1000,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Direct,
    InKernel,
    Free,
    Calibrated,
}

impl Rung {
    pub const ALL: [Rung; 4] = [Rung::Direct, Rung::InKernel, Rung::Free, Rung::Calibrated];

    pub fn name(self) -> &'static str {
        match self {
            Rung::Direct => "direct",
            Rung::InKernel => "in_kernel",
            Rung::Free => "interposed_free",
            Rung::Calibrated => "interposed_calibrated",
        }
    }

    fn cost_model(self) -> CostModel {
        match self {
            Rung::Calibrated => CostModel::calibrated(),
            _ => CostModel::free_switches(),
        }
    }
}

/// A box for `identity` on `kernel`, one process inside it, and the
/// rung's supervisor. The box is created on every rung so that every
/// rung works in the same directory with the same ACLs in place.
pub fn boxed(
    kernel: &SharedKernel,
    identity: &str,
    rung: Rung,
    comm: &str,
) -> SysResult<(IdentityBox, Supervisor, Pid)> {
    let b = IdentityBox::with_options(
        Arc::clone(kernel),
        identity,
        SUP_CRED,
        BoxOptions {
            cost_model: rung.cost_model(),
            ..Default::default()
        },
    )?;
    let pid = b.spawn_process(comm)?;
    let sup = match rung {
        Rung::Direct => Supervisor::direct(Arc::clone(kernel)),
        Rung::InKernel => {
            let mut policy =
                IdentityBoxPolicy::new(b.identity().clone(), SUP_CRED, b.passwd_copy(), true);
            policy.use_stats(Arc::clone(b.stats()));
            Supervisor::in_kernel(Arc::clone(kernel), Box::new(policy))
        }
        Rung::Free | Rung::Calibrated => b.supervisor(),
    };
    Ok((b, sup, pid))
}
