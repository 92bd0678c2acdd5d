//! Measuring the Figure 1 property matrix.
//!
//! Rather than asserting what each mapping method can do, this harness
//! *runs the scenario* and observes: a resource owner with a private
//! file; three grid users (two from one organization, one from another)
//! who are admitted, store data, attempt to read each other's data,
//! attempt grid-name-based sharing, log out, and return.

use crate::session::{IdentityMapper, MapError, Session};
use idbox_interpose::SharedKernel;
use idbox_kernel::{Account, Kernel};
use idbox_types::{AuthMethod, Principal};
use idbox_vfs::Cred;
use std::fmt;

/// A three-valued property (group accounts have "fixed" policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// The property holds for arbitrary users.
    Yes,
    /// The property does not hold.
    No,
    /// The property holds only along fixed, pre-configured lines.
    Fixed,
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // f.pad keeps table column widths working ({:<9} etc.).
        f.pad(match self {
            Tri::Yes => "yes",
            Tri::No => "no",
            Tri::Fixed => "fixed",
        })
    }
}

impl From<bool> for Tri {
    fn from(b: bool) -> Tri {
        if b {
            Tri::Yes
        } else {
            Tri::No
        }
    }
}

/// The measured row of Figure 1 for one method.
#[derive(Debug, Clone)]
pub struct MethodProperties {
    /// Method name.
    pub method: &'static str,
    /// Must the operator be root?
    pub requires_privilege: bool,
    /// Is the resource owner's private data protected from visitors?
    pub protects_owner: bool,
    /// Can a visitor keep data private from other visitors?
    pub allows_privacy: Tri,
    /// Can a visitor share data with another *grid identity* without an
    /// administrator?
    pub allows_sharing: Tri,
    /// Can a visitor log out and later return to stored data?
    pub allows_return: bool,
    /// Figure 1's burden label.
    pub burden_label: &'static str,
    /// Measured: manual root interventions to admit the 3 scenario users.
    pub interventions: u64,
}

impl MethodProperties {
    /// One formatted table row (used by the Figure 1 harness binary).
    pub fn table_row(&self) -> String {
        format!(
            "{:<14} {:<10} {:<9} {:<9} {:<9} {:<8} {:<10} {:<4}",
            self.method,
            if self.requires_privilege { "root" } else { "-" },
            if self.protects_owner { "yes" } else { "no" },
            self.allows_privacy,
            self.allows_sharing,
            if self.allows_return { "yes" } else { "no" },
            self.burden_label,
            self.interventions,
        )
    }

    /// The table header matching [`MethodProperties::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<14} {:<10} {:<9} {:<9} {:<9} {:<8} {:<10} {:<4}",
            "method", "privilege", "protect", "privacy", "sharing", "return", "burden", "ops"
        )
    }
}

/// Build the scenario kernel: operator `dthain` (uid 1000) with a
/// private file `/home/dthain/secret`.
pub fn scenario_kernel() -> SharedKernel {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new("dthain", 1000, 1000))
        .unwrap();
    let root = k.vfs().root();
    k.vfs_mut()
        .mkdir_all(root, "/home/dthain", 0o755, &Cred::ROOT)
        .unwrap();
    k.vfs_mut()
        .chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT)
        .unwrap();
    let dthain = Cred::new(1000, 1000);
    k.vfs_mut()
        .write_file(root, "/home/dthain/secret", b"owner private", &dthain)
        .unwrap();
    k.vfs_mut()
        .chmod(root, "/home/dthain/secret", 0o600, &dthain)
        .unwrap();
    idbox_interpose::share(k)
}

/// The three scenario principals.
pub fn scenario_principals() -> (Principal, Principal, Principal) {
    (
        Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=Fred"),
        Principal::new(AuthMethod::Globus, "/O=UnivNowhere/CN=George"),
        Principal::new(AuthMethod::Globus, "/O=Elsewhere/CN=Eve"),
    )
}

/// Admit a principal, performing (and counting) administrator work when
/// the method demands it.
fn admit_with_admin(
    m: &mut dyn IdentityMapper,
    kernel: &SharedKernel,
    p: &Principal,
) -> Result<Session, MapError> {
    match m.admit(kernel, p) {
        Ok(s) => Ok(s),
        Err(MapError::NeedsAdministrator) => {
            m.administer(kernel, p)?;
            m.admit(kernel, p)
        }
        Err(e) => Err(e),
    }
}

/// Can this session read the file at `path`?
fn can_read(kernel: &SharedKernel, s: &Session, path: &str) -> bool {
    let path = path.to_string();
    s.run(kernel, "probe", move |ctx| {
        i32::from(ctx.read_file(&path).is_ok())
    })
    .map(|c| c == 1)
    .unwrap_or(false)
}

/// Run the full scenario against one mapping method.
pub fn probe_method(
    kernel: &SharedKernel,
    mapper: &mut dyn IdentityMapper,
) -> Result<MethodProperties, MapError> {
    let (fred, george, eve) = scenario_principals();

    // --- Admit Fred; he stores a file in his session home.
    let s_fred = admit_with_admin(mapper, kernel, &fred)?;
    let fred_file = format!("{}/mydata.txt", s_fred.home);
    {
        let path = fred_file.clone();
        let code = s_fred
            .run(kernel, "store", move |ctx| {
                match ctx.write_file(&path, b"fred's data") {
                    Ok(()) => 0,
                    Err(_) => 1,
                }
            })
            .map_err(MapError::Sys)?;
        if code != 0 {
            return Err(MapError::Sys(idbox_types::Errno::EACCES));
        }
    }

    // --- Protect owner: can Fred read the operator's private file?
    let protects_owner = !can_read(kernel, &s_fred, "/home/dthain/secret");

    // --- Privacy: George (same org) and Eve (other org) try to read.
    let s_george = admit_with_admin(mapper, kernel, &george)?;
    let s_eve = admit_with_admin(mapper, kernel, &eve)?;
    let george_reads = can_read(kernel, &s_george, &fred_file);
    let eve_reads = can_read(kernel, &s_eve, &fred_file);
    let allows_privacy = match (george_reads, eve_reads) {
        (false, false) => Tri::Yes,
        (true, false) => Tri::Fixed, // private across orgs only
        _ => Tri::No,
    };

    // --- Sharing: Fred grants, by grid name, to George and to Eve.
    let share_with_george = george_reads
        || (mapper.grant(kernel, &s_fred, &george, &fred_file).is_ok()
            && can_read(kernel, &s_george, &fred_file));
    let share_with_eve = eve_reads
        || (mapper.grant(kernel, &s_fred, &eve, &fred_file).is_ok()
            && can_read(kernel, &s_eve, &fred_file));
    let allows_sharing = match (share_with_eve, share_with_george) {
        (true, _) => Tri::Yes,
        (false, true) => Tri::Fixed, // only along pre-configured lines
        (false, false) => Tri::No,
    };

    // --- Return: Fred logs out and comes back.
    mapper.release(kernel, s_fred)?;
    let s_fred2 = admit_with_admin(mapper, kernel, &fred)?;
    let allows_return = can_read(kernel, &s_fred2, &fred_file);

    Ok(MethodProperties {
        method: mapper.name(),
        requires_privilege: mapper.requires_privilege(),
        protects_owner,
        allows_privacy,
        allows_sharing,
        allows_return,
        burden_label: mapper.burden_label(),
        interventions: mapper.interventions(),
    })
}

/// Probe every method and return the full Figure 1 matrix.
pub fn probe_all() -> Vec<MethodProperties> {
    use crate::methods::*;
    let mut rows = Vec::new();

    let kernel = scenario_kernel();
    let mut single = SingleAccount::new("dthain");
    rows.push(probe_method(&kernel, &mut single).expect("single"));

    let kernel = scenario_kernel();
    let mut untrusted = UntrustedAccount::new();
    rows.push(probe_method(&kernel, &mut untrusted).expect("untrusted"));

    let kernel = scenario_kernel();
    let mut private = PrivateAccounts::new();
    rows.push(probe_method(&kernel, &mut private).expect("private"));

    let kernel = scenario_kernel();
    let mut group = GroupAccounts::with_groups(
        &kernel,
        &[
            ("globus:/O=UnivNowhere/*", "grid_un"),
            ("globus:/O=Elsewhere/*", "grid_el"),
        ],
    )
    .expect("groups");
    rows.push(probe_method(&kernel, &mut group).expect("group"));

    let kernel = scenario_kernel();
    let mut anon = AnonymousAccounts::new();
    rows.push(probe_method(&kernel, &mut anon).expect("anonymous"));

    let kernel = scenario_kernel();
    let mut pool = AccountPool::with_size(&kernel, 8).expect("pool");
    rows.push(probe_method(&kernel, &mut pool).expect("pool"));

    let kernel = scenario_kernel();
    let mut boxed = IdentityBoxMapper::new(Cred::new(1000, 1000));
    rows.push(probe_method(&kernel, &mut boxed).expect("identity box"));

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measured matrix must reproduce Figure 1 of the paper.
    #[test]
    fn figure1_matrix_reproduced() {
        let rows = probe_all();
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.method == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
        };

        let single = find("single");
        assert!(!single.requires_privilege);
        assert!(!single.protects_owner);
        assert_eq!(single.allows_privacy, Tri::No);
        assert_eq!(single.allows_sharing, Tri::Yes);
        assert!(single.allows_return);

        let untrusted = find("untrusted");
        assert!(untrusted.requires_privilege);
        assert!(untrusted.protects_owner);
        assert_eq!(untrusted.allows_privacy, Tri::No);
        assert_eq!(untrusted.allows_sharing, Tri::Yes);
        assert!(untrusted.allows_return);

        let private = find("private");
        assert!(private.requires_privilege);
        assert!(private.protects_owner);
        assert_eq!(private.allows_privacy, Tri::Yes);
        assert_eq!(private.allows_sharing, Tri::No);
        assert!(private.allows_return);
        assert_eq!(private.interventions, 3, "one admin action per user");

        let group = find("group");
        assert!(group.requires_privilege);
        assert!(group.protects_owner);
        assert_eq!(group.allows_privacy, Tri::Fixed);
        assert_eq!(group.allows_sharing, Tri::Fixed);
        assert!(group.allows_return);
        assert_eq!(group.interventions, 2, "one admin action per group");

        let anon = find("anonymous");
        assert!(anon.requires_privilege);
        assert!(anon.protects_owner);
        assert_eq!(anon.allows_privacy, Tri::Yes);
        assert_eq!(anon.allows_sharing, Tri::No);
        assert!(!anon.allows_return);

        let pool = find("pool");
        assert!(pool.requires_privilege);
        assert!(pool.protects_owner);
        assert_eq!(pool.allows_privacy, Tri::Yes);
        assert_eq!(pool.allows_sharing, Tri::No);
        assert!(!pool.allows_return);

        let idbox = find("identity box");
        assert!(!idbox.requires_privilege);
        assert!(idbox.protects_owner);
        assert_eq!(idbox.allows_privacy, Tri::Yes);
        assert_eq!(idbox.allows_sharing, Tri::Yes);
        assert!(idbox.allows_return);
        assert_eq!(idbox.interventions, 0);
    }

    #[test]
    fn table_rows_format() {
        let rows = probe_all();
        let header = MethodProperties::table_header();
        for r in &rows {
            assert!(r.table_row().split_whitespace().count() >= 7);
        }
        assert!(header.contains("privacy"));
    }
}
