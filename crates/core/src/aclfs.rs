//! Reading and writing `.__acl` files, and computing effective rights.

use idbox_acl::{Acl, Rights};
use idbox_types::{Errno, Identity, SysResult, ACL_FILE_NAME, NOBODY};
use idbox_vfs::{Access, Cred, Ino, Vfs};

/// The Unix credential of the `nobody` account used by the fallback.
pub const NOBODY_CRED: Cred = Cred {
    uid: 65534,
    gid: 65534,
};

/// What governs a visitor's access to a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EffectiveRights {
    /// The directory carries an ACL; these are the identity's rights
    /// under it (plus the reserve grant, when held).
    Acl(Rights, Option<Rights>),
    /// No ACL anywhere: Unix permissions apply, evaluated as `nobody`.
    UnixAsNobody,
}

/// Read the ACL of a directory, if present. The supervisor reads with its
/// own credential — it owns the box areas — so visitors' rights never
/// gate the *lookup* of the policy that governs them.
///
/// Only `ENOENT` means "this directory has no ACL"; any other failure
/// (I/O error, loop, lookup refusal) propagates so callers fail closed
/// instead of quietly dropping to Unix-as-nobody semantics.
pub fn read_acl(vfs: &Vfs, dir: Ino, sup: &Cred) -> SysResult<Option<Acl>> {
    Ok(read_acl_file(vfs, dir, sup)?.map(|file| file.acl))
}

/// A directory's ACL with the version of the file it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclFile {
    /// The ACL file's inode.
    pub ino: Ino,
    /// Its mtime when its bytes were read (under the same guard): with
    /// `ino`, it names this version of the bytes.
    pub mtime: u64,
    /// The parsed ACL.
    pub acl: Acl,
}

/// [`read_acl`], also reporting which version of which file was read.
pub fn read_acl_file(vfs: &Vfs, dir: Ino, sup: &Cred) -> SysResult<Option<AclFile>> {
    let ino = match vfs.resolve(dir, ACL_FILE_NAME, false, sup) {
        Ok(ino) => ino,
        Err(Errno::ENOENT) => return Ok(None),
        Err(e) => return Err(e),
    };
    let (bytes, mtime) = vfs.file_data_and_mtime(ino)?;
    let text = String::from_utf8(bytes).map_err(|_| Errno::EIO)?;
    // A malformed ACL file fails closed: treat as empty (deny everyone)
    // rather than falling back to Unix permissions.
    let acl = Acl::parse(&text).unwrap_or_default();
    Ok(Some(AclFile { ino, mtime, acl }))
}

/// Write (create or replace) the ACL of a directory.
pub fn write_acl(vfs: &Vfs, dir: Ino, acl: &Acl, sup: &Cred) -> SysResult<()> {
    vfs.write_file(dir, ACL_FILE_NAME, acl.to_text().as_bytes(), sup)?;
    Ok(())
}

/// Compute what governs `identity`'s access to the directory `dir`.
pub fn effective_rights(
    vfs: &Vfs,
    dir: Ino,
    identity: &Identity,
    sup: &Cred,
) -> SysResult<EffectiveRights> {
    Ok(EffectiveRights::under(read_acl(vfs, dir, sup)?.as_ref(), identity))
}

impl EffectiveRights {
    /// What `acl` (`None`: the directory has none) grants `identity`.
    pub fn under(acl: Option<&Acl>, identity: &Identity) -> EffectiveRights {
        match acl {
            Some(acl) => EffectiveRights::Acl(
                acl.rights_for(identity),
                acl.reserve_grant_for(identity),
            ),
            None => EffectiveRights::UnixAsNobody,
        }
    }

    /// Does this grant permission for an operation needing `needed` ACL
    /// rights (ACL case) / `unix_want` access bits on `unix_target`
    /// (fallback case)?
    pub fn permits(
        &self,
        vfs: &Vfs,
        needed: Rights,
        unix_target: Option<Ino>,
        unix_want: Access,
    ) -> bool {
        match self {
            EffectiveRights::Acl(rights, _) => rights.contains(needed),
            EffectiveRights::UnixAsNobody => match unix_target {
                Some(ino) => vfs.check_access(ino, &nobody_cred(), unix_want).is_ok(),
                None => false,
            },
        }
    }
}

/// The `nobody` credential (looked up here so a future configurable
/// account is a one-line change).
pub fn nobody_cred() -> Cred {
    let _ = NOBODY; // name documented in idbox-types
    NOBODY_CRED
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_acl::AclEntry;

    fn setup() -> (Vfs, Ino) {
        let v = Vfs::new();
        let root = v.root();
        let d = v.mkdir(root, "/box", 0o755, &Cred::ROOT).unwrap();
        (v, d)
    }

    #[test]
    fn missing_acl_is_none() {
        let (v, d) = setup();
        assert_eq!(read_acl(&v, d, &Cred::ROOT).unwrap(), None);
        assert_eq!(
            effective_rights(&v, d, &Identity::new("fred"), &Cred::ROOT).unwrap(),
            EffectiveRights::UnixAsNobody
        );
    }

    #[test]
    fn write_then_read_acl() {
        let (v, d) = setup();
        let acl = Acl::from_entries([AclEntry::new("fred", Rights::RWLAX)]);
        write_acl(&v, d, &acl, &Cred::ROOT).unwrap();
        assert_eq!(read_acl(&v, d, &Cred::ROOT).unwrap(), Some(acl));
    }

    #[test]
    fn effective_rights_reads_entries() {
        let (v, d) = setup();
        let mut acl = Acl::empty();
        acl.set("f*", Rights::READ | Rights::LIST);
        acl.set_reserve("globus:*", Rights::NONE, Rights::RWLAX);
        write_acl(&v, d, &acl, &Cred::ROOT).unwrap();
        match effective_rights(&v, d, &Identity::new("fred"), &Cred::ROOT).unwrap() {
            EffectiveRights::Acl(r, grant) => {
                assert!(r.contains(Rights::READ | Rights::LIST));
                assert_eq!(grant, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match effective_rights(
            &v,
            d,
            &Identity::new("globus:/O=X/CN=Y"),
            &Cred::ROOT,
        )
        .unwrap()
        {
            EffectiveRights::Acl(r, grant) => {
                assert!(r.contains(Rights::RESERVE));
                assert_eq!(grant, Some(Rights::RWLAX));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_acl_fails_closed() {
        let (v, d) = setup();
        v.write_file(d, ACL_FILE_NAME, b"not a valid acl line", &Cred::ROOT)
            .unwrap();
        match effective_rights(&v, d, &Identity::new("fred"), &Cred::ROOT).unwrap() {
            EffectiveRights::Acl(r, grant) => {
                assert!(r.is_empty());
                assert_eq!(grant, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn permits_acl_and_unix_paths() {
        let (v, d) = setup();
        // ACL case.
        let acl = Acl::from_entries([AclEntry::new("fred", Rights::READ)]);
        write_acl(&v, d, &acl, &Cred::ROOT).unwrap();
        let er = effective_rights(&v, d, &Identity::new("fred"), &Cred::ROOT).unwrap();
        assert!(er.permits(&v, Rights::READ, None, Access::R));
        assert!(!er.permits(&v, Rights::WRITE, None, Access::W));
        // Unix-as-nobody case: a world-readable file is visible, a
        // supervisor-private one is not.
        let root = v.root();
        let pub_f = v.create(root, "/pub.txt", 0o644, &Cred::ROOT).unwrap();
        let priv_f = v.create(root, "/priv.txt", 0o600, &Cred::ROOT).unwrap();
        let er = EffectiveRights::UnixAsNobody;
        assert!(er.permits(&v, Rights::READ, Some(pub_f), Access::R));
        assert!(!er.permits(&v, Rights::READ, Some(priv_f), Access::R));
        assert!(!er.permits(&v, Rights::READ, None, Access::R));
    }
}
