//! The seven mapping methods of Figure 1.

mod anonymous;
mod boxmap;
mod group;
mod pool;
mod private;
mod single;
mod untrusted;

pub use anonymous::AnonymousAccounts;
pub use boxmap::IdentityBoxMapper;
pub use group::GroupAccounts;
pub use pool::AccountPool;
pub use private::PrivateAccounts;
pub use single::SingleAccount;
pub use untrusted::UntrustedAccount;

use idbox_interpose::SharedKernel;
use idbox_kernel::Account;
use idbox_types::SysResult;
use idbox_vfs::Cred;

/// Create a local account plus a 0700 home directory owned by it.
/// This is the root-only action whose frequency Figure 1's burden column
/// measures.
pub(crate) fn create_account_with_home(
    kernel: &SharedKernel,
    name: &str,
) -> SysResult<(Cred, String)> {
    let mut k = kernel.lock();
    let uid = k.accounts_mut().next_free_uid();
    let account = Account::new(name, uid, uid);
    let home = account.home.clone();
    k.accounts_mut().add(account)?;
    let root = k.vfs().root();
    k.vfs_mut().mkdir_all(root, &home, 0o700, &Cred::ROOT)?;
    k.vfs_mut().chown(root, &home, uid, uid, &Cred::ROOT)?;
    Ok((Cred::new(uid, uid), home))
}

/// Remove an account and its home directory (recursive), as root.
pub(crate) fn destroy_account_with_home(kernel: &SharedKernel, name: &str) -> SysResult<()> {
    let mut k = kernel.lock();
    let Some(home) = k.accounts().lookup(name).map(|a| a.home.clone()) else {
        return Ok(());
    };
    k.accounts_mut().remove(name)?;
    let root = k.vfs().root();
    remove_tree(&mut k, root, &home)?;
    Ok(())
}

fn remove_tree(
    k: &mut idbox_kernel::Kernel,
    root: idbox_vfs::Ino,
    path: &str,
) -> SysResult<()> {
    use idbox_vfs::FileKind;
    let entries = match k.vfs_mut().readdir(root, path, &Cred::ROOT) {
        Ok(e) => e,
        Err(_) => return Ok(()), // already gone
    };
    for e in entries {
        if e.name == "." || e.name == ".." {
            continue;
        }
        let child = format!("{}/{}", path.trim_end_matches('/'), e.name);
        match e.kind {
            FileKind::Dir => remove_tree(k, root, &child)?,
            _ => {
                let _ = k.vfs_mut().unlink(root, &child, &Cred::ROOT);
            }
        }
    }
    let _ = k.vfs_mut().rmdir(root, path, &Cred::ROOT);
    Ok(())
}
