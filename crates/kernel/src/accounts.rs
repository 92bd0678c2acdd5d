//! The local account database (`/etc/passwd`).
//!
//! The identity box renders this database *irrelevant for access control*,
//! but it still exists: the supervising user's account lives here, mapping
//! methods (Figure 1) create accounts here, and the box synthesizes a
//! private copy of the passwd file so `whoami` inside the box reports the
//! visiting identity (paper, Section 3).

use idbox_types::{Errno, SysResult};
use idbox_vfs::{Cred, Vfs};
use std::collections::BTreeMap;
use std::fmt;

/// The account database's file, and the name its next version is
/// written under before it replaces it.
pub(crate) const PASSWD: &str = "/etc/passwd";
const PASSWD_NEW: &str = "/etc/passwd.new";

/// One `/etc/passwd` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Account {
    /// Account name.
    pub name: String,
    /// Numeric user id.
    pub uid: u32,
    /// Primary group id.
    pub gid: u32,
    /// Free-form description (GECOS field).
    pub gecos: String,
    /// Home directory path.
    pub home: String,
    /// Login shell.
    pub shell: String,
}

impl Account {
    /// Build an account with conventional defaults.
    pub fn new(name: impl Into<String>, uid: u32, gid: u32) -> Self {
        let name = name.into();
        Account {
            home: format!("/home/{name}"),
            gecos: String::new(),
            shell: "/bin/sh".to_string(),
            name,
            uid,
            gid,
        }
    }

    /// Render as a passwd line (`name:x:uid:gid:gecos:home:shell`).
    pub fn passwd_line(&self) -> String {
        format!(
            "{}:x:{}:{}:{}:{}:{}",
            self.name, self.uid, self.gid, self.gecos, self.home, self.shell
        )
    }

    /// Parse a passwd line.
    pub fn parse_line(line: &str) -> Option<Account> {
        let mut f = line.split(':');
        let name = f.next()?.to_string();
        let _password = f.next()?;
        let uid = f.next()?.parse().ok()?;
        let gid = f.next()?.parse().ok()?;
        let gecos = f.next()?.to_string();
        let home = f.next()?.to_string();
        let shell = f.next()?.to_string();
        Some(Account {
            name,
            uid,
            gid,
            gecos,
            home,
            shell,
        })
    }
}

impl fmt::Display for Account {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.passwd_line())
    }
}

/// The account database.
///
/// Its one durable form is `/etc/passwd` itself: [`AccountDb::passwd_file`]
/// renders it with a closing `#next_uid N` line, so the uid allocator
/// survives a reboot too, and [`AccountDb::parse_passwd`] reads it back.
/// [`crate::Kernel::accounts_mut`] is the only writer of a kernel's
/// database and of its file.
#[derive(Debug, Clone, Default)]
pub struct AccountDb {
    by_name: BTreeMap<String, Account>,
    next_uid: u32,
}

/// The comment line that carries the uid allocator in `/etc/passwd`.
const NEXT_UID: &str = "#next_uid ";

impl AccountDb {
    /// A database pre-seeded with `root` (uid 0) and `nobody` (uid 65534).
    pub fn with_system_accounts() -> Self {
        let mut db = AccountDb {
            next_uid: 1000,
            ..Default::default()
        };
        let mut root = Account::new("root", 0, 0);
        root.home = "/root".to_string();
        db.insert_raw(root);
        let mut nobody = Account::new("nobody", 65534, 65534);
        nobody.home = "/".to_string();
        nobody.shell = "/sbin/nologin".to_string();
        db.insert_raw(nobody);
        db
    }

    fn insert_raw(&mut self, acct: Account) {
        self.by_name.insert(acct.name.clone(), acct);
    }

    /// Add an account, keeping the uid allocator past every ordinary
    /// uid ever added. Fails when the name or uid is taken.
    pub fn add(&mut self, acct: Account) -> SysResult<()> {
        if self.by_name.contains_key(&acct.name) || self.lookup_uid(acct.uid).is_some() {
            return Err(Errno::EEXIST);
        }
        if acct.uid >= self.next_uid && acct.uid < 60000 {
            self.next_uid = acct.uid + 1;
        }
        self.insert_raw(acct);
        Ok(())
    }

    /// Remove an account by name. Its uid is not issued again.
    pub fn remove(&mut self, name: &str) -> SysResult<Account> {
        self.by_name.remove(name).ok_or(Errno::ENOENT)
    }

    /// Find by name.
    pub fn lookup(&self, name: &str) -> Option<&Account> {
        self.by_name.get(name)
    }

    /// Find by uid.
    pub fn lookup_uid(&self, uid: u32) -> Option<&Account> {
        self.by_name.values().find(|a| a.uid == uid)
    }

    /// Allocate the next free ordinary uid (>= 1000).
    pub fn next_free_uid(&mut self) -> u32 {
        loop {
            let uid = self.next_uid;
            self.next_uid += 1;
            if self.lookup_uid(uid).is_none() {
                return uid;
            }
        }
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// All accounts in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Account> {
        self.by_name.values()
    }

    /// Render the whole database as an `/etc/passwd` file, closed by
    /// the `#next_uid N` line that carries the uid allocator.
    pub fn passwd_file(&self) -> String {
        let mut s = String::new();
        for a in self.by_name.values() {
            s.push_str(&a.passwd_line());
            s.push('\n');
        }
        s.push_str(&format!("{NEXT_UID}{}\n", self.next_uid));
        s
    }

    /// Parse an `/etc/passwd` file into a database. The uid allocator
    /// resumes at the file's `#next_uid` line, and never below an
    /// ordinary uid the file lists.
    pub fn parse_passwd(text: &str) -> Self {
        let mut db = AccountDb {
            next_uid: 1000,
            ..Default::default()
        };
        for line in text.lines() {
            if let Some(uid) = line.strip_prefix(NEXT_UID).and_then(|n| n.parse().ok()) {
                db.next_uid = db.next_uid.max(uid);
            } else if let Some(a) = Account::parse_line(line) {
                if a.uid >= db.next_uid && a.uid < 60000 {
                    db.next_uid = a.uid + 1;
                }
                db.insert_raw(a);
            }
        }
        db
    }
}

/// The one writer of a kernel's accounts, from
/// [`crate::Kernel::accounts_mut`]. Each change edits the in-memory
/// database and rewrites `/etc/passwd` through the vfs, so the file is
/// logged like any other and is the database's only durable form.
pub struct AccountsMut<'k> {
    pub(crate) db: &'k mut AccountDb,
    pub(crate) vfs: &'k Vfs,
}

impl AccountsMut<'_> {
    /// Add an account (see [`AccountDb::add`]) and rewrite the file.
    pub fn add(&mut self, acct: Account) -> SysResult<()> {
        let mut db = self.db.clone();
        db.add(acct)?;
        self.commit(db)
    }

    /// Remove an account by name (see [`AccountDb::remove`]) and
    /// rewrite the file.
    pub fn remove(&mut self, name: &str) -> SysResult<Account> {
        let mut db = self.db.clone();
        let acct = db.remove(name)?;
        self.commit(db)?;
        Ok(acct)
    }

    /// Allocate the next free ordinary uid (see
    /// [`AccountDb::next_free_uid`]). It reaches the file with the
    /// account [`AccountsMut::add`] creates for it.
    pub fn next_free_uid(&mut self) -> u32 {
        self.db.next_free_uid()
    }

    /// Write `db` to `/etc/passwd.new` as root and rename it over
    /// `/etc/passwd`, so a log torn anywhere in between boots the old
    /// file or the new one, never half of one; then adopt `db`.
    fn commit(&mut self, db: AccountDb) -> SysResult<()> {
        let root = self.vfs.root();
        self.vfs
            .write_file(root, PASSWD_NEW, db.passwd_file().as_bytes(), &Cred::ROOT)?;
        self.vfs.rename(root, PASSWD_NEW, PASSWD, &Cred::ROOT)?;
        *self.db = db;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passwd_line_roundtrip() {
        let a = Account::new("dthain", 1000, 1000);
        let line = a.passwd_line();
        assert_eq!(line, "dthain:x:1000:1000::/home/dthain:/bin/sh");
        assert_eq!(Account::parse_line(&line).unwrap(), a);
    }

    #[test]
    fn system_accounts_present() {
        let db = AccountDb::with_system_accounts();
        assert_eq!(db.lookup("root").unwrap().uid, 0);
        assert_eq!(db.lookup("nobody").unwrap().uid, 65534);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn removed_uid_is_not_issued_again_after_a_reparse() {
        let mut db = AccountDb::with_system_accounts();
        db.add(Account::new("fred", 1000, 1000)).unwrap();
        db.add(Account::new("george", 1001, 1001)).unwrap();
        db.remove("george").unwrap();
        assert_eq!(db.remove("george"), Err(Errno::ENOENT));
        let text = db.passwd_file();
        assert!(text.ends_with("#next_uid 1002\n"), "{text}");
        let mut back = AccountDb::parse_passwd(&text);
        assert_eq!(back.passwd_file(), text);
        assert_eq!(back.next_free_uid(), 1002);
    }

    #[test]
    fn duplicate_name_or_uid_rejected() {
        let mut db = AccountDb::with_system_accounts();
        db.add(Account::new("fred", 1000, 1000)).unwrap();
        assert_eq!(db.add(Account::new("fred", 1001, 1001)), Err(Errno::EEXIST));
        assert_eq!(db.add(Account::new("other", 1000, 1000)), Err(Errno::EEXIST));
    }

    #[test]
    fn next_free_uid_skips_taken() {
        let mut db = AccountDb::with_system_accounts();
        let u1 = db.next_free_uid();
        db.add(Account::new("a", u1, u1)).unwrap();
        let u2 = db.next_free_uid();
        assert_ne!(u1, u2);
        assert!(db.lookup_uid(u2).is_none());
    }

    #[test]
    fn passwd_file_parse_roundtrip() {
        let mut db = AccountDb::with_system_accounts();
        db.add(Account::new("fred", 1000, 1000)).unwrap();
        let text = db.passwd_file();
        let db2 = AccountDb::parse_passwd(&text);
        assert_eq!(db2.len(), db.len());
        assert_eq!(db2.lookup("fred").unwrap().uid, 1000);
    }

    #[test]
    fn malformed_lines_skipped() {
        let db = AccountDb::parse_passwd("garbage\nfred:x:1000:1000::/h:/s\n:::\n");
        assert_eq!(db.len(), 1);
    }
}
