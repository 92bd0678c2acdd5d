//! The local account database (`/etc/passwd`).
//!
//! The identity box renders this database *irrelevant for access control*,
//! but it still exists: the supervising user's account lives here, mapping
//! methods (Figure 1) create accounts here, and the box synthesizes a
//! private copy of the passwd file so `whoami` inside the box reports the
//! visiting identity (paper, Section 3).

use idbox_types::{Errno, SysResult};
use std::collections::BTreeMap;
use std::fmt;

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
/// Mutations that would require root on a real system (`add`, `remove`)
/// are *counted*: the mapping-method evaluation (Figure 1) uses these
/// counters to measure the administrative burden of each scheme.
#[derive(Debug, Clone, Default)]
pub struct AccountDb {
    by_name: BTreeMap<String, Account>,
    next_uid: u32,
    /// Number of account creations (root-only administrative actions).
    pub admin_creations: u64,
    /// Number of account removals (root-only administrative actions).
    pub admin_removals: u64,
}

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

    /// Add an account, counting the administrative action and keeping
    /// the uid allocator past every ordinary uid ever added. Fails when
    /// the name or uid is taken.
    pub fn add(&mut self, acct: Account) -> SysResult<()> {
        if self.by_name.contains_key(&acct.name) || self.lookup_uid(acct.uid).is_some() {
            return Err(Errno::EEXIST);
        }
        self.admin_creations += 1;
        if acct.uid >= self.next_uid && acct.uid < 60000 {
            self.next_uid = acct.uid + 1;
        }
        self.insert_raw(acct);
        Ok(())
    }

    /// Remove an account by name, counting the administrative action.
    pub fn remove(&mut self, name: &str) -> SysResult<Account> {
        let acct = self.by_name.remove(name).ok_or(Errno::ENOENT)?;
        self.admin_removals += 1;
        Ok(acct)
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

    /// Render the whole database as an `/etc/passwd` file.
    pub fn passwd_file(&self) -> String {
        let mut s = String::new();
        for a in self.by_name.values() {
            s.push_str(&a.passwd_line());
            s.push('\n');
        }
        s
    }

    /// Parse an `/etc/passwd` file into a database (no admin actions are
    /// counted; this is bootstrap, not administration).
    pub fn parse_passwd(text: &str) -> Self {
        let mut db = AccountDb::default();
        let mut max_uid = 999;
        for line in text.lines() {
            if let Some(a) = Account::parse_line(line) {
                if a.uid > max_uid && a.uid < 60000 {
                    max_uid = a.uid;
                }
                db.insert_raw(a);
            }
        }
        db.next_uid = max_uid + 1;
        db
    }

    // ------------------------------------------------------------------
    // Durability (WAL snapshot blob + record replay)
    // ------------------------------------------------------------------

    /// Serialize the full database — accounts *and* allocator/counter
    /// state, which `passwd_file` does not carry — for the WAL snapshot.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut s = String::from("idbox-accounts v1\n");
        s.push_str(&format!("next_uid {}\n", self.next_uid));
        s.push_str(&format!("creations {}\n", self.admin_creations));
        s.push_str(&format!("removals {}\n", self.admin_removals));
        s.push_str(&self.passwd_file());
        s.into_bytes()
    }

    /// Rebuild a database from a [`AccountDb::to_blob`] image. `None`
    /// when the header does not parse (a corrupt snapshot).
    pub fn from_blob(blob: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(blob).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "idbox-accounts v1" {
            return None;
        }
        let field = |line: &str, key: &str| -> Option<u64> {
            line.strip_prefix(key)?.trim().parse().ok()
        };
        let next_uid = field(lines.next()?, "next_uid ")? as u32;
        let admin_creations = field(lines.next()?, "creations ")?;
        let admin_removals = field(lines.next()?, "removals ")?;
        let mut db = AccountDb {
            next_uid,
            admin_creations,
            admin_removals,
            ..Default::default()
        };
        for line in lines {
            if let Some(a) = Account::parse_line(line) {
                db.insert_raw(a);
            }
        }
        Some(db)
    }

    /// Redo one logged account creation with the same
    /// [`AccountDb::add`] the live operation ran, so a replayed database
    /// ends exactly where the live one did. Tolerant by design — a
    /// replayed record describes an operation that already succeeded,
    /// so a malformed line or duplicate is skipped, never an error.
    pub fn replay_add(&mut self, line: &str) {
        if let Some(a) = Account::parse_line(line) {
            let _ = self.add(a);
        }
    }

    /// Redo one logged account removal with [`AccountDb::remove`]
    /// (tolerant, like [`AccountDb::replay_add`]).
    pub fn replay_remove(&mut self, name: &str) {
        let _ = self.remove(name);
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
    fn add_counts_admin_burden() {
        let mut db = AccountDb::with_system_accounts();
        db.add(Account::new("fred", 1000, 1000)).unwrap();
        db.add(Account::new("george", 1001, 1001)).unwrap();
        assert_eq!(db.admin_creations, 2);
        db.remove("fred").unwrap();
        assert_eq!(db.admin_removals, 1);
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
