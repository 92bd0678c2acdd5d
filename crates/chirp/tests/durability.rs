//! End-to-end durability: a Chirp server whose export space survives
//! restarts through the write-ahead log.
//!
//! Three successive server lifetimes share one WAL directory. The
//! first populates the namespace and tightens an ACL; the second must
//! see the data *and* keep enforcing the operator's live ACL (recovery
//! must never fail open), then cuts a snapshot over the wire; the
//! third boots from snapshot + log suffix and must see every lifetime's
//! writes. A volatile control server answers `walsnap` with `ENOSYS`,
//! and a server whose snapshots keep failing retries once per cadence.
//! Under group commit, a clean shutdown makes every acknowledged put
//! durable and releases the log; a restarted server's `/etc/passwd`
//! lists its `chirp` account.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, ServerConfig};
use idbox_types::{AuthMethod, Errno};
use idbox_vfs::Cred;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn gsi_setup() -> (CertificateAuthority, ServerVerifier) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut v = ServerVerifier::new();
    v.accept = vec![AuthMethod::Globus];
    v.cas.trust(ca.clone());
    (ca, v)
}

fn creds(ca: &CertificateAuthority, cn: &str) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(
        ca.issue(format!("/O=UnivNowhere/CN={cn}")),
    )]
}

fn root_acl() -> Acl {
    let mut acl = Acl::empty();
    acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    acl
}

/// A durable config pointed at `dir`, syncing every op (the test kills
/// servers at arbitrary moments, so no group-commit loss window) with
/// auto-snapshots off — the test drives snapshots via the RPC.
fn durable_config(dir: &Path) -> ServerConfig {
    let (_, verifier) = gsi_setup();
    ServerConfig {
        name: "durable".to_string(),
        verifier,
        root_acl: root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        wal_dir: Some(dir.to_path_buf()),
        wal_sync_ops: Some(0),
        wal_snapshot_ops: Some(0),
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("idbox-chirp-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn export_space_survives_restarts_and_acls_stay_closed() {
    let dir = tmpdir("e2e");
    let (ca, _) = gsi_setup();

    // ---- Lifetime 1: populate, then tighten /work's ACL. ----------
    {
        let server = ChirpServer::new(durable_config(&dir)).unwrap();
        let report = server.recovery().expect("durable server has a report");
        assert!(!report.restored, "first boot must start empty");
        let handle = server.spawn().unwrap();
        let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
        fred.mkdir("/work", 0o755).unwrap();
        fred.put("/work/data", b"survives the restart").unwrap();
        // Reserve-created ACL names Fred; add George as read-only,
        // the live ACL state recovery must reproduce exactly.
        let mut acl = fred.getacl("/work").unwrap();
        acl.set("globus:/O=UnivNowhere/CN=George", Rights::READ);
        fred.setacl("/work", &acl).unwrap();
    } // handle drops: server shuts down

    // ---- Lifetime 2: everything is back, nothing leaks. -----------
    {
        let server = ChirpServer::new(durable_config(&dir)).unwrap();
        let report = *server.recovery().unwrap();
        assert!(report.restored, "second boot must replay the log");
        assert!(report.replayed > 0, "mutations came from log records");
        assert!(!report.corrupt_frame, "clean shutdown leaves no corruption");
        let handle = server.spawn().unwrap();

        let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
        assert_eq!(fred.get("/work/data").unwrap(), b"survives the restart");

        // George holds exactly the recovered grant: read, nothing more.
        let mut george = ChirpClient::connect(handle.addr(), &creds(&ca, "George")).unwrap();
        assert_eq!(george.get("/work/data").unwrap(), b"survives the restart");
        assert_eq!(
            george.put("/work/evil", b"nope").unwrap_err(),
            Errno::EACCES,
            "recovered ACL must not fail open"
        );
        // Helen was never granted anything.
        let mut helen = ChirpClient::connect(handle.addr(), &creds(&ca, "Helen")).unwrap();
        assert_eq!(helen.get("/work/data").unwrap_err(), Errno::EACCES);

        // The WAL metrics families are on the wire for admins.
        let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
        let metrics = admin.metrics().unwrap();
        assert!(metrics.contains("idbox_wal_appends_total"));
        assert!(metrics.contains("idbox_wal_fsyncs_total"));
        assert!(!metrics.contains("idbox_wal_replayed_records_total 0\n"));
        // Snapshot over the wire: admin-gated, returns the watermark.
        assert_eq!(fred.walsnap().unwrap_err(), Errno::EACCES);
        let watermark = admin.walsnap().unwrap();
        assert!(watermark > 0, "snapshot watermark covers the replayed ops");
        let metrics = admin.metrics().unwrap();
        assert!(metrics.contains("idbox_wal_snapshots_total 1\n"));

        // Post-snapshot mutations land in the log suffix.
        fred.put("/work/later", b"after the snapshot").unwrap();
    }

    // ---- Lifetime 3: snapshot + suffix boot. ----------------------
    {
        let server = ChirpServer::new(durable_config(&dir)).unwrap();
        let report = *server.recovery().unwrap();
        assert!(report.restored);
        assert!(report.snapshot_loaded, "third boot starts from the snapshot");
        let handle = server.spawn().unwrap();
        let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
        assert_eq!(fred.get("/work/data").unwrap(), b"survives the restart");
        assert_eq!(fred.get("/work/later").unwrap(), b"after the snapshot");
        let mut helen = ChirpClient::connect(handle.addr(), &creds(&ca, "Helen")).unwrap();
        assert_eq!(helen.get("/work/data").unwrap_err(), Errno::EACCES);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean shutdown under group commit loses no acknowledged put. The
/// flusher's tick is a minute, so only the shutdown's own sync can make
/// the put durable before the reopen. Afterwards nothing holds the log:
/// its flusher keeps only a weak reference, so dropping the server's
/// kernel drops the log, its segment file and its thread.
#[test]
fn group_commit_put_survives_a_clean_shutdown() {
    let dir = tmpdir("groupput");
    let (ca, _) = gsi_setup();
    let config = || ServerConfig {
        wal_sync_ops: None,
        wal_sync_ms: Some(60_000),
        ..durable_config(&dir)
    };
    let handle = ChirpServer::new(config()).unwrap().spawn().unwrap();
    let wal = Arc::downgrade(handle.kernel().read().vfs().wal().unwrap());
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/g", 0o755).unwrap();
    fred.put("/g/data", b"acknowledged under group commit").unwrap();
    drop(fred);
    handle.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while wal.upgrade().is_some() {
        assert!(Instant::now() < deadline, "a shut-down server's log is never dropped");
        std::thread::sleep(Duration::from_millis(10));
    }
    let handle = ChirpServer::new(config()).unwrap().spawn().unwrap();
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    assert_eq!(fred.get("/g/data").unwrap(), b"acknowledged under group commit");
    drop(fred);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The server's `chirp` account is in `/etc/passwd`, the account
/// database's only durable form, so a restarted server reads it back.
#[test]
fn restarted_server_lists_chirp_in_etc_passwd() {
    let dir = tmpdir("passwd");
    drop(ChirpServer::new(durable_config(&dir)).unwrap());
    let server = ChirpServer::new(durable_config(&dir)).unwrap();
    assert!(server.recovery().unwrap().restored);
    let k = server.kernel().read();
    let v = k.vfs();
    let passwd = String::from_utf8(v.read_file(v.root(), "/etc/passwd", &Cred::ROOT).unwrap())
        .unwrap();
    assert!(passwd.lines().any(|l| l.starts_with("chirp:x:1000:1000:")), "{passwd}");
    assert_eq!(passwd, k.accounts().passwd_file());
    drop(k);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records the server's log has appended (`idbox_wal_appends_total`).
fn wal_appends(admin: &mut ChirpClient) -> u64 {
    let metrics = admin.metrics().unwrap();
    let line = metrics
        .lines()
        .find(|l| l.starts_with("idbox_wal_appends_total "))
        .expect("a durable server exports its append count");
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// A failing auto-snapshot is retried once per cadence, not on every
/// poll tick. A directory squatting on `snapshot.tmp` makes every
/// install fail (`EISDIR`); with cadence N, the first attempt fails at
/// N records, no second attempt happens before N more, and exactly one
/// happens after them. `health` counts each failure.
#[test]
fn failed_auto_snapshot_retries_once_per_cadence() {
    const EVERY: u64 = 56;
    let dir = tmpdir("snapretry");
    std::fs::create_dir_all(dir.join("snapshot.tmp")).unwrap();
    let (ca, _) = gsi_setup();
    let handle = ChirpServer::new(ServerConfig {
        wal_snapshot_ops: Some(EVERY),
        ..durable_config(&dir)
    })
    .unwrap()
    .spawn()
    .unwrap();
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    fred.mkdir("/r", 0o755).unwrap();
    fred.put("/r/a", b"x").unwrap();
    assert!(
        wal_appends(&mut admin) < EVERY,
        "boot and set-up must stay below the cadence"
    );
    // One rename — exactly one record — at a time until the log holds
    // `target` records, so the snapshot thread only ever sees a count
    // the test also saw.
    let mut flip = false;
    let mut log_until = |admin: &mut ChirpClient, target: u64, settle: bool| loop {
        let appended = wal_appends(admin);
        if appended >= target {
            return appended;
        }
        let (from, to) = if flip { ("/r/b", "/r/a") } else { ("/r/a", "/r/b") };
        fred.rename(from, to).unwrap();
        flip = !flip;
        assert_eq!(wal_appends(admin), appended + 1, "a rename logs one record");
        if settle && appended + 1 < target {
            // Give the 20 ms poll a few ticks before the next op.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let failures = admin.health().unwrap().snap_failures;
            assert_eq!(failures, 1, "retried at {} records, before {target}", appended + 1);
        }
    };
    let wait_failures = |admin: &mut ChirpClient, want: u64| {
        for _ in 0..250 {
            if admin.health().unwrap().snap_failures >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        admin.health().unwrap().snap_failures
    };
    let first = log_until(&mut admin, EVERY, false);
    assert_eq!(wait_failures(&mut admin, 1), 1, "the first attempt must fail");
    // The attempt saw `first` records (nothing was logged since).
    log_until(&mut admin, first + EVERY, true);
    assert_eq!(wait_failures(&mut admin, 2), 2, "one retry after {EVERY} more records");
    std::thread::sleep(std::time::Duration::from_millis(200));
    let failures = admin.health().unwrap().snap_failures;
    assert_eq!(failures, 2, "exactly one retry, not one per tick");
    assert!(admin.metrics().unwrap().contains("idbox_wal_snapshots_total 0\n"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The auto-snapshot cadence counts a large write by its bytes, not as
/// one record: a `put` moves its whole payload into one write record,
/// and a cadence in records alone would let a put-heavy log grow
/// without bound between snapshots. With a cadence of N, one put of
/// N × 64 KiB (a handful of records) is due for a snapshot.
#[test]
fn auto_snapshot_cadence_counts_large_writes_by_bytes() {
    const EVERY: u64 = 64;
    let dir = tmpdir("snapbytes");
    let (ca, _) = gsi_setup();
    let handle = ChirpServer::new(ServerConfig {
        wal_snapshot_ops: Some(EVERY),
        ..durable_config(&dir)
    })
    .unwrap()
    .spawn()
    .unwrap();
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let snapshots = |admin: &mut ChirpClient| {
        admin
            .metrics()
            .unwrap()
            .lines()
            .find_map(|l| l.strip_prefix("idbox_wal_snapshots_total "))
            .expect("a durable server exports its snapshot count")
            .parse::<u64>()
            .unwrap()
    };
    fred.mkdir("/r", 0o755).unwrap();
    let big = vec![0x5Au8; EVERY as usize * 64 * 1024];
    fred.put("/r/big", &big).unwrap();
    assert!(wal_appends(&mut admin) < EVERY, "the put must stay below the cadence in records");
    let mut taken = snapshots(&mut admin);
    for _ in 0..250 {
        if taken > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        taken = snapshots(&mut admin);
    }
    assert_eq!(taken, 1, "{} bytes logged in a few records must trigger a snapshot", big.len());
    assert_eq!(fred.get("/r/big").unwrap(), big);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory an older build wrote (an `IDBXSNP1` snapshot) is
/// refused with `EINVAL`, not `EIO`, and left as it was.
#[test]
fn old_format_directory_refuses_the_boot_with_einval() {
    let dir = tmpdir("oldformat");
    std::fs::create_dir_all(&dir).unwrap();
    let mut old = b"IDBXSNP1".to_vec();
    for field in [64u32, 0, 1] {
        old.extend_from_slice(&field.to_le_bytes());
    }
    old.extend_from_slice(&[0; 60]);
    let snap = dir.join("snapshot.bin");
    std::fs::write(&snap, &old).unwrap();
    let refused = ChirpServer::new(durable_config(&dir)).map(|_| ());
    assert_eq!(refused, Err(Errno::EINVAL));
    assert_eq!(std::fs::read(&snap).unwrap(), old, "the boot changed the snapshot");
    let names: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, ["snapshot.bin"], "the boot wrote into the directory");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn volatile_server_reports_walsnap_unsupported() {
    let (ca, verifier) = gsi_setup();
    let handle = ChirpServer::new(ServerConfig {
        name: "volatile".to_string(),
        verifier,
        root_acl: root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    assert_eq!(admin.walsnap().unwrap_err(), Errno::ENOSYS);
    // No WAL: the metrics exposition carries no WAL families.
    assert!(!admin.metrics().unwrap().contains("idbox_wal_"));
}
