//! Check and use judge the same object over Chirp. Two clients of one
//! identity run at once on a server with two event loops: one `exec`s a
//! boxed program that swaps `d/sub` between a real directory and a
//! symlink to the supervising user's private directory (by renaming
//! `d` between two directories), the other `get`s `d/sub/secret`. No
//! get may return a byte of the supervisor's file, over a counted
//! minimum of gets that a swap overlapped: a count, not a duration, so
//! the test means the same on any host. The seed (`IDBOX_PROP_SEED`,
//! pinned in `ci.sh`) picks the public file's length and how many swaps
//! each `exec` makes.

use idbox_acl::{Acl, AclEntry, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, ServerConfig};
use idbox_types::{AuthMethod, Errno};
use idbox_vfs::Cred;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const FRED: &str = "globus:/O=UnivNowhere/CN=Fred";
const PRIVATE: &[u8] = b"the supervisor's own secret";
/// Gets that a swap overlapped (a swap completed between the request
/// and its reply) before the race may end.
const MIN_OVERLAPPED: u64 = 100;
/// A ceiling on all gets, so a host that cannot overlap fails the test
/// instead of hanging it.
const MAX_GETS: u64 = 200_000;

fn fred(ca: &CertificateAuthority) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(ca.issue("/O=UnivNowhere/CN=Fred"))]
}

/// A server whose export holds `/race` (Fred's, by ACL) with `d/sub/secret`
/// and `e/sub` → `/home/dthain`, and a `swap` program making
/// `cycles` swaps per run, counted in `swaps`.
fn race_server(
    public: &[u8],
    cycles: u64,
    swaps: &Arc<AtomicU64>,
) -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut server = ChirpServer::new(ServerConfig {
        name: "race".to_string(),
        verifier,
        event_loops: 2,
        ..Default::default()
    })
    .unwrap();
    {
        // The server runs as uid 1000, the owner of the private file.
        let sup = Cred::new(1000, 1000);
        let k = server.kernel().read();
        let (vfs, root) = (k.vfs(), k.vfs().root());
        vfs.mkdir_all(root, "/home/dthain", 0o700, &Cred::ROOT)
            .unwrap();
        vfs.chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT)
            .unwrap();
        vfs.write_file(root, "/home/dthain/secret", PRIVATE, &sup)
            .unwrap();
        vfs.chmod(root, "/home/dthain/secret", 0o600, &sup).unwrap();
        let race = vfs.mkdir(root, "/export/race", 0o755, &sup).unwrap();
        let acl = Acl::from_entries([AclEntry::new(FRED, Rights::RWLAX)]);
        idbox_core::write_acl(vfs, race, &acl, &sup).unwrap();
        vfs.mkdir_all(root, "/export/race/d/sub", 0o755, &sup)
            .unwrap();
        vfs.write_file(root, "/export/race/d/sub/secret", public, &sup)
            .unwrap();
        vfs.mkdir(root, "/export/race/e", 0o755, &sup).unwrap();
        vfs.symlink(root, "/home/dthain", "/export/race/e/sub", &sup)
            .unwrap();
        vfs.write_file(root, "/export/race/swap.exe", b"#!guest swap\n", &sup)
            .unwrap();
        vfs.chmod(root, "/export/race/swap.exe", 0o755, &sup)
            .unwrap();
    }
    let swaps = Arc::clone(swaps);
    server.register_program("swap", move |ctx, _| {
        for _ in 0..cycles {
            // d/sub: real directory -> missing -> symlink -> missing ->
            // real directory.
            let steps = [("d", "real"), ("e", "d"), ("d", "e"), ("real", "d")];
            for (i, (old, new)) in steps.into_iter().enumerate() {
                if ctx.rename(old, new).is_err() {
                    return 1;
                }
                if i % 2 == 1 {
                    swaps.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        0
    });
    (server.spawn().unwrap(), ca)
}

#[test]
fn a_swapped_directory_never_leaks_the_supervisors_file_over_chirp() {
    let cfg = ProptestConfig::with_cases(2);
    proptest::run_cases(cfg, "chirp_race", |rng| {
        let public = vec![b'p'; rng.in_range(1, 4096) as usize];
        let cycles = rng.in_range(8, 64);
        let swaps = Arc::new(AtomicU64::new(0));
        let (handle, ca) = race_server(&public, cycles, &swaps);
        let mut reader = ChirpClient::connect(handle.addr(), &fred(&ca)).unwrap();
        let mut swapper = ChirpClient::connect(handle.addr(), &fred(&ca)).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let swapping = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    assert_eq!(swapper.exec("/race/swap.exe", &[]), Ok(0));
                }
            })
        };
        let (mut gets, mut overlapped) = (0u64, 0u64);
        while overlapped < MIN_OVERLAPPED && gets < MAX_GETS {
            let before = swaps.load(Ordering::SeqCst);
            gets += 1;
            match reader.get("/race/d/sub/secret") {
                Ok(bytes) => {
                    assert!(
                        bytes == public,
                        "a get returned {} foreign bytes",
                        bytes.len()
                    );
                    if swaps.load(Ordering::SeqCst) != before {
                        overlapped += 1;
                    }
                }
                Err(Errno::ENOENT | Errno::EACCES) => {}
                Err(e) => panic!("unexpected errno {e}"),
            }
        }
        done.store(true, Ordering::Relaxed);
        swapping.join().unwrap();
        handle.shutdown();
        prop_assert!(
            overlapped >= MIN_OVERLAPPED,
            "only {overlapped} of {gets} gets overlapped a swap"
        );
        Ok(())
    });
}
