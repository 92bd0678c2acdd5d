//! End-to-end Chirp tests over real TCP on localhost.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{catalog, ChirpClient, ChirpDriver, ChirpServer, ServerConfig};
use idbox_interpose::{share, GuestCtx, Supervisor};
use idbox_kernel::{Kernel, OpenFlags};
use idbox_types::{AuthMethod, Errno};
use idbox_vfs::Cred;

/// A CA + verifier trusting `/O=UnivNowhere`.
fn gsi_setup() -> (CertificateAuthority, ServerVerifier) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut v = ServerVerifier::new();
    v.accept = vec![AuthMethod::Globus, AuthMethod::Hostname];
    v.cas.trust(ca.clone());
    (ca, v)
}

fn fred_creds(ca: &CertificateAuthority) -> Vec<ClientCredential> {
    vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=Fred"),
    )]
}

/// The paper's root ACL for Figure 3: hosts in nowhere.edu may read and
/// run what is there; UnivNowhere certificate holders may reserve fresh
/// directories with full rights.
fn figure3_root_acl() -> Acl {
    let mut acl = Acl::empty();
    acl.set(
        "hostname:*.nowhere.edu",
        Rights::READ | Rights::LIST | Rights::EXECUTE,
    );
    acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    acl
}

fn spawn_figure3_server() -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let (ca, verifier) = gsi_setup();
    let mut server = ChirpServer::new(ServerConfig {
        name: "figure3".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        ..Default::default()
    })
    .unwrap();
    // The "sim.exe" program: reads its staged input, computes, writes
    // out.dat in its working directory.
    server.register_program("sim", |ctx, args| {
        let scale: u64 = args
            .first()
            .and_then(|a| a.parse().ok())
            .unwrap_or(10);
        let Ok(input) = ctx.read_file("input.dat") else {
            return 1;
        };
        let mut acc = 0u64;
        for (i, b) in input.iter().enumerate() {
            acc = acc.wrapping_mul(31).wrapping_add(*b as u64) ^ scale ^ i as u64;
        }
        let out = format!("simulated result: {acc:016x}\n");
        match ctx.write_file("out.dat", out.as_bytes()) {
            Ok(()) => 0,
            Err(_) => 1,
        }
    });
    (server.spawn().unwrap(), ca)
}

#[test]
fn figure3_full_workflow() {
    let (handle, ca) = spawn_figure3_server();
    let mut client = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert_eq!(
        client.whoami().unwrap().to_string(),
        "globus:/O=UnivNowhere/CN=Fred"
    );

    // 1. mkdir /work — allowed only through the reserve right.
    client.mkdir("/work", 0o755).unwrap();
    // The fresh ACL names Fred literally with rwlax.
    let acl = client.getacl("/work").unwrap();
    let fred = idbox_types::Identity::new("globus:/O=UnivNowhere/CN=Fred");
    assert!(acl.allows(&fred, Rights::RWLAX));
    let george = idbox_types::Identity::new("globus:/O=UnivNowhere/CN=George");
    assert_eq!(acl.rights_for(&george), Rights::NONE);

    // 2-3. cd /work; put sim.exe (and its input).
    client
        .put_mode("/work/sim.exe", b"#!guest sim\n(simulated executable image)\n", 0o755)
        .unwrap();
    client.put("/work/input.dat", b"input particles 12345").unwrap();

    // 4. exec sim.exe — runs in an identity box named by Fred's
    // credentials, on the server.
    let code = client.exec("/work/sim.exe", &["42"]).unwrap();
    assert_eq!(code, 0);

    // 5. get out.dat.
    let out = client.get("/work/out.dat").unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("simulated result: "), "{text}");

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn visitors_cannot_touch_without_rights() {
    let (handle, ca) = spawn_figure3_server();
    // George holds a valid UnivNowhere certificate too...
    let creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=George"),
    )];
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    let mut george = ChirpClient::connect(handle.addr(), &creds).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put("/work/data", b"private").unwrap();
    // ...but Fred's reserved directory excludes him entirely.
    assert_eq!(george.get("/work/data"), Err(Errno::EACCES));
    assert_eq!(george.put("/work/evil", b"x"), Err(Errno::EACCES));
    assert_eq!(george.readdir("/work"), Err(Errno::EACCES));
    // Until Fred, holding A, extends the ACL by grid name.
    let mut acl = fred.getacl("/work").unwrap();
    acl.set(
        "globus:/O=UnivNowhere/CN=George",
        Rights::READ | Rights::LIST,
    );
    fred.setacl("/work", &acl).unwrap();
    assert_eq!(george.get("/work/data").unwrap(), b"private");
    // Read-only: still no writing.
    assert_eq!(george.put("/work/evil", b"x"), Err(Errno::EACCES));
    handle.shutdown();
}

#[test]
fn mid_session_acl_revocation_is_observed_immediately() {
    // The server caches ACL verdicts keyed by the filesystem change
    // generation. A revocation — rewriting the `.__acl`, or renaming it
    // away entirely — must be observed by an *already connected* client
    // on its very next request: a stale cached allow is a security hole.
    let (handle, ca) = spawn_figure3_server();
    let creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=George"),
    )];
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    let mut george = ChirpClient::connect(handle.addr(), &creds).unwrap();
    // 0o700: once the ACL is gone the unix-as-nobody fallback must deny,
    // so the rename leg below distinguishes "revoked" from "stale allow".
    fred.mkdir("/work", 0o700).unwrap();
    fred.put("/work/data", b"private").unwrap();
    let mut shared = fred.getacl("/work").unwrap();
    shared.set(
        "globus:/O=UnivNowhere/CN=George",
        Rights::READ | Rights::LIST,
    );
    fred.setacl("/work", &shared).unwrap();

    // Warm George's verdict cache with repeated allowed reads.
    for _ in 0..5 {
        assert_eq!(george.get("/work/data").unwrap(), b"private");
    }

    // Revocation 1: setacl rewrites the `.__acl` mid-session.
    let mut fred_only = Acl::empty();
    fred_only.set("globus:/O=UnivNowhere/CN=Fred", Rights::RWLAX);
    fred.setacl("/work", &fred_only).unwrap();
    assert_eq!(george.get("/work/data"), Err(Errno::EACCES));
    assert_eq!(george.stat("/work/data").map(|_| ()), Err(Errno::EACCES));

    // Re-grant: the invalidation must not stick either.
    fred.setacl("/work", &shared).unwrap();
    assert_eq!(george.get("/work/data").unwrap(), b"private");

    // Revocation 2: rename the ACL file away (revoking without
    // unlinking). The directory falls back to unix-as-nobody, and 0o700
    // gives nobody nothing.
    fred.rename(
        &format!("/work/{}", idbox_types::ACL_FILE_NAME),
        "/work/shelved_acl",
    )
    .unwrap();
    assert_eq!(george.get("/work/data"), Err(Errno::EACCES));

    // Fred's own warm verdicts are just as dead: with the ACL shelved
    // and 0o700 unix bits, the fallback locks out even the owner — no
    // identity keeps a stale allow.
    assert_eq!(fred.get("/work/data"), Err(Errno::EACCES));
    assert_eq!(
        fred.rename(
            "/work/shelved_acl",
            &format!("/work/{}", idbox_types::ACL_FILE_NAME),
        ),
        Err(Errno::EACCES)
    );

    handle.shutdown();
}

#[test]
fn exec_requires_the_x_right() {
    let (handle, ca) = spawn_figure3_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put_mode("/work/sim.exe", b"#!guest sim\n", 0o755).unwrap();
    fred.put("/work/input.dat", b"data").unwrap();
    // Fred drops his own x right (keeping a to be able to do so).
    let mut acl = fred.getacl("/work").unwrap();
    acl.set(
        "globus:/O=UnivNowhere/CN=Fred",
        Rights::READ | Rights::WRITE | Rights::LIST | Rights::ADMIN,
    );
    fred.setacl("/work", &acl).unwrap();
    assert_eq!(fred.exec("/work/sim.exe", &[]), Err(Errno::EACCES));
    // Restore x: execution works again.
    let mut acl = fred.getacl("/work").unwrap();
    acl.set("globus:/O=UnivNowhere/CN=Fred", Rights::FULL);
    fred.setacl("/work", &acl).unwrap();
    assert_eq!(fred.exec("/work/sim.exe", &[]).unwrap(), 0);
    handle.shutdown();
}

#[test]
fn hostname_clients_can_run_but_not_stage() {
    // The paper's ACL: nowhere.edu hosts hold rlx — they may run
    // existing programs but cannot stage in new ones.
    let (ca, mut verifier) = gsi_setup();
    verifier.peer_hostname = None; // set per-connection by host_db
    let mut config = ServerConfig {
        name: "rlx".to_string(),
        verifier,
        root_acl: {
            let mut acl = Acl::empty();
            acl.set(
                "hostname:*.nowhere.edu",
                Rights::READ | Rights::LIST | Rights::EXECUTE,
            );
            acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
            acl
        },
        ..Default::default()
    };
    config
        .host_db
        .insert([127, 0, 0, 1].into(), "laptop.cs.nowhere.edu".to_string());
    let mut server = ChirpServer::new(config).unwrap();
    server.register_program("hello", |ctx, _| {
        ctx.write_file("/tmp/hello-ran", b"yes").map(|_| 0).unwrap_or(1)
    });
    let handle = server.spawn().unwrap();

    // Fred (globus) stages a program into his reserved directory, then
    // opens it to the world.
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/apps", 0o755).unwrap();
    fred.put_mode("/apps/hello.exe", b"#!guest hello\n", 0o755).unwrap();
    let mut acl = fred.getacl("/apps").unwrap();
    acl.set(
        "hostname:*.nowhere.edu",
        Rights::READ | Rights::LIST | Rights::EXECUTE,
    );
    fred.setacl("/apps", &acl).unwrap();

    // The hostname-authenticated visitor may list and execute...
    let host_cred = vec![ClientCredential::Hostname(
        "laptop.cs.nowhere.edu".to_string(),
    )];
    let mut host = ChirpClient::connect(handle.addr(), &host_cred).unwrap();
    assert_eq!(
        host.whoami().unwrap().to_string(),
        "hostname:laptop.cs.nowhere.edu"
    );
    assert!(host.readdir("/apps").is_ok());
    assert_eq!(host.exec("/apps/hello.exe", &[]).unwrap(), 0);
    // ...but cannot stage in programs anywhere.
    assert_eq!(host.put("/apps/own.exe", b"#!guest hello\n"), Err(Errno::EACCES));
    assert_eq!(host.mkdir("/host-dir", 0o755), Err(Errno::EACCES));
    handle.shutdown();
}

#[test]
fn untrusted_ca_is_refused_at_connect() {
    let (handle, _ca) = spawn_figure3_server();
    let rogue = CertificateAuthority::new("/O=Rogue CA", 0xBAD);
    let creds = vec![ClientCredential::Globus(
        rogue.issue("/O=UnivNowhere/CN=Fred"),
    )];
    assert_eq!(
        ChirpClient::connect(handle.addr(), &creds).unwrap_err(),
        Errno::EACCES
    );
    handle.shutdown();
}

#[test]
fn fd_based_io_and_stat_over_the_wire() {
    let (handle, ca) = spawn_figure3_server();
    let mut client = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    client.mkdir("/work", 0o755).unwrap();
    let fd = client
        .open("/work/notes", OpenFlags::wronly_create_trunc(), 0o644)
        .unwrap();
    assert_eq!(client.pwrite(fd, b"hello chirp", 0).unwrap(), 11);
    client.close(fd).unwrap();
    let st = client.stat("/work/notes").unwrap();
    assert_eq!(st.size, 11);
    let fd = client.open("/work/notes", OpenFlags::rdonly(), 0).unwrap();
    assert_eq!(client.pread(fd, 5, 6).unwrap(), b"chirp");
    let fst = client.fstat(fd).unwrap();
    assert_eq!(fst.size, 11);
    client.close(fd).unwrap();
    // rename + unlink + rmdir round out the namespace ops.
    client.rename("/work/notes", "/work/notes2").unwrap();
    assert_eq!(client.stat("/work/notes"), Err(Errno::ENOENT));
    client.unlink("/work/notes2").unwrap();
    client.unlink("/work/sim.exe").ok();
    handle.shutdown();
}

#[test]
fn chirp_driver_mounts_into_guest_namespace() {
    let (handle, ca) = spawn_figure3_server();
    // Prepare remote state as Fred.
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    c.mkdir("/work", 0o755).unwrap();
    c.put("/work/remote.txt", b"over the wire").unwrap();

    // A *local* kernel mounts the server under /chirp/srv; the guest
    // carries Fred's identity, which the driver presents remotely.
    let client2 = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    let kernel = share(Kernel::new());
    let pid = {
        let mut k = kernel.lock();
        k.mount("/chirp/srv", Box::new(ChirpDriver::new(client2)));
        let pid = k.spawn(Cred::new(1000, 1000), "/tmp", "guest").unwrap();
        k.set_identity(pid, idbox_types::Identity::new("globus:/O=UnivNowhere/CN=Fred"))
            .unwrap();
        pid
    };
    let mut sup = Supervisor::direct(kernel);
    let mut ctx = GuestCtx::new(&mut sup, pid);
    // Remote files appear as ordinary paths.
    assert_eq!(
        ctx.read_file("/chirp/srv/work/remote.txt").unwrap(),
        b"over the wire"
    );
    ctx.write_file("/chirp/srv/work/pushed.txt", b"from guest").unwrap();
    let st = ctx.stat("/chirp/srv/work/pushed.txt").unwrap();
    assert_eq!(st.size, 10);
    let names: Vec<String> = ctx
        .readdir("/chirp/srv/work")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(names.contains(&"remote.txt".to_string()));
    assert!(names.contains(&"pushed.txt".to_string()));
    handle.shutdown();
}

#[test]
fn catalog_discovery_roundtrip() {
    let cat = catalog::Catalog::spawn().unwrap();
    let (handle, ca) = spawn_figure3_server();
    catalog::register(cat.addr(), &handle.addr().to_string(), "figure3").unwrap();
    let servers = catalog::list(cat.addr()).unwrap();
    assert_eq!(servers.len(), 1);
    // A client discovers the server through the catalog and uses it.
    let addr: std::net::SocketAddr = servers[0].addr.parse().unwrap();
    let mut client = ChirpClient::connect(addr, &fred_creds(&ca)).unwrap();
    assert!(client.whoami().is_ok());
    handle.shutdown();
}

#[test]
fn concurrent_clients_share_one_server() {
    let (handle, ca) = spawn_figure3_server();
    let mut threads = Vec::new();
    for i in 0..4 {
        let addr = handle.addr();
        let cert = ca.issue(format!("/O=UnivNowhere/CN=User{i}"));
        threads.push(std::thread::spawn(move || {
            let creds = vec![ClientCredential::Globus(cert)];
            let mut c = ChirpClient::connect(addr, &creds).unwrap();
            let dir = format!("/u{i}");
            c.mkdir(&dir, 0o755).unwrap();
            for j in 0..5 {
                c.put(&format!("{dir}/f{j}"), format!("{i}-{j}").as_bytes())
                    .unwrap();
            }
            for j in 0..5 {
                let data = c.get(&format!("{dir}/f{j}")).unwrap();
                assert_eq!(data, format!("{i}-{j}").as_bytes());
            }
            // Everyone's namespace is private.
            let other = format!("/u{}/f0", (i + 1) % 4);
            let r = c.get(&other);
            assert!(
                r == Err(Errno::EACCES) || r == Err(Errno::ENOENT),
                "{r:?}"
            );
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn guestscript_programs_run_over_the_wire() {
    let (handle, ca) = spawn_figure3_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    // The program *is* the staged content: no registration needed.
    let script = b"#!guestscript\n\
                   read input.dat\n\
                   checksum\n\
                   stat input.dat\n\
                   write out.dat bytes=$SIZE digest=$SUM\n\
                   echo analysis complete\n\
                   exit 0\n";
    fred.put_mode("/work/analyze.x", script, 0o755).unwrap();
    fred.put("/work/input.dat", b"sequence data").unwrap();
    assert_eq!(fred.exec("/work/analyze.x", &[]).unwrap(), 0);
    let out = String::from_utf8(fred.get("/work/out.dat").unwrap()).unwrap();
    assert!(out.starts_with("bytes=13 digest="), "{out}");
    let echoed = String::from_utf8(fred.get("/work/script.out").unwrap()).unwrap();
    assert_eq!(echoed, "analysis complete\n");
    handle.shutdown();
}

#[test]
fn guestscript_is_contained_by_the_box() {
    let (handle, ca) = spawn_figure3_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    // A hostile script: tries to escape the export space and read the
    // server's own files. The box must contain it, and the failure must
    // be a clean nonzero exit with a recorded error.
    let script = b"#!guestscript\n\
                   read /etc/shadow\n\
                   echo never reached\n";
    fred.put_mode("/work/evil.x", script, 0o755).unwrap();
    let code = fred.exec("/work/evil.x", &[]).unwrap();
    assert_eq!(code, 1);
    let log = String::from_utf8(fred.get("/work/script.out").unwrap()).unwrap();
    assert!(log.contains("script error"), "{log}");
    assert!(!log.contains("never reached"));
    handle.shutdown();
}

#[test]
fn server_heartbeats_to_catalog() {
    let cat = catalog::Catalog::spawn().unwrap();
    let (ca, verifier) = gsi_setup();
    let server = ChirpServer::new(ServerConfig {
        name: "heartbeater".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        catalog: Some(cat.addr()),
        heartbeat: std::time::Duration::from_millis(50),
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    // Wait for at least two heartbeats: the seq must advance.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut first_seq = None;
    let advanced = loop {
        if std::time::Instant::now() > deadline {
            break false;
        }
        let servers = catalog::list(cat.addr()).unwrap();
        if let Some(info) = servers.iter().find(|s| s.name == "heartbeater") {
            match first_seq {
                None => first_seq = Some(info.seq),
                Some(s0) if info.seq > s0 => break true,
                Some(_) => {}
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(advanced, "heartbeat never re-registered");
    // The advertised address really serves.
    let servers = catalog::list(cat.addr()).unwrap();
    let info = servers.iter().find(|s| s.name == "heartbeater").unwrap();
    let addr: std::net::SocketAddr = info.addr.parse().unwrap();
    let mut c = ChirpClient::connect(addr, &fred_creds(&ca)).unwrap();
    assert!(c.whoami().is_ok());
    handle.shutdown();
}

#[test]
fn reserved_directory_cleanup_over_the_wire() {
    // A visitor who created /work through the reserve right can dissolve
    // it again once it is empty — the ACL file itself does not count as
    // content.
    let (handle, ca) = spawn_figure3_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put("/work/tmp.dat", b"x").unwrap();
    // Not empty yet.
    assert_eq!(fred.rmdir("/work"), Err(Errno::ENOTEMPTY));
    fred.unlink("/work/tmp.dat").unwrap();
    fred.rmdir("/work").unwrap();
    assert_eq!(fred.stat("/work"), Err(Errno::ENOENT));
    // And the namespace is reusable.
    fred.mkdir("/work", 0o755).unwrap();
    handle.shutdown();
}

/// A client streaming an endless newline-less "command" is cut off by
/// the bounded line reader instead of growing a buffer without limit —
/// and the server keeps serving everyone else afterwards.
#[test]
fn oversized_line_client_is_disconnected() {
    use std::io::Write;
    let (handle, ca) = spawn_figure3_server();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_write_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    // Pump far more than LINE_MAX without ever sending '\n'. The server
    // must close the connection once its bound trips; our writes then
    // fail as soon as the socket buffers drain into a dead peer.
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    let cut_off = loop {
        match raw.write_all(&chunk) {
            Ok(()) => {
                sent += chunk.len();
                // 64 MiB without a rejection would mean the server is
                // swallowing the stream.
                if sent > 64 << 20 {
                    break false;
                }
            }
            Err(_) => break true,
        }
    };
    assert!(cut_off, "server accepted {sent} newline-less bytes");
    drop(raw);
    // Liveness: the server still serves a well-behaved client.
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(c.whoami().is_ok());
    // And the rejecting session really went away.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.active_connections() > 1 {
        assert!(std::time::Instant::now() < deadline, "rogue session lingers");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
}

/// With `io_timeout` set, a connection that goes silent is disconnected
/// and drains out of the server's registry.
#[test]
fn idle_connection_times_out() {
    let (ca, verifier) = gsi_setup();
    let server = ChirpServer::new(ServerConfig {
        name: "impatient".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        io_timeout: Some(std::time::Duration::from_millis(150)),
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(c.whoami().is_ok());
    // Go idle past the timeout: the server hangs up on us.
    std::thread::sleep(std::time::Duration::from_millis(600));
    assert!(c.whoami().is_err(), "idle connection was not dropped");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.active_connections() > 0 {
        assert!(std::time::Instant::now() < deadline, "session never drained");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
}

/// Clients over `max_connections` are refused with an `error` line
/// up front; a slot freed by a departing client is reusable.
#[test]
fn connection_cap_refuses_excess_clients() {
    let (ca, verifier) = gsi_setup();
    let server = ChirpServer::new(ServerConfig {
        name: "tiny".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        max_connections: 1,
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut first = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(first.whoami().is_ok());
    // The second client is turned away before authentication.
    assert!(
        ChirpClient::connect(handle.addr(), &fred_creds(&ca)).is_err(),
        "cap of 1 admitted a second client"
    );
    // Departure frees the slot.
    first.quit().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.active_connections() > 0 {
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut next = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(next.whoami().is_ok());
    handle.shutdown();
}

/// `shutdown()` must not wait forever on sessions whose clients never
/// hang up: it signals them and returns.
#[test]
fn shutdown_signals_lingering_connections() {
    let (handle, ca) = spawn_figure3_server();
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(c.whoami().is_ok());
    // Client stays connected and idle — shutdown still completes (the
    // test would hang here otherwise) because the server shuts the
    // socket down under the lingering session.
    handle.shutdown();
    assert!(c.whoami().is_err(), "connection survived server shutdown");
}

/// A server whose config names an admin principal, for the
/// observability RPC tests.
fn spawn_observable_server() -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let (ca, verifier) = gsi_setup();
    let server = ChirpServer::new(ServerConfig {
        name: "observable".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        ..Default::default()
    })
    .unwrap();
    (server.spawn().unwrap(), ca)
}

/// The tentpole acceptance scenario: after real traffic, an admin can
/// pull non-zero latency histograms over the wire, and a scripted
/// denied access shows up in the audit ring with the denied identity
/// and errno.
#[test]
fn stats_and_audit_rpcs_expose_latency_and_denials() {
    let (handle, ca) = spawn_observable_server();

    // Fred generates allowed traffic.
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put("/work/data", b"private bytes").unwrap();
    assert_eq!(fred.get("/work/data").unwrap(), b"private bytes");

    // George is denied: his certificate gives him no rights in Fred's
    // reserved directory.
    let george_creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=George"),
    )];
    let mut george = ChirpClient::connect(handle.addr(), &george_creds).unwrap();
    assert_eq!(george.get("/work/data"), Err(Errno::EACCES));

    // The admin reads both snapshots over the wire.
    let admin_creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=Admin"),
    )];
    let mut admin = ChirpClient::connect(handle.addr(), &admin_creds).unwrap();

    let stats = admin.stats().unwrap();
    assert!(!stats.is_empty(), "no latency rows after real traffic");
    let total: u64 = stats.iter().map(|r| r.count).sum();
    assert!(total > 0);
    for row in &stats {
        assert!(row.count > 0, "zero-count row {row:?} should be omitted");
        let (p50, p99) = (row.p50_ns.unwrap(), row.p99_ns.unwrap());
        assert!(p50 > 0, "histogram bucket ceilings start at 1ns");
        assert!(p50 <= p99, "p50 > p99 in {row:?}");
    }
    // The traffic above certainly opened files.
    assert!(stats.iter().any(|r| r.name == "open"), "{stats:?}");

    let audit = admin.audit().unwrap();
    let deny = audit
        .iter()
        .find(|e| e.verdict == "deny" && e.identity == "globus:/O=UnivNowhere/CN=George")
        .unwrap_or_else(|| panic!("George's denial not in audit: {audit:?}"));
    assert_eq!(deny.errno, Some(Errno::EACCES));
    assert!(
        deny.path.as_deref().unwrap_or("").contains("/work/data"),
        "denied path missing: {deny:?}"
    );
    // Fred's allowed operations are audited too, and sequence numbers
    // are strictly increasing.
    assert!(audit
        .iter()
        .any(|e| e.verdict == "allow" && e.identity == "globus:/O=UnivNowhere/CN=Fred"));
    // Fred's mkdir in the reserved export root is the amplification case.
    assert!(audit
        .iter()
        .any(|e| e.verdict == "reserve-amplified" && e.syscall == "mkdir"));
    assert!(audit.windows(2).all(|w| w[0].seq < w[1].seq));

    handle.shutdown();
}

/// Non-admin principals get `EACCES` from both observability RPCs —
/// even ones that can otherwise use the server.
#[test]
fn stats_and_audit_require_admin() {
    let (handle, ca) = spawn_observable_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert!(fred.whoami().is_ok());
    assert_eq!(fred.stats().unwrap_err(), Errno::EACCES);
    assert_eq!(fred.audit().unwrap_err(), Errno::EACCES);
    // The session is still healthy afterwards.
    assert!(fred.whoami().is_ok());
    handle.shutdown();

    // On a default-config server, *nobody* is an admin.
    let (handle, ca) = spawn_figure3_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert_eq!(fred.stats().unwrap_err(), Errno::EACCES);
    handle.shutdown();
}

/// A server wired for the tracing acceptance scenario: an admin
/// principal, a zero slow-op threshold (every span is kept), and a
/// guest program that reports the trace id it finds in its box
/// environment.
fn spawn_traced_server() -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let (ca, verifier) = gsi_setup();
    let mut server = ChirpServer::new(ServerConfig {
        name: "traced".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        slow_op_threshold: std::time::Duration::ZERO,
        ..Default::default()
    })
    .unwrap();
    server.register_program("trace-probe", |ctx, _| {
        match ctx.getenv(idbox_interpose::abi::TRACE_ENV) {
            Ok(v) => ctx.write_file("trace.out", v.as_bytes()).map(|_| 0).unwrap_or(1),
            Err(_) => 2,
        }
    });
    (server.spawn().unwrap(), ca)
}

/// The value of the first sample line starting with `head`, if any.
fn prometheus_sample(text: &str, head: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(head))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// Minimal structural validation of Prometheus text exposition: every
/// sample is `name{labels} value` with a numeric value, and every
/// sample's family has a preceding `# TYPE` header.
fn assert_prometheus_shape(text: &str) {
    let mut families = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            families.insert(rest.split(' ').next().unwrap().to_string());
        } else if !line.starts_with('#') && !line.is_empty() {
            let (head, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("sample without value: {line:?}"));
            assert!(value.parse::<f64>().is_ok(), "bad value: {line:?}");
            let name = head.split('{').next().unwrap();
            // Histogram samples carry the conventional suffixes under
            // the base family's single TYPE header.
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .filter(|b| families.contains(*b));
            assert!(
                families.contains(name) || base.is_some(),
                "sample {name} without TYPE header"
            );
        }
    }
}

/// The tentpole acceptance scenario: one client request's trace id is
/// visible (1) in the audit ring rows its policy rulings produced,
/// (2) in the environment of the boxed child the `exec` RPC spawned,
/// and (3) in the slow-op spans the request left behind — and the
/// `metrics` RPC renders valid Prometheus text whose per-identity
/// counters match the workload that just ran.
#[test]
fn one_trace_id_joins_rpc_audit_and_exec() {
    let (handle, ca) = spawn_traced_server();

    // Fred's workload: reserve a directory, stage the probe, run it.
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put_mode("/work/probe.exe", b"#!guest trace-probe\n", 0o755)
        .unwrap();
    assert_eq!(fred.exec("/work/probe.exe", &[]).unwrap(), 0);
    let exec_trace = fred.last_trace().expect("client stamps every request");

    // Plane 2 first: the boxed child saw the exec request's id in its
    // environment and wrote it next to itself.
    let reported = String::from_utf8(fred.get("/work/trace.out").unwrap()).unwrap();
    assert_eq!(reported, exec_trace.to_string());

    // George's denial gives the metrics a nonzero denial counter.
    let george_creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=George"),
    )];
    let mut george = ChirpClient::connect(handle.addr(), &george_creds).unwrap();
    assert_eq!(george.get("/work/probe.exe"), Err(Errno::EACCES));

    let admin_creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=Admin"),
    )];
    let mut admin = ChirpClient::connect(handle.addr(), &admin_creds).unwrap();

    // Plane 1: the exec request's policy rulings carry its trace id —
    // including the ruling on the exec syscall itself.
    let audit = admin.audit().unwrap();
    let stamped: Vec<_> = audit
        .iter()
        .filter(|e| e.trace == Some(exec_trace))
        .collect();
    assert!(
        stamped.iter().any(|e| e.syscall == "exec"
            && e.identity == "globus:/O=UnivNowhere/CN=Fred"
            && e.verdict == "allow"),
        "exec ruling not joined to its trace: {stamped:?}"
    );
    // Other requests' rulings carry *different* ids: the join is
    // per-request, not per-session.
    assert!(audit
        .iter()
        .any(|e| e.trace.is_some() && e.trace != Some(exec_trace)));

    // Plane 3: the spans. With threshold zero, the exec request left an
    // rpc span, an exec span, and dispatch spans, all under its id.
    let spans = admin.slowops().unwrap();
    let mine: Vec<_> = spans
        .iter()
        .filter(|s| s.trace == Some(exec_trace))
        .collect();
    for phase in ["rpc", "exec", "dispatch", "policy"] {
        assert!(
            mine.iter().any(|s| s.phase == phase),
            "no {phase} span for the exec request: {mine:?}"
        );
    }
    let rpc = mine.iter().find(|s| s.phase == "rpc").unwrap();
    assert_eq!(rpc.name, "exec");
    assert_eq!(rpc.identity, "globus:/O=UnivNowhere/CN=Fred");
    // The whole-RPC span contains its exec phase.
    let exec_span = mine.iter().find(|s| s.phase == "exec").unwrap();
    assert!(rpc.dur_ns >= exec_span.dur_ns);

    // The metrics exposition is valid Prometheus and matches the
    // workload: Fred opened files, wrote bytes, and triggered the
    // reserve amplification; George was denied; all three sessions are
    // still open.
    let text = admin.metrics().unwrap();
    assert_prometheus_shape(&text);
    let fred_id = "identity=\"globus:/O=UnivNowhere/CN=Fred\"";
    let george_id = "identity=\"globus:/O=UnivNowhere/CN=George\"";
    assert!(
        prometheus_sample(&text, &format!("idbox_syscalls_total{{{fred_id},syscall=\"open\"}}"))
            .unwrap()
            >= 1.0
    );
    assert!(
        prometheus_sample(&text, &format!("idbox_bytes_written_total{{{fred_id}}}")).unwrap()
            >= b"#!guest trace-probe\n".len() as f64
    );
    assert!(
        prometheus_sample(&text, &format!("idbox_reserve_amplifications_total{{{fred_id}}}"))
            .unwrap()
            >= 1.0
    );
    assert!(
        prometheus_sample(&text, &format!("idbox_denials_total{{{george_id}}}")).unwrap() >= 1.0
    );
    assert_eq!(
        prometheus_sample(&text, &format!("idbox_active_sessions{{{fred_id}}}")),
        Some(1.0)
    );

    // Sessions drain out of the gauge when clients leave.
    fred.quit().unwrap();
    george.quit().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let text = admin.metrics().unwrap();
        let open = prometheus_sample(&text, &format!("idbox_active_sessions{{{fred_id}}}"));
        if open == Some(0.0) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "gauge never drained");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
}

/// The `audit <since>` cursor pages incrementally: the returned cursor
/// resumes exactly where the previous fetch ended, and a cursor at the
/// write head returns nothing.
#[test]
fn audit_cursor_pages_incrementally() {
    let (handle, ca) = spawn_traced_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put("/work/a", b"one").unwrap();

    let admin_creds = vec![ClientCredential::Globus(
        ca.issue("/O=UnivNowhere/CN=Admin"),
    )];
    let mut admin = ChirpClient::connect(handle.addr(), &admin_creds).unwrap();
    let (first, cursor) = admin.audit_since(0).unwrap();
    assert!(!first.is_empty());
    assert!(first.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(cursor, first.last().unwrap().seq + 1, "cursor is the write head");

    // New traffic lands beyond the cursor...
    fred.put("/work/b", b"two").unwrap();
    let (tail, cursor2) = admin.audit_since(cursor).unwrap();
    assert!(!tail.is_empty());
    assert!(tail.iter().all(|e| e.seq >= cursor));
    assert!(cursor2 > cursor);
    // ...and no event is reported twice across the two pages.
    let firsts: std::collections::HashSet<u64> = first.iter().map(|e| e.seq).collect();
    assert!(tail.iter().all(|e| !firsts.contains(&e.seq)));

    // A cursor at the head is an empty (but successful) fetch. The
    // admin's own audit RPC may add rulings between the two calls, so
    // re-read the head first.
    let (_, head) = admin.audit_since(cursor2).unwrap();
    let (empty, _) = admin.audit_since(head + 1).unwrap();
    assert!(empty.is_empty(), "{empty:?}");
    handle.shutdown();
}

/// The new observability RPCs are admin-gated like `stats`/`audit`.
#[test]
fn metrics_and_slowops_require_admin() {
    let (handle, ca) = spawn_traced_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    assert_eq!(fred.metrics().unwrap_err(), Errno::EACCES);
    assert_eq!(fred.slowops().unwrap_err(), Errno::EACCES);
    assert_eq!(fred.audit_since(0).unwrap_err(), Errno::EACCES);
    // The session is still healthy afterwards.
    assert!(fred.whoami().is_ok());
    handle.shutdown();
}

/// A `put` whose announced length exceeds PAYLOAD_MAX is refused up
/// front — before the server allocates or reads anything — and the
/// session survives in protocol sync.
#[test]
fn oversized_put_announce_is_rejected_before_allocation() {
    use idbox_auth::AuthTransport;
    use std::io::{BufRead, Write};

    struct RawTransport {
        reader: std::io::BufReader<std::net::TcpStream>,
        writer: std::net::TcpStream,
    }
    impl AuthTransport for RawTransport {
        fn send_line(&mut self, line: &str) -> Result<(), String> {
            self.writer
                .write_all(line.as_bytes())
                .and_then(|_| self.writer.write_all(b"\n"))
                .and_then(|_| self.writer.flush())
                .map_err(|e| e.to_string())
        }
        fn recv_line(&mut self) -> Result<String, String> {
            let mut line = String::new();
            self.reader.read_line(&mut line).map_err(|e| e.to_string())?;
            Ok(line.trim_end_matches(['\r', '\n']).to_string())
        }
    }

    let (handle, ca) = spawn_figure3_server();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut t = RawTransport {
        reader: std::io::BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };
    idbox_auth::authenticate_client(&mut t, &fred_creds(&ca)).unwrap();

    // Announce a payload no honest client could send (PAYLOAD_MAX is
    // 64 MiB) and transmit no payload bytes at all. A server that
    // tried to read the payload first would block on the read timeout
    // instead of answering.
    t.send_line(&format!("put /huge {} 420", (64u64 << 20) + 1)).unwrap();
    let resp = t.recv_line().unwrap();
    assert_eq!(resp, format!("error {}", Errno::EINVAL.code()), "{resp}");

    // Protocol sync: the very next command still round-trips.
    t.send_line("whoami").unwrap();
    let resp = t.recv_line().unwrap();
    assert!(resp.starts_with("ok "), "session out of sync: {resp}");

    handle.shutdown();
}

/// Replies larger than the event loop's 1 MiB backpressure watermark
/// must be delivered completely — serially and pipelined — instead of
/// deadlocking behind the soft cap or tearing the connection down. This
/// exercises the streamed extent path end to end: the 3 MiB body
/// crosses the cap three times over, so the worker has to interleave
/// flushes with the peer draining.
#[test]
fn oversized_replies_stream_without_deadlock_or_teardown() {
    let (handle, ca) = spawn_figure3_server();
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    // Patterned so truncation or reordering cannot pass unnoticed.
    let big: Vec<u8> = (0..3u32 * 1024 * 1024)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    fred.put("/work/big.dat", &big).unwrap();

    // Serial: one oversized get on a fresh connection.
    assert_eq!(fred.get("/work/big.dat").unwrap(), big);

    // Pipelined: three oversized gets in one burst on one connection.
    // The server queues ~9 MiB of replies against a 1 MiB soft cap and
    // must stream them out in order while the client drains.
    let mut p = fred.pipeline();
    for _ in 0..3 {
        p.get("/work/big.dat");
    }
    let replies = p.run().unwrap();
    assert_eq!(replies.len(), 3);
    for r in &replies {
        assert_eq!(r.num().unwrap() as usize, big.len());
        assert_eq!(r.payload.as_deref().unwrap(), &big[..]);
    }

    // The connection survived: an ordinary RPC still round-trips.
    assert!(fred.stat("/work/big.dat").is_ok());
    handle.shutdown();
}

/// The data-plane ablation switch must preserve wire behaviour exactly:
/// with `copy_data_plane` set, the same oversized transfer flows
/// through the copying path (flat buffer materialized, then queued as
/// one owned segment).
#[test]
fn ablated_copy_path_serves_oversized_replies_identically() {
    let (handle, ca) = spawn_data_plane_server(true);
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    let big = vec![0xA7u8; 2 * 1024 * 1024];
    fred.put("/work/big.dat", &big).unwrap();
    assert_eq!(fred.get("/work/big.dat").unwrap(), big);
    handle.shutdown();
}

/// A raw, authenticated socket for tests that control exactly how a
/// request's bytes arrive.
struct RawConn {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl idbox_auth::AuthTransport for RawConn {
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        use std::io::Write;
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())
    }
    fn recv_line(&mut self) -> Result<String, String> {
        use std::io::BufRead;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(|e| e.to_string())?;
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr, ca: &CertificateAuthority) -> RawConn {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut c = RawConn {
            reader: std::io::BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        idbox_auth::authenticate_client(&mut c, &fred_creds(ca)).unwrap();
        c
    }

    fn send(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.writer.write_all(bytes).unwrap();
    }
}

/// A Figure 3 server with the data plane on, or ablated to the copying
/// paths (`copy_data_plane`).
fn spawn_data_plane_server(
    copy_data_plane: bool,
) -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let (ca, verifier) = gsi_setup();
    let server = ChirpServer::new(ServerConfig {
        name: "data-plane".to_string(),
        verifier,
        root_acl: figure3_root_acl(),
        copy_data_plane,
        ..Default::default()
    })
    .unwrap();
    (server.spawn().unwrap(), ca)
}

/// A multi-MiB `put` whose payload trickles in through many small
/// writes — far more readiness cycles than frames — lands byte for
/// byte, and a frame pipelined right behind it is answered in order.
/// Both inbound paths: the payload moved into the kernel, and the
/// ablated copy through guest memory.
#[test]
fn dribbled_put_arrives_byte_identical() {
    for copy_data_plane in [false, true] {
        let (handle, ca) = spawn_data_plane_server(copy_data_plane);
        let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
        fred.mkdir("/work", 0o755).unwrap();
        let big: Vec<u8> = (0..3u32 * 1024 * 1024)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();

        let mut raw = RawConn::connect(handle.addr(), &ca);
        raw.send(format!("put /work/big.dat {} 420\n", big.len()).as_bytes());
        // Seeded write sizes of 1-7 KiB, with a pause now and then so
        // the server sees the payload arrive over many cycles.
        let mut seed = 0x1DB0Fu64;
        let mut off = 0;
        let mut writes = 0u32;
        while off < big.len() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let n = (1024 * (1 + (seed >> 33) % 7) as usize).min(big.len() - off);
            raw.send(&big[off..off + n]);
            off += n;
            writes += 1;
            if writes.is_multiple_of(32) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        raw.send(b"stat /work/big.dat\n");
        use idbox_auth::AuthTransport;
        assert_eq!(raw.recv_line().unwrap(), "ok", "put (copy={copy_data_plane})");
        let stat = raw.recv_line().unwrap();
        assert!(stat.starts_with("ok "), "pipelined stat: {stat}");

        assert_eq!(fred.get("/work/big.dat").unwrap(), big, "copy={copy_data_plane}");
        handle.shutdown();
    }
}

/// A `put` whose payload arrives one byte per write, with a pause after
/// each so the server sees it over as many readiness cycles, fills its
/// buffer byte by byte and lands intact; a frame pipelined behind it is
/// answered in order.
#[test]
fn payload_fed_one_byte_per_cycle_arrives_intact() {
    for copy_data_plane in [false, true] {
        let (handle, ca) = spawn_data_plane_server(copy_data_plane);
        let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
        fred.mkdir("/work", 0o755).unwrap();
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();

        let mut raw = RawConn::connect(handle.addr(), &ca);
        raw.send(format!("put /work/slow {} 420\n", data.len()).as_bytes());
        for b in &data {
            raw.send(std::slice::from_ref(b));
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        raw.send(b"stat /work/slow\n");
        use idbox_auth::AuthTransport;
        assert_eq!(raw.recv_line().unwrap(), "ok", "put (copy={copy_data_plane})");
        assert!(raw.recv_line().unwrap().starts_with("ok "));
        assert_eq!(fred.get("/work/slow").unwrap(), data, "copy={copy_data_plane}");
        handle.shutdown();
    }
}

/// A peer that closes its socket partway through a payload it sent one
/// byte at a time gets nothing dispatched: the partial buffer is
/// dropped unread, the file keeps its old contents, and the server
/// goes on serving.
#[test]
fn peer_close_mid_payload_drops_the_partial_buffer() {
    let (handle, ca) = spawn_data_plane_server(false);
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put("/work/f", b"original").unwrap();

    let mut raw = RawConn::connect(handle.addr(), &ca);
    raw.send(b"put /work/f 4096 420\n");
    for _ in 0..10 {
        raw.send(b"z");
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    drop(raw);

    assert_eq!(fred.get("/work/f").unwrap(), b"original");
    let mut other = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    other.put("/work/g", b"fresh").unwrap();
    assert_eq!(other.get("/work/g").unwrap(), b"fresh");
    assert_eq!(fred.get("/work/f").unwrap(), b"original");
    handle.shutdown();
}

/// A pipeline carrying more payload-bearing ops than one vectored write
/// can take (IOV_MAX, 1024 slices) is sent in several, short writes
/// resumed: every reply comes back in order, and every stored byte is
/// the caller's.
#[test]
fn pipeline_with_more_payloads_than_iov_max_round_trips() {
    let (handle, ca) = spawn_data_plane_server(false);
    let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    fred.mkdir("/many", 0o755).unwrap();
    let files: Vec<(String, Vec<u8>)> = (0..1100u32)
        .map(|i| {
            let len = (i * 37 % 301) as usize;
            let data = (0..len).map(|j| (i as usize * 31 + j) as u8).collect();
            (format!("/many/f{i}"), data)
        })
        .collect();
    let mut p = fred.pipeline();
    for (path, data) in &files {
        p.put(path, data);
    }
    let replies = p.run().unwrap();
    assert_eq!(replies.len(), files.len());
    for (r, (path, _)) in replies.iter().zip(&files) {
        assert_eq!(r.result, Ok(vec![]), "put {path}");
    }
    let mut p = fred.pipeline();
    for (path, _) in &files {
        p.get(path);
    }
    let replies = p.run().unwrap();
    for (r, (path, data)) in replies.iter().zip(&files) {
        assert_eq!(r.payload.as_deref(), Some(&data[..]), "get {path}");
    }
    handle.shutdown();
}

/// A peer that hangs up halfway through a `put` payload gets its
/// connection closed with nothing dispatched: the file keeps its old
/// contents, and the server goes on serving other connections.
#[test]
fn eof_mid_payload_leaves_the_file_unchanged() {
    for copy_data_plane in [false, true] {
        let (handle, ca) = spawn_data_plane_server(copy_data_plane);
        let mut fred = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
        fred.mkdir("/work", 0o755).unwrap();
        fred.put("/work/f", b"original").unwrap();

        let mut raw = RawConn::connect(handle.addr(), &ca);
        raw.send(b"put /work/f 1000000 420\n");
        raw.send(&vec![b'z'; 300_000]);
        raw.writer.shutdown(std::net::Shutdown::Write).unwrap();
        // The server closes its side without a reply.
        let mut rest = Vec::new();
        use std::io::Read;
        raw.reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "unexpected reply: {:?}", String::from_utf8_lossy(&rest));

        assert_eq!(fred.get("/work/f").unwrap(), b"original");
        let mut other = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
        other.put("/work/g", b"fresh").unwrap();
        assert_eq!(other.get("/work/g").unwrap(), b"fresh");
        handle.shutdown();
    }
}
