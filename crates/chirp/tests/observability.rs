//! End-to-end tests for the runtime self-observation plane: the
//! flight recorder (`tracedump`), the health rollup (`health`), the
//! event-loop stall watchdog, and the lock/loop Prometheus families.
//!
//! These run against real servers over TCP on localhost. The flight
//! recorder's rings are process-global, so plane-join assertions can
//! inspect them directly with [`idbox_obs::flight::snapshot_since`]
//! while wire-level assertions go through the admin RPCs.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, ServerConfig};
use idbox_kernel::OpenFlags;
use idbox_obs::flight;
use idbox_types::{AuthMethod, Errno};
use idbox_vfs::FaultHook;
use proptest::fault::FaultPlan;
use std::time::Duration;

fn gsi_setup() -> (CertificateAuthority, ServerVerifier) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut v = ServerVerifier::new();
    v.accept = vec![AuthMethod::Globus, AuthMethod::Hostname];
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

fn observed_config(name: &str) -> ServerConfig {
    let (_, verifier) = gsi_setup();
    ServerConfig {
        name: name.to_string(),
        verifier,
        root_acl: root_acl(),
        admins: vec!["globus:/O=UnivNowhere/CN=Admin".to_string()],
        ..Default::default()
    }
}

fn spawn_observed(name: &str) -> (idbox_chirp::ChirpServerHandle, CertificateAuthority) {
    let (ca, _) = gsi_setup();
    let handle = ChirpServer::new(observed_config(name)).unwrap().spawn().unwrap();
    (handle, ca)
}

/// A strict little JSON syntax checker: panics with position context on
/// the first violation. Deliberately hand-rolled — the point is that
/// the tracedump output loads in an *external* viewer, so the test must
/// not share any code with the renderer it is checking.
fn assert_valid_json(s: &str) {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err(&self, what: &str) -> ! {
            let at = String::from_utf8_lossy(
                &self.b[self.i.saturating_sub(20)..(self.i + 20).min(self.b.len())],
            )
            .into_owned();
            panic!("invalid JSON at byte {}: {what} (near {at:?})", self.i);
        }
        fn ws(&mut self) {
            while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            if self.i >= self.b.len() || self.b[self.i] != c {
                self.err(&format!("expected {:?}", c as char));
            }
            self.i += 1;
        }
        fn string(&mut self) {
            self.eat(b'"');
            loop {
                match self.b.get(self.i) {
                    None => self.err("unterminated string"),
                    Some(b'"') => {
                        self.i += 1;
                        return;
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 1;
                            }
                            Some(b'u') => {
                                for k in 1..=4 {
                                    if !self
                                        .b
                                        .get(self.i + k)
                                        .is_some_and(|c| c.is_ascii_hexdigit())
                                    {
                                        self.err("bad \\u escape");
                                    }
                                }
                                self.i += 5;
                            }
                            _ => self.err("bad escape"),
                        }
                    }
                    Some(&c) if c < 0x20 => self.err("raw control character in string"),
                    Some(_) => self.i += 1,
                }
            }
        }
        fn number(&mut self) {
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            let start = self.i;
            while self
                .b
                .get(self.i)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.i += 1;
            }
            if self.i == start {
                self.err("expected number");
            }
        }
        fn value(&mut self) {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if self.b.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return;
                    }
                    loop {
                        self.ws();
                        self.string();
                        self.ws();
                        self.eat(b':');
                        self.value();
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return;
                            }
                            _ => self.err("expected , or } in object"),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return;
                    }
                    loop {
                        self.value();
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return;
                            }
                            _ => self.err("expected , or ] in array"),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => {
                    if !self.b[self.i..].starts_with(b"true") {
                        self.err("bad literal");
                    }
                    self.i += 4;
                }
                Some(b'f') => {
                    if !self.b[self.i..].starts_with(b"false") {
                        self.err("bad literal");
                    }
                    self.i += 5;
                }
                Some(b'n') => {
                    if !self.b[self.i..].starts_with(b"null") {
                        self.err("bad literal");
                    }
                    self.i += 4;
                }
                Some(&c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => self.err("expected a value"),
            }
        }
    }
    let mut p = P { b: s.as_bytes(), i: 0 };
    p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing garbage after JSON document");
}

/// Tentpole acceptance, part 1: `tracedump` is admin-gated, renders
/// syntactically valid Chrome trace-viewer JSON, and honours the
/// trailing-window argument.
#[test]
fn tracedump_is_admin_gated_valid_chrome_json() {
    let (handle, ca) = spawn_observed("tracedump");
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/work", 0o755).unwrap();
    fred.put("/work/a", b"payload").unwrap();
    fred.stat("/work/a").unwrap();

    // Not an admin: refused before any ring is touched.
    assert_eq!(fred.tracedump(None).unwrap_err(), Errno::EACCES);
    assert_eq!(fred.health().unwrap_err(), Errno::EACCES);

    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let dump = admin.tracedump(None).unwrap();
    assert_valid_json(&dump);
    assert!(
        dump.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "not a Chrome trace envelope: {}",
        &dump[..dump.len().min(60)]
    );
    assert!(dump.contains("\"ph\":\"X\""), "no complete-span events");
    // Fred's last request must be in the dump, joined by its trace id.
    let trace = fred.last_trace().unwrap();
    assert!(
        dump.contains(&trace.to_string()),
        "trace {trace} missing from dump"
    );

    // A trailing window of an hour still holds everything above; a
    // zero-second window is empty (or nearly — only events racing this
    // very call) yet still a valid document.
    let hour = admin.tracedump(Some(3600)).unwrap();
    assert_valid_json(&hour);
    assert!(hour.contains(&trace.to_string()));
    let nothing = admin.tracedump(Some(0)).unwrap();
    assert_valid_json(&nothing);

    handle.shutdown();
}

/// Tentpole acceptance, part 2: one pipelined request's trace id joins
/// the caller plane, the event-loop rpc plane, and the supervisor's
/// dispatch and policy planes in the flight recorder.
#[test]
fn pipelined_request_trace_joins_client_loop_and_policy_planes() {
    let (handle, ca) = spawn_observed("planes");
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/join", 0o755).unwrap();
    fred.put("/join/f", b"x").unwrap();

    let mut pipe = fred.pipeline();
    let idx = pipe.stat("/join/f");
    pipe.whoami();
    let replies = pipe.run().unwrap();
    let trace = replies[idx].trace;
    assert!(replies[idx].result.is_ok());

    let planes: std::collections::BTreeSet<&'static str> = flight::snapshot_since(0)
        .into_iter()
        .filter(|e| e.trace == Some(trace))
        .map(|e| e.plane)
        .collect();
    for plane in ["client", "rpc", "dispatch", "policy"] {
        assert!(
            planes.contains(plane),
            "plane {plane} missing for trace {trace}; saw {planes:?}"
        );
    }
    handle.shutdown();
}

/// The per-thread rings hold to their byte budget no matter how much
/// traffic pours through: after a 10k-RPC storm every ring is at or
/// under `IDBOX_TRACE_RING_KB` (the 256 KiB default here).
#[test]
fn flight_rings_stay_bounded_under_rpc_storm() {
    let (handle, ca) = spawn_observed("storm");
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/storm", 0o755).unwrap();
    fred.put("/storm/f", b"y").unwrap();
    for _ in 0..1000 {
        let mut pipe = fred.pipeline();
        for _ in 0..10 {
            pipe.stat("/storm/f");
        }
        pipe.run().unwrap();
    }
    let budget = flight::ring_budget_bytes();
    assert!(budget > 0, "recording must be on for this test");
    for (tid, events, bytes) in flight::ring_usage() {
        assert!(
            bytes <= budget,
            "ring tid={tid} holds {bytes} bytes ({events} events) over budget {budget}"
        );
    }
    // The storm certainly overflowed at least one server ring: 10k
    // traced requests × several events each never fit in 256 KiB.
    let total: usize = flight::ring_usage().iter().map(|(_, _, b)| b).sum();
    assert!(total > 0, "storm left no events at all");
    handle.shutdown();
}

/// The soft watchdog: a seeded slow-disk fault wedges one event-loop
/// worker past `loop_stall`; exactly one `loop-stall` audit row names
/// that worker, the other worker keeps serving throughout, and the
/// `health` rollup counts the stall.
#[test]
fn loop_stall_watchdog_flags_wedged_worker_and_others_keep_serving() {
    let (ca, verifier) = gsi_setup();
    let mut config = observed_config("watchdog");
    config.verifier = verifier;
    config.event_loops = 2;
    config.loop_stall = Some(Duration::from_millis(40));
    let handle = ChirpServer::new(config).unwrap().spawn().unwrap();

    // A slow disk, armed per operation: the hook sleeps, then asks the
    // errno stream (which stays empty here).
    let plan = FaultPlan::new(0x5EED);
    let hook_plan = plan.clone();
    handle.kernel().write().vfs_mut().set_fault_hook(Some(FaultHook::new(
        move |op, _ino| {
            if let Some(d) = hook_plan.vfs_slow(op) {
                std::thread::sleep(d);
            }
            hook_plan.vfs_fault(op)
        },
    )));

    // Connection ids are assigned round-robin to workers, so two
    // consecutive clients land on different event loops.
    let mut slow = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    let mut fast = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    slow.mkdir("/w", 0o755).unwrap();
    slow.put("/w/f", b"data").unwrap();
    let fd = slow.open("/w/f", OpenFlags::rdonly(), 0).unwrap();

    // Wedge `slow`'s worker for 150 ms — well past the 40 ms budget.
    plan.arm_vfs_slow(Duration::from_millis(150));
    let stalled = std::thread::spawn(move || {
        let t0 = std::time::Instant::now();
        slow.pread(fd, 4, 0).unwrap();
        t0.elapsed()
    });
    // Meanwhile the other worker's connection answers promptly.
    std::thread::sleep(Duration::from_millis(20));
    let t0 = std::time::Instant::now();
    fast.whoami().unwrap();
    let fast_elapsed = t0.elapsed();
    let stall_elapsed = stalled.join().unwrap();
    assert!(
        stall_elapsed >= Duration::from_millis(150),
        "pread should have been wedged, took {stall_elapsed:?}"
    );
    assert!(
        fast_elapsed < Duration::from_millis(100),
        "other worker stopped serving during the stall: {fast_elapsed:?}"
    );

    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let stalls: Vec<_> = admin
        .audit()
        .unwrap()
        .into_iter()
        .filter(|e| e.syscall == "loop-stall")
        .collect();
    assert_eq!(stalls.len(), 1, "expected exactly one stall row: {stalls:?}");
    assert_eq!(stalls[0].identity, "(server)");
    assert_eq!(stalls[0].verdict, "deny");
    let detail = stalls[0].path.as_deref().unwrap_or("");
    assert!(
        detail.contains("worker=") && detail.contains("cycle_ms="),
        "stall row lacks worker/cycle detail: {detail:?}"
    );

    let health = admin.health().unwrap();
    assert_eq!(health.stalls, 1);
    assert_eq!(health.workers, 2);
    handle.shutdown();
}

/// The `health` rollup reflects the runtime it summarizes: worker
/// count, live connections, loop-lag percentiles once traffic has run,
/// and zero stalls on a healthy server.
#[test]
fn health_rolls_up_runtime_counters() {
    let (handle, ca) = spawn_observed("health");
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/h", 0o755).unwrap();
    for i in 0..50 {
        fred.put(&format!("/h/f{i}"), b"z").unwrap();
    }
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let h = admin.health().unwrap();
    assert!(h.workers >= 2, "at least two event loops: {h:?}");
    assert!(h.conns >= 2, "both clients registered: {h:?}");
    assert_eq!(h.stalls, 0);
    assert_eq!(h.snap_failures, 0, "a volatile server never snapshots");
    assert!(
        h.loop_p99_us.is_some(),
        "traffic ran, so loop lag must have samples: {h:?}"
    );
    // The health RPC itself is in-flight while being counted.
    assert!(h.inflight >= 1, "{h:?}");
    handle.shutdown();
}

/// The `metrics` RPC exposes the new shard-lock and event-loop
/// families alongside the per-identity ones, every sample well-formed
/// — including under a hostile identity whose distinguished name
/// carries quotes and backslashes that must be escaped in labels.
#[test]
fn metrics_expose_lock_and_loop_families_with_hostile_identity_escaped() {
    let (handle, ca) = spawn_observed("families");
    let mut evil = ChirpClient::connect(handle.addr(), &creds(&ca, "Ev\"il\\Lab")).unwrap();
    evil.mkdir("/evil", 0o755).unwrap();
    evil.put("/evil/f", b"mwah").unwrap();

    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let text = admin.metrics().unwrap();

    for family in [
        "idbox_shard_lock_acquisitions_total",
        "idbox_shard_lock_waits_total",
        "idbox_shard_lock_wait_us_bucket",
        "idbox_loop_lag_us_bucket",
        "idbox_loop_wakeups_total",
        "idbox_loop_flushes_total",
        "idbox_loop_stalls_total",
        "idbox_loop_connections",
        "idbox_loop_outbuf_high_watermark_bytes",
    ] {
        assert!(text.contains(family), "family {family} missing");
    }
    // The vfs domain did real work above; its acquisition counter must
    // be a live sample, not just a header.
    assert!(
        text.lines()
            .any(|l| l.starts_with("idbox_shard_lock_acquisitions_total{domain=\"vfs\"")),
        "no vfs shard samples"
    );
    // The hostile DN appears exactly once per family it labels, with
    // its quote and backslash escaped.
    assert!(
        text.contains("Ev\\\"il\\\\Lab"),
        "hostile identity not escaped in exposition"
    );
    assert!(
        !text.contains("Ev\"il\\Lab\""),
        "raw unescaped identity leaked into a label"
    );

    // Structural check: every sample line is `name{{labels}} value`
    // with a numeric value and a TYPE header for its family
    // (histogram suffixes roll up to the base family).
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
            let base_ok = ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|s| name.strip_suffix(s))
                .any(|b| families.contains(b));
            assert!(
                families.contains(name) || base_ok,
                "sample {name} without TYPE header"
            );
        }
    }
    handle.shutdown();
}

/// The Prometheus surface cannot drift: a durable server after real
/// traffic exposes exactly these 23 families plus the 10 `idbox_wal_*`
/// ones, and both histogram families keep their log2 `le` edges
/// `1, 3, 7, …, 2^21-1, +Inf`.
#[test]
fn prometheus_family_set_and_histogram_edges_are_pinned() {
    const FAMILIES: [&str; 23] = [
        "idbox_syscalls_total",
        "idbox_bytes_read_total",
        "idbox_bytes_written_total",
        "idbox_bytes_in_total",
        "idbox_bytes_out_total",
        "idbox_denials_total",
        "idbox_reserve_amplifications_total",
        "idbox_verdict_cache_hits_total",
        "idbox_verdict_cache_misses_total",
        "idbox_rpcs_shed_total",
        "idbox_rpcs_retried_total",
        "idbox_active_sessions",
        "idbox_inflight_requests",
        "idbox_admission_shed_total",
        "idbox_shard_lock_acquisitions_total",
        "idbox_shard_lock_waits_total",
        "idbox_shard_lock_wait_us",
        "idbox_loop_lag_us",
        "idbox_loop_wakeups_total",
        "idbox_loop_flushes_total",
        "idbox_loop_stalls_total",
        "idbox_loop_connections",
        "idbox_loop_outbuf_high_watermark_bytes",
    ];
    const WAL_FAMILIES: [&str; 10] = [
        "idbox_wal_appends_total",
        "idbox_wal_bytes_total",
        "idbox_wal_fsyncs_total",
        "idbox_wal_snapshots_total",
        "idbox_wal_errors_total",
        "idbox_wal_log_bytes",
        "idbox_wal_records_since_snapshot",
        "idbox_wal_replayed_records_total",
        "idbox_wal_torn_tail_total",
        "idbox_wal_corrupt_frames_total",
    ];
    let dir = std::env::temp_dir().join(format!("idbox-chirp-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ca, _) = gsi_setup();
    let mut config = observed_config("golden");
    config.wal_dir = Some(dir.clone());
    let handle = ChirpServer::new(config).unwrap().spawn().unwrap();
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/golden", 0o755).unwrap();
    fred.put("/golden/f", b"pinned").unwrap();
    assert_eq!(fred.get("/golden/f").unwrap(), b"pinned");
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let text = admin.metrics().unwrap();

    let expected: std::collections::BTreeSet<String> = FAMILIES
        .iter()
        .chain(&WAL_FAMILIES)
        .map(|f| f.to_string())
        .collect();
    let families: std::collections::BTreeSet<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().unwrap().to_string())
        .collect();
    assert_eq!(families, expected);

    let edges: Vec<String> = (1..=21)
        .map(|i| ((1u64 << i) - 1).to_string())
        .chain(["+Inf".to_string()])
        .collect();
    for family in ["idbox_loop_lag_us", "idbox_shard_lock_wait_us"] {
        // `le` values of each series, in exposition order, keyed by the
        // series' other labels.
        let mut series: std::collections::BTreeMap<&str, Vec<String>> = Default::default();
        let prefix = format!("{family}_bucket{{");
        for line in text.lines().filter_map(|l| l.strip_prefix(prefix.as_str())) {
            let (labels, le) = line.split_once("le=\"").unwrap();
            series
                .entry(labels)
                .or_default()
                .push(le.split('"').next().unwrap().to_string());
        }
        assert!(!series.is_empty(), "{family} has no series");
        for (labels, les) in series {
            assert_eq!(les, edges, "{family}{{{labels}}} edges drifted");
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An authenticated connection that speaks raw protocol lines: no
/// trace token, no request id.
struct RawSession {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl idbox_auth::AuthTransport for RawSession {
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        use std::io::Write;
        writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .map_err(|e| e.to_string())
    }

    fn recv_line(&mut self) -> Result<String, String> {
        idbox_chirp::codec::read_line(&mut self.reader).map_err(|e| format!("{e:?}"))
    }
}

impl RawSession {
    fn connect(addr: std::net::SocketAddr, creds: &[ClientCredential]) -> RawSession {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut s = RawSession {
            reader: std::io::BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        idbox_auth::authenticate_client(&mut s, creds).unwrap();
        s
    }
}

/// `slowops` is a duration filter over the flight recorder: it lists
/// only the request phases (`rpc`, `exec`, `dispatch`, `policy`) at or
/// over the server's `slow_op_threshold`, each with its identity, and
/// an untraced raw-protocol request shows up with `-` as its trace. A
/// threshold above every span lists nothing.
#[test]
fn slowops_filters_the_flight_recorder_by_plane_and_threshold() {
    let (ca, _) = gsi_setup();
    let mut config = observed_config("slowops-filter");
    // Above anything the rest of this suite runs, except its deliberate
    // stalls; the exec below sleeps past it.
    config.slow_op_threshold = Duration::from_millis(40);
    let mut server = ChirpServer::new(config).unwrap();
    server.register_program("nap", |_, _| {
        std::thread::sleep(Duration::from_millis(60));
        0
    });
    let handle = server.spawn().unwrap();
    let mut quiet_config = observed_config("slowops-quiet");
    quiet_config.slow_op_threshold = Duration::from_secs(3600);
    let quiet = ChirpServer::new(quiet_config).unwrap().spawn().unwrap();

    let probe = "globus:/O=UnivNowhere/CN=RawProbe";
    let mut stager = ChirpClient::connect(handle.addr(), &creds(&ca, "RawProbe")).unwrap();
    stager.mkdir("/raw", 0o755).unwrap();
    stager.put_mode("/raw/nap.exe", b"#!guest nap\n", 0o755).unwrap();
    let mut raw = RawSession::connect(handle.addr(), &creds(&ca, "RawProbe"));
    idbox_auth::AuthTransport::send_line(&mut raw, "exec /raw/nap.exe").unwrap();
    assert_eq!(idbox_auth::AuthTransport::recv_line(&mut raw).unwrap(), "ok 0");

    // Every plane slowops must leave out, each far over the threshold.
    let excluded = ["client", "shard", "loop", "data", "shed", "retry"];
    let t0 = idbox_obs::now_unix_ns();
    for plane in excluded {
        flight::record_span(plane, "excluded-probe", None, None, t0, 1_000_000_000);
    }

    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let rows = admin.slowops().unwrap();
    for row in &rows {
        assert!(
            ["rpc", "exec", "dispatch", "policy"].contains(&row.phase.as_str()),
            "plane {} leaked into slowops: {row:?}",
            row.phase
        );
        assert!(row.dur_ns >= 40_000_000, "under the threshold: {row:?}");
        assert_ne!(row.name, "excluded-probe");
    }
    assert!(rows.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    let untraced_rpc = rows
        .iter()
        .find(|r| r.phase == "rpc" && r.name == "exec" && r.identity == probe)
        .unwrap_or_else(|| panic!("raw exec missing from {rows:?}"));
    assert_eq!(untraced_rpc.trace, None);
    assert!(rows
        .iter()
        .any(|r| r.phase == "exec" && r.name.ends_with("/raw/nap.exe") && r.identity == probe));

    let mut quiet_admin = ChirpClient::connect(quiet.addr(), &creds(&ca, "Admin")).unwrap();
    assert_eq!(quiet_admin.slowops().unwrap(), vec![]);
    quiet.shutdown();
    handle.shutdown();
}

/// The `slowops` reply carries at most the newest 512 qualifying spans,
/// oldest first.
#[test]
fn slowops_reply_is_capped_at_the_newest_512_rows() {
    let (ca, _) = gsi_setup();
    let mut config = observed_config("slowops-cap");
    config.slow_op_threshold = Duration::ZERO;
    let handle = ChirpServer::new(config).unwrap().spawn().unwrap();
    let mut fred = ChirpClient::connect(handle.addr(), &creds(&ca, "Fred")).unwrap();
    fred.mkdir("/cap", 0o755).unwrap();
    fred.stat("/cap").unwrap();
    let first = fred.last_trace().unwrap();
    // Each stat leaves an rpc, a policy and a dispatch span: well over
    // 512 newer than `first`.
    for _ in 0..300 {
        fred.stat("/cap").unwrap();
    }
    let last = fred.last_trace().unwrap();
    let mut admin = ChirpClient::connect(handle.addr(), &creds(&ca, "Admin")).unwrap();
    let rows = admin.slowops().unwrap();

    assert_eq!(rows.len(), 512);
    assert!(rows.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    assert!(!rows.iter().any(|r| r.trace == Some(first)), "oldest kept");
    // `last` is in the reply unless other tests running in this process
    // recorded 512 newer spans in between, which pushes the whole
    // window past it.
    let last_start = flight::snapshot_since(0)
        .into_iter()
        .find(|e| e.plane == "rpc" && e.trace == Some(last))
        .map(|e| e.ts_ns)
        .unwrap();
    assert!(
        rows.iter().any(|r| r.trace == Some(last)) || rows[0].start_ns > last_start,
        "newest rows missing"
    );
    handle.shutdown();
}
