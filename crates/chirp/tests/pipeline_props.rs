//! Wire protocol v2 tests: pipelining and batch RPCs.
//!
//! The core property: a pipelined transcript of mixed RPCs — including
//! frames shed while the server drains and seeded filesystem faults —
//! produces **byte-identical** per-request replies to the same ops run
//! serially in v1 style (no `id=` tokens, one request in flight).
//! Two identical deterministic servers are used as twins: one takes the
//! serial transcript, the other the pipelined one, and every reply head
//! and payload must match.
//!
//! Set `IDBOX_PROP_SEED` to reproduce a property-test failure exactly.

use idbox_acl::{Acl, Rights};
use idbox_auth::{
    authenticate_client, AuthTransport, CertificateAuthority, ClientCredential, ServerVerifier,
};
use idbox_chirp::{codec, BatchOp, ChirpClient, ChirpServer, ServerConfig};
use idbox_core::Verdict;
use idbox_types::{AuthMethod, Errno};
use idbox_vfs::FaultHook;
use proptest::fault::FaultPlan;
use proptest::prelude::*;
use std::io::{BufReader, Write};
use std::net::TcpStream;

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

fn root_acl() -> Acl {
    let mut acl = Acl::empty();
    acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    acl
}

fn spawn_twin(name: &str) -> idbox_chirp::ChirpServerHandle {
    let (_, verifier) = gsi_setup();
    ChirpServer::new(ServerConfig {
        name: name.to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap()
}

/// Wire a plan's Vfs errno stream into a server's filesystem.
fn hook_vfs(handle: &idbox_chirp::ChirpServerHandle, plan: &FaultPlan) {
    let plan = plan.clone();
    handle
        .kernel()
        .write()
        .vfs_mut()
        .set_fault_hook(Some(FaultHook::new(move |op, _ino| plan.vfs_fault(op))));
}

// ---------------------------------------------------------------------------
// A raw protocol client, for byte-level control over framing
// ---------------------------------------------------------------------------

struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct RawTransport<'a> {
    reader: &'a mut BufReader<TcpStream>,
    writer: &'a mut TcpStream,
}

impl AuthTransport for RawTransport<'_> {
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| e.to_string())
    }

    fn recv_line(&mut self) -> Result<String, String> {
        codec::read_line(self.reader).map_err(|e| format!("{e:?}"))
    }
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr, creds: &[ClientCredential]) -> RawClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        {
            let mut t = RawTransport {
                reader: &mut reader,
                writer: &mut writer,
            };
            authenticate_client(&mut t, creds).unwrap();
        }
        RawClient { reader, writer }
    }

    /// Read one reply for a request whose `ok` replies announce a
    /// payload iff `wants_payload`; returns the head line and payload.
    fn read_reply(&mut self, wants_payload: bool) -> (String, Option<Vec<u8>>) {
        let head = codec::read_line(&mut self.reader).unwrap();
        let payload = if wants_payload && head.starts_with("ok") {
            let len: u64 = head
                .split(' ')
                .nth(1)
                .and_then(|w| w.parse().ok())
                .expect("payload announce");
            Some(codec::read_payload(&mut self.reader, len).unwrap())
        } else {
            None
        };
        (head, payload)
    }
}

// ---------------------------------------------------------------------------
// The generated operation mix
// ---------------------------------------------------------------------------

/// One generated request over a small path universe (`/p0` … `/p5`,
/// nested files `/p<i>/f<j>`). Collisions (EEXIST, ENOENT, ENOTDIR…)
/// are the point: error replies must match byte-for-byte too. One `put`
/// in four carries a payload larger than the server's per-cycle read
/// budget, so the frames pipelined behind it queue while it is still
/// arriving.
#[derive(Debug, Clone)]
enum Op {
    Whoami,
    Mkdir(u32),
    Stat(u32, u32),
    Put(u32, u32, u32),
    Get(u32, u32),
    Readdir(u32),
    Getacl(u32),
    Unlink(u32, u32),
    Truncate(u32, u32, u32),
    Rename(u32, u32),
}

fn dir(d: u32) -> String {
    format!("/p{}", d % 6)
}

fn file(d: u32, f: u32) -> String {
    format!("/p{}/f{}", d % 6, f % 4)
}

/// The server's per-connection read budget per readiness cycle.
const READ_BUDGET: usize = 256 * 1024;

/// A `put` payload: under 50 bytes, or for one seed in four the read
/// budget plus a seeded remainder. Patterned by seed so a misplaced or
/// truncated byte changes later replies.
fn put_payload(n: u32) -> Vec<u8> {
    let len = if n.is_multiple_of(4) {
        READ_BUDGET + n as usize * 331 + 1
    } else {
        (n % 50) as usize
    };
    (0..len).map(|i| b'a' + ((i as u32 ^ n) % 26) as u8).collect()
}

impl Op {
    fn from_tuple((k, a, b, c): (u32, u32, u32, u32)) -> Op {
        match k % 10 {
            0 => Op::Whoami,
            1 => Op::Mkdir(a),
            2 => Op::Stat(a, b),
            3 => Op::Put(a, b, c),
            4 => Op::Get(a, b),
            5 => Op::Readdir(a),
            6 => Op::Getacl(a),
            7 => Op::Unlink(a, b),
            8 => Op::Truncate(a, b, c),
            _ => Op::Rename(a, b),
        }
    }

    /// The request line and payload.
    fn render(&self) -> (String, Vec<u8>) {
        match self {
            Op::Whoami => ("whoami".to_string(), Vec::new()),
            Op::Mkdir(d) => (format!("mkdir {} 493", dir(*d)), Vec::new()),
            Op::Stat(d, f) => (format!("stat {}", file(*d, *f)), Vec::new()),
            Op::Put(d, f, n) => {
                let data = put_payload(*n);
                (
                    format!("put {} {} 420", file(*d, *f), data.len()),
                    data,
                )
            }
            Op::Get(d, f) => (format!("get {}", file(*d, *f)), Vec::new()),
            Op::Readdir(d) => (format!("readdir {}", dir(*d)), Vec::new()),
            Op::Getacl(d) => (format!("getacl {}", dir(*d)), Vec::new()),
            Op::Unlink(d, f) => (format!("unlink {}", file(*d, *f)), Vec::new()),
            Op::Truncate(d, f, n) => {
                (format!("truncate {} {}", file(*d, *f), n % 80), Vec::new())
            }
            Op::Rename(a, b) => (format!("rename {} {}", dir(*a), dir(*b)), Vec::new()),
        }
    }

    /// Whether an `ok` reply announces a payload.
    fn wants_payload(&self) -> bool {
        matches!(self, Op::Get(..) | Op::Readdir(..) | Op::Getacl(..))
    }
}

/// Run `ops` serially, v1 style: one request on the wire at a time, no
/// `id=` token. Drain is toggled at the segment boundaries.
fn run_serial(
    handle: &idbox_chirp::ChirpServerHandle,
    creds: &[ClientCredential],
    ops: &[Op],
    seg: (usize, usize),
) -> Vec<(String, Option<Vec<u8>>)> {
    let mut c = RawClient::connect(handle.addr(), creds);
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if i == seg.0 {
            handle.begin_drain();
        }
        if i == seg.1 {
            handle.end_drain();
        }
        let (line, payload) = op.render();
        c.writer.write_all(line.as_bytes()).unwrap();
        c.writer.write_all(b"\n").unwrap();
        c.writer.write_all(&payload).unwrap();
        c.writer.flush().unwrap();
        out.push(c.read_reply(op.wants_payload()));
    }
    out
}

/// Run `ops` pipelined, v2 style: each segment goes out as one burst of
/// `id=`-stamped frames, replies are read back in order and their ids
/// verified. Drain is toggled between bursts, as in the serial run.
fn run_pipelined(
    handle: &idbox_chirp::ChirpServerHandle,
    creds: &[ClientCredential],
    ops: &[Op],
    seg: (usize, usize),
) -> Vec<(String, Option<Vec<u8>>)> {
    let mut c = RawClient::connect(handle.addr(), creds);
    let mut out = Vec::with_capacity(ops.len());
    let bounds = [0, seg.0, seg.1, ops.len()];
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo == seg.0 {
            handle.begin_drain();
        }
        if lo == seg.1 {
            handle.end_drain();
        }
        let mut burst = Vec::new();
        for (i, op) in ops[lo..hi].iter().enumerate() {
            let (line, payload) = op.render();
            let stamped = codec::with_id(&line, (i + 1) as u64);
            burst.extend_from_slice(stamped.as_bytes());
            burst.push(b'\n');
            burst.extend_from_slice(&payload);
        }
        if burst.is_empty() {
            continue;
        }
        // The burst can outgrow the socket buffers (large puts out, large
        // gets back), so it is written from a second thread while this
        // one reads the replies.
        let mut writer = c.writer.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            writer.write_all(&burst).unwrap();
            writer.flush().unwrap();
        });
        for (i, op) in ops[lo..hi].iter().enumerate() {
            let raw = codec::read_line(&mut c.reader).unwrap();
            let (head, id) = codec::strip_id(&raw);
            assert_eq!(id, Some((i + 1) as u64), "reply id mismatch on {raw:?}");
            let head = head.to_string();
            let payload = if op.wants_payload() && head.starts_with("ok") {
                let len: u64 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|w| w.parse().ok())
                    .expect("payload announce");
                Some(codec::read_payload(&mut c.reader, len).unwrap())
            } else {
                None
            };
            out.push((head, payload));
        }
        sender.join().unwrap();
    }
    out
}

proptest! {
    // Each case spawns two full servers; keep the count tight.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence property: pipelining changes the wire
    /// schedule, never the answers. Mixed metadata and data RPCs — with
    /// a drain window shedding EAGAIN mid-transcript and seeded vfs
    /// faults injecting EIOs — reply byte-identically to a serial v1
    /// run of the same transcript against an identical twin server.
    #[test]
    fn pipelined_transcript_matches_serial(
        raw_ops in proptest::collection::vec(
            (0u32..10u32, 0u32..6u32, 0u32..6u32, 0u32..100u32),
            1..32usize,
        ),
        cut_a in 0u32..100u32,
        cut_b in 0u32..100u32,
        eio_ppm in 0u32..150_000u32,
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(Op::from_tuple).collect();
        // Two boundaries inside the transcript: drain begins at the
        // first, ends at the second.
        let mut s0 = (cut_a as usize) % (ops.len() + 1);
        let mut s1 = (cut_b as usize) % (ops.len() + 1);
        if s0 > s1 {
            std::mem::swap(&mut s0, &mut s1);
        }
        let (ca, _) = gsi_setup();
        let creds = fred_creds(&ca);

        // Twin servers with twin fault plans: the same seeded EIO
        // stream strikes the same vfs operations on both sides.
        let serial = spawn_twin("twin-serial");
        let piped = spawn_twin("twin-piped");
        let plan_s = FaultPlan::with_rates(0xFA17, 0, eio_ppm);
        let plan_p = FaultPlan::with_rates(0xFA17, 0, eio_ppm);
        hook_vfs(&serial, &plan_s);
        hook_vfs(&piped, &plan_p);

        let want = run_serial(&serial, &creds, &ops, (s0, s1));
        let got = run_pipelined(&piped, &creds, &ops, (s0, s1));
        prop_assert_eq!(want, got);
        serial.shutdown();
        piped.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Batch RPC
// ---------------------------------------------------------------------------

/// A batch executes many metadata ops in one frame, reports per-op
/// results (including per-op errors), and costs one in-flight slot.
#[test]
fn batch_runs_many_metadata_ops_in_one_frame() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("batch");
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    c.mkdir("/work", 0o755).unwrap();
    c.put("/work/a", b"aaa").unwrap();
    c.put("/work/b", b"bb").unwrap();

    let replies = c
        .batch(&[
            BatchOp::Whoami,
            BatchOp::Stat("/work/a".to_string()),
            BatchOp::Stat("/missing".to_string()),
            BatchOp::Readdir("/work".to_string()),
            BatchOp::Rename {
                old: "/work/b".to_string(),
                new: "/work/c".to_string(),
            },
            BatchOp::Stat("/work/c".to_string()),
            BatchOp::Getacl("/work".to_string()),
        ])
        .unwrap();
    assert_eq!(replies.len(), 7);
    assert_eq!(
        replies[0].text().unwrap(),
        "globus:/O=UnivNowhere/CN=Fred"
    );
    assert_eq!(replies[1].stat().unwrap().size, 3);
    // A failed member does not fail the batch.
    assert_eq!(replies[2].result, Err(Errno::ENOENT));
    let listing = replies[3].text().unwrap();
    assert!(listing.contains('a') && listing.contains('b'), "{listing}");
    assert!(replies[4].result.is_ok());
    assert_eq!(replies[5].stat().unwrap().size, 2);
    assert!(replies[6].text().unwrap().contains("Fred"));

    // The batch really did execute: the rename is visible after.
    assert!(c.stat("/work/b").is_err());
    assert_eq!(c.stat("/work/c").unwrap().size, 2);
    c.quit().unwrap();
    handle.shutdown();
}

/// Sub-operations outside the metadata whitelist (payload-carrying or
/// exec-class verbs) are refused per-op with ENOSYS, not executed.
#[test]
fn batch_whitelist_refuses_non_metadata_verbs() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("batch-wl");
    let mut raw = RawClient::connect(handle.addr(), &fred_creds(&ca));
    let body = "whoami\nget /etc/passwd\nexec /x\nquit\n";
    raw.writer
        .write_all(format!("batch {}\n{}", body.len(), body).as_bytes())
        .unwrap();
    raw.writer.flush().unwrap();
    let (head, payload) = raw.read_reply(true);
    assert!(head.starts_with("ok"), "{head}");
    let text = String::from_utf8(payload.unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].starts_with("ok "), "{}", lines[0]);
    let enosys = format!("error {}", Errno::ENOSYS.code());
    assert_eq!(lines[1], enosys, "get must not run inside a batch");
    assert_eq!(lines[2], enosys, "exec must not run inside a batch");
    assert_eq!(lines[3], enosys, "quit must not run inside a batch");
    // The connection survives a batch with refused members.
    raw.writer.write_all(b"whoami\n").unwrap();
    raw.writer.flush().unwrap();
    let (head, _) = raw.read_reply(false);
    assert!(head.starts_with("ok"), "{head}");
    handle.shutdown();
}

/// An oversized batch (too many sub-ops) is refused whole with EINVAL.
#[test]
fn batch_over_the_op_cap_is_refused() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("batch-cap");
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    let ops: Vec<BatchOp> = (0..4097).map(|_| BatchOp::Whoami).collect();
    assert_eq!(c.batch(&ops), Err(Errno::EINVAL));
    // The connection is still healthy afterwards.
    assert!(c.whoami().is_ok());
    c.quit().unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol-error teardown (satellite: no more silent close)
// ---------------------------------------------------------------------------

/// A framing violation after auth — invalid UTF-8 in a command line —
/// is answered with `error EPROTO`, audited as a proto-shed, and only
/// then is the connection closed.
#[test]
fn protocol_error_replies_eproto_and_audits_before_close() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("proto");
    let mut raw = RawClient::connect(handle.addr(), &fred_creds(&ca));
    raw.writer.write_all(b"stat \xff\xfe\xfd\n").unwrap();
    raw.writer.flush().unwrap();
    let reply = codec::read_line(&mut raw.reader).unwrap();
    assert_eq!(reply, format!("error {}", Errno::EPROTO.code()));
    // …and then EOF, not a hang.
    assert_eq!(codec::read_line(&mut raw.reader), Err(Errno::EPIPE));
    let proto_rows: Vec<_> = handle
        .audit_ring()
        .snapshot()
        .into_iter()
        .filter(|e| e.syscall == "proto-shed")
        .collect();
    assert_eq!(proto_rows.len(), 1, "one audit row per violation");
    assert_eq!(proto_rows[0].verdict, Verdict::Deny);
    assert_eq!(proto_rows[0].errno, Some(Errno::EPROTO));
    assert_eq!(proto_rows[0].identity, "globus:/O=UnivNowhere/CN=Fred");
    handle.shutdown();
}

/// The same teardown before authentication completes: the violation is
/// audited against the placeholder identity.
#[test]
fn preauth_protocol_error_is_audited_unauthenticated() {
    let (_, verifier) = gsi_setup();
    let handle = ChirpServer::new(ServerConfig {
        name: "proto-preauth".to_string(),
        verifier,
        root_acl: root_acl(),
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"\xffgarbage\n").unwrap();
    writer.flush().unwrap();
    let reply = codec::read_line(&mut reader).unwrap();
    assert_eq!(reply, format!("error {}", Errno::EPROTO.code()));
    assert_eq!(codec::read_line(&mut reader), Err(Errno::EPIPE));
    let rows: Vec<_> = handle
        .audit_ring()
        .snapshot()
        .into_iter()
        .filter(|e| e.syscall == "proto-shed")
        .collect();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].identity, "(unauthenticated)");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Drain interleaving and recovery
// ---------------------------------------------------------------------------

/// `end_drain` reopens a drained server without a restart: sheds stop,
/// in-flight sessions continue, and the shed window is fully audited.
#[test]
fn drain_window_sheds_then_end_drain_recovers() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("drain-window");
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    c.mkdir("/work", 0o755).unwrap();

    handle.begin_drain();
    assert_eq!(c.whoami(), Err(Errno::EAGAIN));
    assert_eq!(c.stat("/work"), Err(Errno::EAGAIN));
    handle.end_drain();
    assert!(c.whoami().is_ok(), "end_drain must reopen the session");
    assert!(c.stat("/work").is_ok());

    let drain_sheds = handle
        .audit_ring()
        .snapshot()
        .into_iter()
        .filter(|e| {
            e.syscall == "rpc-shed" && e.path.as_deref().unwrap_or("").contains("drain")
        })
        .count();
    assert_eq!(drain_sheds, 2);
    c.quit().unwrap();
    handle.shutdown();
}

/// A pipelined burst straddling a drain toggle answers every frame:
/// sheds reply EAGAIN in order, with ids, and the connection survives.
#[test]
fn pipelined_burst_during_drain_sheds_every_frame_in_order() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("drain-burst");
    let creds = fred_creds(&ca);
    let mut setup = ChirpClient::connect(handle.addr(), &creds).unwrap();
    setup.mkdir("/work", 0o755).unwrap();
    setup.quit().unwrap();

    let mut raw = RawClient::connect(handle.addr(), &creds);
    handle.begin_drain();
    let mut burst = Vec::new();
    for i in 1..=8u64 {
        let line = codec::with_id("stat /work", i);
        burst.extend_from_slice(line.as_bytes());
        burst.push(b'\n');
    }
    raw.writer.write_all(&burst).unwrap();
    raw.writer.flush().unwrap();
    for i in 1..=8u64 {
        let reply = codec::read_line(&mut raw.reader).unwrap();
        let (head, id) = codec::strip_id(&reply);
        assert_eq!(id, Some(i));
        assert_eq!(head, format!("error {}", Errno::EAGAIN.code()));
    }
    handle.end_drain();
    // The same connection serves real work once the drain lifts.
    raw.writer
        .write_all(codec::with_id("stat /work", 9).as_bytes())
        .unwrap();
    raw.writer.write_all(b"\n").unwrap();
    raw.writer.flush().unwrap();
    let reply = codec::read_line(&mut raw.reader).unwrap();
    let (head, id) = codec::strip_id(&reply);
    assert_eq!(id, Some(9));
    assert!(head.starts_with("ok"), "{head}");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Pipeline client API
// ---------------------------------------------------------------------------

/// The high-level [`Pipeline`] builder: mixed queued ops come back in
/// order with per-op results and payloads.
#[test]
fn pipeline_builder_round_trips_mixed_ops() {
    let (ca, _) = gsi_setup();
    let handle = spawn_twin("pipe-api");
    let mut c = ChirpClient::connect(handle.addr(), &fred_creds(&ca)).unwrap();
    c.mkdir("/work", 0o755).unwrap();
    c.put("/work/data", b"pipelined bytes").unwrap();

    let mut p = c.pipeline();
    let i_who = p.whoami();
    let i_stat = p.stat("/work/data");
    let i_get = p.get("/work/data");
    let i_miss = p.stat("/nope");
    let i_dir = p.readdir("/work");
    assert_eq!(p.len(), 5);
    let replies = p.run().unwrap();
    assert_eq!(replies.len(), 5);
    assert_eq!(
        replies[i_who].result.as_ref().unwrap()[0],
        "globus:/O=UnivNowhere/CN=Fred"
    );
    assert!(replies[i_stat].result.is_ok());
    assert_eq!(
        replies[i_get].payload.as_deref(),
        Some(b"pipelined bytes".as_ref())
    );
    assert_eq!(replies[i_miss].result, Err(Errno::ENOENT));
    assert!(replies[i_dir].payload.is_some());
    // Each queued op carried its own trace id.
    assert_ne!(replies[i_who].trace, replies[i_get].trace);

    // The connection stays healthy for ordinary RPCs afterwards.
    assert!(c.whoami().is_ok());
    c.quit().unwrap();
    handle.shutdown();
}
