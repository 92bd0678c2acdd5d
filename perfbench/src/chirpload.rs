//! `chirp-meta` and `chirp-bulk`: one authenticated Globus connection
//! to a durable `ChirpServer` over loopback.
//!
//! Set-up boots a server on a fresh WAL directory, stages the seeded
//! namespace over the wire, snapshots, shuts the server down and boots
//! a second one from the same directory (replay), then connects. The
//! timed phase is a closed loop:
//!
//! * `chirp-meta` sends one RPC at a time over ~16k small files in 128
//!   directories: ~80% reads (stat, open/pread 4 KiB/close, readdir,
//!   getacl) and ~20% mutations (put 1 KiB, create, unlink, rename,
//!   mkdir/rmdir, setacl). Every 100th action is a forbidden `stat`
//!   that must fail with `EACCES`.
//! * `chirp-bulk` sends bursts of 16 pipelined whole-file `get`s over
//!   64 files of 1 MiB, each burst followed by two `put`s that replace a
//!   file with a new seeded version. A `get`'s latency is its burst's:
//!   from queueing to the burst's last byte.

use crate::report::{Abort, Report, Tally, Window};
use crate::rung::{self, Rung};
use crate::util::{self, Rng, Scratch};
use crate::{ledger, Config, Workload};
use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{
    codec, encode_word, export_path, ChirpClient, ChirpServer, ChirpServerHandle, ServerConfig,
};
use idbox_interpose::{GuestCtx, Supervisor};
use idbox_kernel::{OpenFlags, Pid};
use idbox_obs::LOOP_LAG_BUCKETS;
use idbox_types::{AuthMethod, CostModel, Errno, Identity, SysResult, ACL_FILE_NAME};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{IpAddr, SocketAddr};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CA_NAME: &str = "/O=UnivNowhere CA";
const CA_KEY: u64 = 0xBE7C4;
const BENCH: &str = "/O=UnivNowhere/CN=Bench";
const WARDEN: &str = "/O=UnivNowhere/CN=Warden";
const FRIEND: &str = "globus:/O=UnivNowhere/CN=Friend";
/// A file only the warden may touch; the forbidden probe stats it.
const VAULT_SECRET: &str = "/vault/secret";

/// Set-ups per run; `setup_s` and `wal.replay_s` are their medians.
const SETUPS: usize = 3;
/// Pipelined staging burst.
const STAGE_BURST: usize = 64;
/// RPCs in one chirp-meta round (its `build_ms` unit).
const META_ROUND: u64 = 1000;
/// Pipeline depth of a chirp-bulk burst.
const BULK_DEPTH: usize = 16;
/// Puts after each chirp-bulk burst.
const BULK_PUTS: usize = 2;
/// Bursts in one chirp-bulk round (its `build_ms` unit).
const BULK_ROUND: u64 = 4;
/// Length of one window of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);

fn bench_identity() -> Identity {
    Identity::new(format!("globus:{BENCH}"))
}

/// Read RPCs and mutating RPCs are reported apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// One client action, with the result the model expects.
#[derive(Debug, Clone)]
pub enum Op {
    Stat {
        path: String,
        size: u64,
    },
    /// `open`, `pread` of 4 KiB at 0, `close`.
    ReadFile {
        path: String,
        size: u64,
    },
    /// `names`: entries besides `.`, `..` and the ACL file.
    Readdir {
        path: String,
        names: usize,
    },
    Getacl {
        path: String,
    },
    /// A `stat` of [`VAULT_SECRET`]: must fail with `EACCES`.
    Probe,
    Put {
        path: String,
        data: Vec<u8>,
    },
    Rename {
        from: String,
        to: String,
    },
    Unlink {
        path: String,
    },
    Mkdir {
        path: String,
    },
    Rmdir {
        path: String,
    },
    Setacl {
        path: String,
        acl: Acl,
    },
    Get {
        path: String,
        len: usize,
        hash: u64,
    },
}

impl Op {
    fn class(&self) -> Class {
        match self {
            Op::Stat { .. }
            | Op::ReadFile { .. }
            | Op::Readdir { .. }
            | Op::Getacl { .. }
            | Op::Probe
            | Op::Get { .. } => Class::Read,
            _ => Class::Write,
        }
    }

    fn rpcs(&self) -> u64 {
        self.kinds().len() as u64
    }

    /// The RPCs the action sends, in order.
    fn kinds(&self) -> &'static [&'static str] {
        match self {
            Op::Stat { .. } | Op::Probe => &["stat"],
            Op::ReadFile { .. } => &["open", "pread", "close"],
            Op::Readdir { .. } => &["readdir"],
            Op::Getacl { .. } => &["getacl"],
            Op::Put { .. } => &["put"],
            Op::Rename { .. } => &["rename"],
            Op::Unlink { .. } => &["unlink"],
            Op::Mkdir { .. } => &["mkdir"],
            Op::Rmdir { .. } => &["rmdir"],
            Op::Setacl { .. } => &["setacl"],
            Op::Get { .. } => &["get"],
        }
    }

    /// Bytes the client asks the server to store.
    fn user_bytes(&self) -> u64 {
        match self {
            Op::Put { data, .. } => data.len() as u64,
            Op::Setacl { acl, .. } => acl.to_text().len() as u64,
            _ => 0,
        }
    }

    /// The (first) request line and a reply of the shape it gets, for
    /// the codec probe.
    fn lines(&self) -> (String, &'static str) {
        const STAT_REPLY: &str = "ok 4242 1 420 1000 1000 1 1024 77 78 79";
        let w = |p: &str| encode_word(p);
        match self {
            Op::Stat { path, .. } => (format!("stat {}", w(path)), STAT_REPLY),
            Op::ReadFile { path, .. } => (format!("open {} 0 0", w(path)), "ok 3"),
            Op::Readdir { path, .. } => (format!("readdir {}", w(path)), "ok 2048"),
            Op::Getacl { path } => (format!("getacl {}", w(path)), "ok 64"),
            Op::Probe => (format!("stat {}", w(VAULT_SECRET)), "error 13"),
            Op::Put { path, data } => (format!("put {} {} 420", w(path), data.len()), "ok"),
            Op::Rename { from, to } => (format!("rename {} {}", w(from), w(to)), "ok"),
            Op::Unlink { path } => (format!("unlink {}", w(path)), "ok"),
            Op::Mkdir { path } => (format!("mkdir {} 493", w(path)), "ok"),
            Op::Rmdir { path } => (format!("rmdir {}", w(path)), "ok"),
            Op::Setacl { path, acl } => {
                (format!("setacl {} {}", w(path), acl.to_text().len()), "ok")
            }
            Op::Get { path, .. } => (format!("get {}", w(path)), "ok 1048576"),
        }
    }
}

/// How an action went wrong.
#[derive(Debug)]
enum Fault {
    Err(Errno),
    Wrong(String),
    FailOpen,
}

impl From<Errno> for Fault {
    fn from(e: Errno) -> Fault {
        Fault::Err(e)
    }
}

fn expect(ok: bool, what: impl FnOnce() -> String) -> Result<(), Fault> {
    if ok {
        Ok(())
    } else {
        Err(Fault::Wrong(what()))
    }
}

/// Named entries of a listing, without `.`, `..` and the ACL file.
fn named(entries: &[idbox_vfs::DirEntry]) -> usize {
    entries
        .iter()
        .filter(|e| !matches!(e.name.as_str(), "." | ".." | ACL_FILE_NAME))
        .count()
}

fn probe_answer<T>(r: SysResult<T>) -> Result<(), Fault> {
    match r {
        Err(Errno::EACCES) => Ok(()),
        Ok(_) => Err(Fault::FailOpen),
        Err(e) => Err(Fault::Err(e)),
    }
}

/// Time one RPC into `lat` (µs).
fn time<T>(lat: &mut Vec<(Class, f64)>, class: Class, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    lat.push((class, t.elapsed().as_secs_f64() * 1e6));
    v
}

/// Run `op` over the wire; per-RPC latencies go to `lat`. Returns the
/// payload bytes moved.
fn on_wire(
    c: &mut ChirpClient,
    op: &Op,
    id: &Identity,
    lat: &mut Vec<(Class, f64)>,
) -> Result<u64, Fault> {
    let k = op.class();
    Ok(match op {
        Op::Stat { path, size } => {
            let st = time(lat, k, || c.stat(path))?;
            expect(st.size == *size, || {
                format!("stat {path}: size {} != {size}", st.size)
            })?;
            0
        }
        Op::ReadFile { path, size } => {
            let fd = time(lat, k, || c.open(path, OpenFlags::rdonly(), 0))?;
            let data = time(lat, k, || c.pread(fd, 4096, 0))?;
            time(lat, k, || c.close(fd))?;
            let want = (*size).min(4096);
            expect(data.len() as u64 == want, || {
                format!("pread {path}: {} != {want}", data.len())
            })?;
            want
        }
        Op::Readdir { path, names } => {
            let entries = time(lat, k, || c.readdir(path))?;
            let n = named(&entries);
            expect(n == *names, || format!("readdir {path}: {n} != {names}"))?;
            0
        }
        Op::Getacl { path } => {
            let acl = time(lat, k, || c.getacl(path))?;
            expect(acl.rights_for(id).contains(Rights::READ), || {
                format!("getacl {path}")
            })?;
            0
        }
        Op::Probe => {
            probe_answer(time(lat, k, || c.stat(VAULT_SECRET)))?;
            0
        }
        Op::Put { path, data } => {
            time(lat, k, || c.put(path, data))?;
            data.len() as u64
        }
        Op::Rename { from, to } => {
            time(lat, k, || c.rename(from, to))?;
            0
        }
        Op::Unlink { path } => {
            time(lat, k, || c.unlink(path))?;
            0
        }
        Op::Mkdir { path } => {
            time(lat, k, || c.mkdir(path, 0o755))?;
            0
        }
        Op::Rmdir { path } => {
            time(lat, k, || c.rmdir(path))?;
            0
        }
        Op::Setacl { path, acl } => {
            time(lat, k, || c.setacl(path, acl))?;
            0
        }
        Op::Get { path, len, hash } => {
            let data = time(lat, k, || c.get(path))?;
            expect(data.len() == *len && util::hash64(&data) == *hash, || {
                format!("get {path}: content is not the version last written")
            })?;
            data.len() as u64
        }
    })
}

/// Run `op` through an in-process supervisor on the server's kernel,
/// exactly as the server's dispatch would.
fn in_process(
    ctx: &mut GuestCtx<'_>,
    op: &Op,
    id: &Identity,
    lat: &mut Vec<(Class, f64)>,
) -> Result<(), Fault> {
    let k = op.class();
    let acl_path = |dir: &str| format!("{}/{ACL_FILE_NAME}", export_path(dir));
    match op {
        Op::Stat { path, size } => {
            let st = time(lat, k, || ctx.stat(&export_path(path)))?;
            expect(st.size == *size, || format!("stat {path}"))
        }
        Op::ReadFile { path, size } => {
            let fd = time(lat, k, || {
                ctx.open(&export_path(path), OpenFlags::rdonly(), 0)
            })?;
            let x = time(lat, k, || ctx.pread_extents(fd, 4096, 0))?;
            time(lat, k, || ctx.close(fd))?;
            expect(x.total as u64 == (*size).min(4096), || {
                format!("pread {path}")
            })
        }
        Op::Readdir { path, names } => {
            let entries = time(lat, k, || ctx.readdir(&export_path(path)))?;
            expect(named(&entries) == *names, || format!("readdir {path}"))
        }
        Op::Getacl { path } => {
            let text = time(lat, k, || ctx.read_file(&acl_path(path)))?;
            let acl = Acl::parse(&String::from_utf8_lossy(&text))
                .map_err(|_| Fault::Wrong(format!("getacl {path}: unparsable")))?;
            expect(acl.rights_for(id).contains(Rights::READ), || {
                format!("getacl {path}")
            })
        }
        Op::Probe => probe_answer(time(lat, k, || ctx.stat(&export_path(VAULT_SECRET)))),
        Op::Put { path, data } => Ok(time(lat, k, || {
            ctx.write_file_mode(&export_path(path), data, 0o644)
        })?),
        Op::Rename { from, to } => Ok(time(lat, k, || {
            ctx.rename(&export_path(from), &export_path(to))
        })?),
        Op::Unlink { path } => Ok(time(lat, k, || ctx.unlink(&export_path(path)))?),
        Op::Mkdir { path } => Ok(time(lat, k, || ctx.mkdir(&export_path(path), 0o755))?),
        Op::Rmdir { path } => Ok(time(lat, k, || {
            // The box policy removes a directory's ACL file when that is
            // all that keeps it from being empty; the direct rung has no
            // policy, so it does the same by hand.
            ctx.rmdir(&export_path(path)).or_else(|e| {
                if e != Errno::ENOTEMPTY {
                    return Err(e);
                }
                ctx.unlink(&acl_path(path))?;
                ctx.rmdir(&export_path(path))
            })
        })?),
        Op::Setacl { path, acl } => Ok(time(lat, k, || {
            ctx.write_file(&acl_path(path), acl.to_text().as_bytes())
        })?),
        Op::Get { path, len, .. } => {
            let x = time(lat, k, || ctx.read_file_extents(&export_path(path)))?;
            expect(x.total == *len, || format!("get {path}"))
        }
    }
}

/// A seeded op stream over a model of the namespace.
pub trait Stream {
    /// The next action; the model is updated as if it succeeded.
    fn next_op(&mut self) -> Op;
    /// Stage the initial namespace over `c`.
    fn stage(&self, c: &mut ChirpClient) -> SysResult<()>;
    /// Whether forbidden probes are mixed in (off for the ladder, whose
    /// direct rung enforces no policy).
    fn set_probes(&mut self, on: bool);
}

/// Run pipelined mkdirs and puts in bursts.
fn stage_all(
    c: &mut ChirpClient,
    dirs: &[String],
    files: &mut dyn Iterator<Item = (String, Vec<u8>)>,
) -> SysResult<()> {
    for chunk in dirs.chunks(STAGE_BURST) {
        let mut p = c.pipeline();
        for d in chunk {
            p.mkdir(d, 0o755);
        }
        for r in p.run()? {
            r.result?;
        }
    }
    loop {
        let burst: Vec<_> = files.take(STAGE_BURST).collect();
        if burst.is_empty() {
            return Ok(());
        }
        let mut p = c.pipeline();
        for (path, data) in &burst {
            p.put(path, data);
        }
        for r in p.run()? {
            r.result?;
        }
    }
}

struct DirModel {
    path: String,
    files: Vec<(String, u64)>,
    /// Whether the scratch subdirectory `s` exists.
    sub: bool,
    /// Whether the ACL currently grants the friend read access.
    friend: bool,
}

/// chirp-meta's stream.
pub struct MetaGen {
    seed: u64,
    rng: Rng,
    dirs: Vec<DirModel>,
    /// Initial sizes, in staging order.
    staged: Vec<(String, u64)>,
    next_name: u64,
    actions: u64,
    probes: bool,
    identity: Identity,
}

impl MetaGen {
    pub fn new(seed: u64, ndirs: usize, per_dir: usize) -> MetaGen {
        let mut rng = Rng::new(seed);
        let dirs: Vec<DirModel> = (0..ndirs)
            .map(|d| DirModel {
                path: format!("/d{d:03}"),
                files: (0..per_dir)
                    .map(|f| (format!("f{f:04}"), 256 + rng.below(3841) as u64))
                    .collect(),
                sub: false,
                friend: false,
            })
            .collect();
        let staged = dirs
            .iter()
            .flat_map(|d| {
                d.files
                    .iter()
                    .map(move |(n, s)| (format!("{}/{n}", d.path), *s))
            })
            .collect();
        MetaGen {
            seed,
            rng: Rng::new(seed ^ 0x4D45_5441),
            dirs,
            staged,
            next_name: 0,
            actions: 0,
            probes: true,
            identity: bench_identity(),
        }
    }

    /// A random existing file: (dir index, file index).
    fn pick(&mut self) -> (usize, usize) {
        let d = self.rng.below(self.dirs.len());
        (d, self.rng.below(self.dirs[d].files.len()))
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.next_name += 1;
        format!("{prefix}{:06}", self.next_name)
    }
}

impl Stream for MetaGen {
    fn next_op(&mut self) -> Op {
        self.actions += 1;
        if self.probes && self.actions.is_multiple_of(100) {
            return Op::Probe;
        }
        let (d, f) = self.pick();
        let path = |g: &MetaGen, d: usize, f: usize| {
            format!("{}/{}", g.dirs[d].path, g.dirs[d].files[f].0)
        };
        // Weights per action; ReadFile is three RPCs, so reads are
        // ~79% of RPCs.
        match self.rng.below(74) {
            0..=35 => Op::Stat {
                path: path(self, d, f),
                size: self.dirs[d].files[f].1,
            },
            36..=45 => Op::ReadFile {
                path: path(self, d, f),
                size: self.dirs[d].files[f].1,
            },
            46..=49 => Op::Readdir {
                path: self.dirs[d].path.clone(),
                names: self.dirs[d].files.len() + usize::from(self.dirs[d].sub),
            },
            50..=53 => Op::Getacl {
                path: self.dirs[d].path.clone(),
            },
            54..=61 => {
                self.dirs[d].files[f].1 = 1024;
                Op::Put {
                    path: path(self, d, f),
                    data: self.rng.bytes(1024),
                }
            }
            62..=64 => {
                let name = self.fresh_name("n");
                self.dirs[d].files.push((name, 1024));
                let f = self.dirs[d].files.len() - 1;
                Op::Put {
                    path: path(self, d, f),
                    data: self.rng.bytes(1024),
                }
            }
            65..=67 if self.dirs[d].files.len() > 1 => {
                let p = path(self, d, f);
                self.dirs[d].files.swap_remove(f);
                Op::Unlink { path: p }
            }
            65..=70 => {
                let from = path(self, d, f);
                self.dirs[d].files[f].0 = self.fresh_name("r");
                Op::Rename {
                    from,
                    to: path(self, d, f),
                }
            }
            71..=72 => {
                let dir = &mut self.dirs[d];
                dir.sub = !dir.sub;
                let path = format!("{}/s", dir.path);
                if dir.sub {
                    Op::Mkdir { path }
                } else {
                    Op::Rmdir { path }
                }
            }
            _ => {
                let dir = &mut self.dirs[d];
                dir.friend = !dir.friend;
                let mut acl = Acl::reserved(&self.identity, Rights::RWLAX);
                if dir.friend {
                    acl.set(FRIEND, Rights::READ | Rights::LIST);
                }
                Op::Setacl {
                    path: dir.path.clone(),
                    acl,
                }
            }
        }
    }

    fn stage(&self, c: &mut ChirpClient) -> SysResult<()> {
        let dirs: Vec<String> = self.dirs.iter().map(|d| d.path.clone()).collect();
        let seed = self.seed;
        let mut files = self.staged.iter().enumerate().map(|(i, (p, size))| {
            (
                p.clone(),
                Rng::new(seed ^ (i as u64) << 20).bytes(*size as usize),
            )
        });
        stage_all(c, &dirs, &mut files)
    }

    fn set_probes(&mut self, on: bool) {
        self.probes = on;
    }
}

/// chirp-bulk's stream: `BULK_DEPTH` gets, then `BULK_PUTS` puts.
pub struct BulkGen {
    seed: u64,
    rng: Rng,
    base: Vec<u8>,
    versions: Vec<u64>,
    hashes: Vec<u64>,
    step: usize,
    probes: bool,
}

impl BulkGen {
    pub fn new(seed: u64, files: usize, size: usize) -> BulkGen {
        let mut g = BulkGen {
            seed,
            rng: Rng::new(seed ^ 0x4255_4C4B),
            base: Rng::new(seed).bytes(size),
            versions: vec![0; files],
            hashes: Vec::new(),
            step: 0,
            probes: true,
        };
        g.hashes = (0..files).map(|f| util::hash64(&g.content(f, 0))).collect();
        g
    }

    fn path(f: usize) -> String {
        format!("/bulk/f{f:02}")
    }

    /// Version `v` of file `f`: the seeded base with a stamp in every
    /// 4 KiB page, so each version differs on every page.
    fn content(&self, f: usize, v: u64) -> Vec<u8> {
        let mut data = self.base.clone();
        for page in (0..data.len().saturating_sub(8)).step_by(4096) {
            let stamp = Rng::new(self.seed ^ (f as u64) << 40 ^ v << 20 ^ page as u64).next_u64();
            data[page..page + 8].copy_from_slice(&stamp.to_le_bytes());
        }
        data
    }

    fn get(&mut self) -> Op {
        let f = self.rng.below(self.versions.len());
        Op::Get {
            path: Self::path(f),
            len: self.base.len(),
            hash: self.hashes[f],
        }
    }

    fn put(&mut self) -> Op {
        let f = self.rng.below(self.versions.len());
        self.versions[f] += 1;
        let data = self.content(f, self.versions[f]);
        self.hashes[f] = util::hash64(&data);
        Op::Put {
            path: Self::path(f),
            data,
        }
    }
}

impl Stream for BulkGen {
    fn next_op(&mut self) -> Op {
        self.step = (self.step + 1) % (BULK_DEPTH + BULK_PUTS);
        if self.step < BULK_DEPTH {
            self.get()
        } else {
            self.put()
        }
    }

    fn stage(&self, c: &mut ChirpClient) -> SysResult<()> {
        let mut files = (0..self.versions.len()).map(|f| (Self::path(f), self.content(f, 0)));
        stage_all(c, &["/bulk".to_string()], &mut files)
    }

    fn set_probes(&mut self, on: bool) {
        self.probes = on;
    }
}

/// Every `ServerConfig` field, set here rather than left to a default
/// or the environment.
pub fn server_config(ca: &CertificateAuthority, wal_dir: Option<PathBuf>) -> ServerConfig {
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    let mut host_db = BTreeMap::new();
    host_db.insert(IpAddr::from([127, 0, 0, 1]), "localhost".to_string());
    ServerConfig {
        name: "perfbench".to_string(),
        verifier,
        root_acl,
        cost_model: CostModel::free_switches(),
        host_db,
        catalog: None,
        heartbeat: Duration::from_secs(60),
        io_timeout: None,
        max_connections: 64,
        admins: Vec::new(),
        slow_op_threshold: Duration::from_millis(1),
        busy_watermark: None,
        max_inflight_per_identity: None,
        drain_deadline: Duration::from_secs(1),
        event_loops: 2,
        loop_stall: Some(Duration::ZERO),
        copy_data_plane: false,
        wal_dir,
        wal_sync_ops: Some(65536),
        wal_sync_ms: Some(25),
        wal_snapshot_ops: Some(10_000),
    }
}

/// The resolved server configuration, one line.
pub fn describe_config(durable: bool) -> String {
    let c = server_config(&CertificateAuthority::new(CA_NAME, CA_KEY), None);
    format!(
        "server_config name={} auth=globus cost_model={:?} event_loops={} max_connections={} \
         io_timeout={:?} busy_watermark={:?} max_inflight_per_identity={:?} loop_stall={:?} \
         slow_op_threshold={:?} drain_deadline={:?} copy_data_plane={} catalog={:?} wal={} \
         wal_sync_ops={:?} wal_sync_ms={:?} wal_snapshot_ops={:?}",
        c.name,
        c.cost_model,
        c.event_loops,
        c.max_connections,
        c.io_timeout,
        c.busy_watermark,
        c.max_inflight_per_identity,
        c.loop_stall,
        c.slow_op_threshold,
        c.drain_deadline,
        c.copy_data_plane,
        c.catalog,
        if durable { "scratch-dir" } else { "off" },
        c.wal_sync_ops,
        c.wal_sync_ms,
        c.wal_snapshot_ops
    )
}

fn setup_err(what: &str) -> impl Fn(Errno) -> Abort + '_ {
    move |e| Abort::Setup(format!("{what}: {e:?}"))
}

fn connect(
    addr: SocketAddr,
    ca: &CertificateAuthority,
    subject: &str,
) -> Result<ChirpClient, Abort> {
    ChirpClient::connect(addr, &[ClientCredential::Globus(ca.issue(subject))])
        .map_err(setup_err("connect"))
}

/// A running server with the benchmark's connection.
pub struct Served {
    pub handle: ChirpServerHandle,
    ca: CertificateAuthority,
    pub client: ChirpClient,
    wal_dir: Option<PathBuf>,
    /// Start to connected, staged and (when durable) restarted.
    pub setup: Duration,
    /// `ChirpServer::new` on the staged WAL directory.
    pub replay: Duration,
}

impl Served {
    fn stop(self) {
        let _ = self.client.quit();
        self.handle.shutdown();
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn spawn(
    ca: &CertificateAuthority,
    wal_dir: Option<PathBuf>,
) -> Result<(ChirpServer, Duration), Abort> {
    let t = Instant::now();
    let s = ChirpServer::new(server_config(ca, wal_dir)).map_err(setup_err("server"))?;
    Ok((s, t.elapsed()))
}

/// Boot, stage, and (when durable) restart from the staged WAL.
fn boot(scratch: &Scratch, durable: bool, stream: &dyn Stream) -> Result<Served, Abort> {
    let t0 = Instant::now();
    let ca = CertificateAuthority::new(CA_NAME, CA_KEY);
    let wal_dir = durable.then(|| scratch.path("chirp-wal"));
    let io = |e: std::io::Error| Abort::Setup(format!("server: {e}"));
    let first = spawn(&ca, wal_dir.clone())?.0.spawn().map_err(io)?;
    let mut c = connect(first.addr(), &ca, BENCH)?;
    stream.stage(&mut c).map_err(setup_err("staging"))?;
    let mut w = connect(first.addr(), &ca, WARDEN)?;
    w.mkdir("/vault", 0o700).map_err(setup_err("vault"))?;
    w.put(VAULT_SECRET, b"keep out")
        .map_err(setup_err("vault secret"))?;
    let _ = w.quit();
    let (handle, replay) = if durable {
        let _ = c.quit();
        {
            let k = first.kernel().read();
            k.wal_snapshot().map_err(io)?;
            if let Some(wal) = k.vfs().wal() {
                wal.sync();
            }
        }
        first.shutdown();
        let (s, replay) = spawn(&ca, wal_dir.clone())?;
        if !s.recovery().is_some_and(|r| r.restored) {
            return Err(Abort::Setup(
                "restart did not restore the staged namespace".into(),
            ));
        }
        (s.spawn().map_err(io)?, replay)
    } else {
        let _ = c.quit();
        (first, Duration::ZERO)
    };
    let client = connect(handle.addr(), &ca, BENCH)?;
    Ok(Served {
        handle,
        ca,
        client,
        wal_dir,
        setup: t0.elapsed(),
        replay,
    })
}

/// Server-side and process counters, sampled around windows.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cpu_s: f64,
    allocs: u64,
    syscalls: u64,
    dentry: [u64; 2],
    verdicts: [u64; 2],
    denials: u64,
    wakeups: u64,
    flushes: u64,
    lag: [u64; LOOP_LAG_BUCKETS],
    wal: [u64; 4],
}

impl Counters {
    fn sample(h: &ChirpServerHandle, id: &Identity) -> Counters {
        let k = h.kernel().read();
        let ident = h.metrics().handle(id.as_str());
        let loops = h.loop_stats();
        let wal = k.vfs().wal().map(|w| w.stats());
        Counters {
            cpu_s: util::process_cpu().as_secs_f64(),
            allocs: util::allocs(),
            syscalls: k.total_syscalls(),
            dentry: {
                let (hit, miss) = k.vfs().dentry_stats();
                [hit, miss]
            },
            verdicts: [ident.verdict_cache_hits(), ident.verdict_cache_misses()],
            denials: ident.denials(),
            wakeups: loops.workers().iter().map(|w| w.wakeups()).sum(),
            flushes: loops.workers().iter().map(|w| w.flushes()).sum(),
            lag: loops.lag_buckets(),
            wal: wal.map_or([0; 4], |s| {
                [s.appends, s.append_bytes, s.fsyncs, s.snapshots]
            }),
        }
    }

    /// `self - earlier`, field by field.
    fn since(&self, e: &Counters) -> Counters {
        Counters {
            cpu_s: self.cpu_s - e.cpu_s,
            allocs: self.allocs - e.allocs,
            syscalls: self.syscalls - e.syscalls,
            dentry: std::array::from_fn(|i| self.dentry[i] - e.dentry[i]),
            verdicts: std::array::from_fn(|i| self.verdicts[i] - e.verdicts[i]),
            denials: self.denials - e.denials,
            wakeups: self.wakeups - e.wakeups,
            flushes: self.flushes - e.flushes,
            lag: std::array::from_fn(|i| self.lag[i] - e.lag[i]),
            wal: std::array::from_fn(|i| self.wal[i] - e.wal[i]),
        }
    }

    fn add(&mut self, d: &Counters) {
        self.cpu_s += d.cpu_s;
        self.allocs += d.allocs;
        self.syscalls += d.syscalls;
        self.denials += d.denials;
        self.wakeups += d.wakeups;
        self.flushes += d.flushes;
        for i in 0..2 {
            self.dentry[i] += d.dentry[i];
            self.verdicts[i] += d.verdicts[i];
        }
        for i in 0..LOOP_LAG_BUCKETS {
            self.lag[i] += d.lag[i];
        }
        for i in 0..4 {
            self.wal[i] += d.wal[i];
        }
    }
}

/// What the client saw over some span of the timed phase.
#[derive(Debug, Default)]
struct Wire {
    lat: Vec<(Class, f64)>,
    /// Round wall times, ms.
    rounds: Vec<f64>,
    tally: Tally,
    rpcs: u64,
    payload: u64,
    user_bytes: u64,
    wall_s: f64,
}

impl Wire {
    /// Account one action's outcome; a fail-open aborts the run.
    fn account(
        &mut self,
        op: &Op,
        lat: &mut Vec<(Class, f64)>,
        r: Result<u64, Fault>,
    ) -> Result<(), Abort> {
        self.tally.attempted += op.rpcs();
        self.rpcs += op.rpcs();
        match r {
            Ok(bytes) => {
                self.payload += bytes;
                self.user_bytes += op.user_bytes();
                self.lat.append(lat);
            }
            Err(Fault::FailOpen) => {
                return Err(Abort::FailOpen(format!("{op:?} succeeded without rights")))
            }
            Err(Fault::Wrong(what)) => {
                self.tally.failed += op.rpcs();
                self.tally.wrong += op.rpcs();
                eprintln!("wrong result: {what}");
            }
            Err(Fault::Err(e)) => {
                self.tally.failed += op.rpcs();
                eprintln!("failed: {op:?}: {e:?}");
            }
        }
        lat.clear();
        Ok(())
    }

    fn samples(&self, class: Class) -> Vec<f64> {
        self.lat
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, v)| *v)
            .collect()
    }

    fn window(&self, cpu_s: f64) -> Window {
        Window {
            wall_s: self.wall_s,
            cpu_s,
            ops: self.rpcs,
            bytes: self.payload,
            reads: self.samples(Class::Read),
            writes: self.samples(Class::Write),
            units: self.rounds.clone(),
        }
    }

    fn merge(&mut self, mut other: Wire) {
        self.lat.append(&mut other.lat);
        self.rounds.append(&mut other.rounds);
        self.tally.add(other.tally);
        self.rpcs += other.rpcs;
        self.payload += other.payload;
        self.user_bytes += other.user_bytes;
        self.wall_s += other.wall_s;
    }
}

/// Drive chirp-meta until `stop` says so.
fn drive_meta(
    c: &mut ChirpClient,
    gen: &mut MetaGen,
    out: &mut Wire,
    stop: &mut dyn FnMut(u64) -> bool,
) -> Result<(), Abort> {
    let id = bench_identity();
    let mut lat = Vec::with_capacity(4);
    let mut round_start = Instant::now();
    let mut round_rpcs = 0;
    let mut actions = 0;
    while !stop(actions) {
        let op = gen.next_op();
        let r = on_wire(c, &op, &id, &mut lat);
        out.account(&op, &mut lat, r)?;
        actions += 1;
        round_rpcs += op.rpcs();
        if round_rpcs >= META_ROUND {
            out.rounds.push(round_start.elapsed().as_secs_f64() * 1e3);
            round_start = Instant::now();
            round_rpcs = 0;
        }
    }
    Ok(())
}

/// Drive chirp-bulk until `stop` says so (checked per burst).
fn drive_bulk(
    c: &mut ChirpClient,
    gen: &mut BulkGen,
    out: &mut Wire,
    stop: &mut dyn FnMut(u64) -> bool,
) -> Result<(), Abort> {
    let id = bench_identity();
    let mut lat = Vec::with_capacity(4);
    let mut round_start = Instant::now();
    let mut bursts = 0;
    while !stop(bursts) {
        let gets: Vec<Op> = (0..BULK_DEPTH).map(|_| gen.get()).collect();
        let t = Instant::now();
        let mut p = c.pipeline();
        for g in &gets {
            if let Op::Get { path, .. } = g {
                p.get(path);
            }
        }
        let replies = p.run();
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.tally.attempted += BULK_DEPTH as u64;
        out.rpcs += BULK_DEPTH as u64;
        match replies {
            Err(e) => {
                out.tally.failed += BULK_DEPTH as u64;
                eprintln!("failed: pipelined gets: {e:?}");
            }
            Ok(replies) => {
                for (g, r) in gets.iter().zip(replies) {
                    let Op::Get { path, len, hash } = g else {
                        unreachable!("only gets are queued")
                    };
                    match (r.result, r.payload) {
                        (Ok(_), Some(d)) if d.len() == *len && util::hash64(&d) == *hash => {
                            out.payload += d.len() as u64;
                            out.lat.push((Class::Read, us));
                        }
                        (Ok(_), _) => {
                            out.tally.failed += 1;
                            out.tally.wrong += 1;
                            eprintln!("wrong result: get {path}: not the version last written");
                        }
                        (Err(e), _) => {
                            out.tally.failed += 1;
                            eprintln!("failed: get {path}: {e:?}");
                        }
                    }
                }
            }
        }
        for _ in 0..BULK_PUTS {
            let op = gen.put();
            let r = on_wire(c, &op, &id, &mut lat);
            out.account(&op, &mut lat, r)?;
        }
        bursts += 1;
        if bursts % BULK_ROUND == 0 {
            out.rounds.push(round_start.elapsed().as_secs_f64() * 1e3);
            round_start = Instant::now();
            if gen.probes {
                let r = on_wire(c, &Op::Probe, &id, &mut lat);
                out.account(&Op::Probe, &mut lat, r)?;
                round_start = Instant::now();
            }
        }
    }
    Ok(())
}

/// The workload's generator, behind one interface.
enum Gen {
    Meta(MetaGen),
    Bulk(BulkGen),
}

impl Gen {
    fn stream(&mut self) -> &mut dyn Stream {
        match self {
            Gen::Meta(g) => g,
            Gen::Bulk(g) => g,
        }
    }

    fn drive(
        &mut self,
        c: &mut ChirpClient,
        out: &mut Wire,
        stop: &mut dyn FnMut(u64) -> bool,
    ) -> Result<(), Abort> {
        let t = Instant::now();
        let r = match self {
            Gen::Meta(g) => drive_meta(c, g, out, stop),
            Gen::Bulk(g) => drive_bulk(c, g, out, stop),
        };
        out.wall_s += t.elapsed().as_secs_f64();
        r
    }

    /// Server round trips in one round.
    fn trips_per_round(&self) -> f64 {
        match self {
            Gen::Meta(_) => META_ROUND as f64,
            Gen::Bulk(_) => (BULK_ROUND * (1 + BULK_PUTS as u64)) as f64,
        }
    }

    fn rpcs_per_round(&self) -> f64 {
        match self {
            Gen::Meta(_) => META_ROUND as f64,
            Gen::Bulk(_) => (BULK_ROUND * (BULK_DEPTH + BULK_PUTS) as u64) as f64,
        }
    }

    /// Payload bytes that cross the wire in one round (chirp-meta's
    /// few KiB are left out).
    fn bytes_per_round(&self) -> f64 {
        match self {
            Gen::Meta(_) => 0.0,
            Gen::Bulk(g) => (BULK_ROUND as usize * (BULK_DEPTH + BULK_PUTS) * g.base.len()) as f64,
        }
    }

    /// RPCs and payload bytes behind one read-latency sample: a single
    /// RPC in chirp-meta, a whole burst of gets in chirp-bulk.
    fn read_sample(&self) -> (f64, f64) {
        match self {
            Gen::Meta(_) => (1.0, 0.0),
            Gen::Bulk(g) => (BULK_DEPTH as f64, (BULK_DEPTH * g.base.len()) as f64),
        }
    }
}

fn new_gen(workload: Workload, seed: u64, scale: f64) -> Gen {
    let n = |base: f64, min: usize| ((base * scale).round() as usize).max(min);
    match workload {
        Workload::ChirpBulk => Gen::Bulk(BulkGen::new(seed, n(64.0, 4), n(1048576.0, 65536))),
        _ => Gen::Meta(MetaGen::new(seed, n(128.0, 2), n(125.0, 4))),
    }
}

/// The timed phase, in windows of `WINDOW`; a traced run switches
/// tracing on in every other window.
#[derive(Default)]
struct Timed {
    /// Everything the client saw.
    wire: Wire,
    windows: Vec<Window>,
    /// Counter deltas over traced windows / untraced windows.
    on: Counters,
    off: Counters,
    rpcs_on: u64,
    rpcs_off: u64,
    user_bytes_on: u64,
}

fn timed_phase(served: &mut Served, gen: &mut Gen, cfg: &Config) -> Result<Timed, Abort> {
    let id = bench_identity();
    let mut t = Timed::default();
    let start = Instant::now();
    let total = Duration::from_secs_f64(cfg.seconds);
    while start.elapsed() < total {
        let tracing = cfg.trace && t.windows.len() % 2 == 1;
        let end = (start.elapsed() + WINDOW).min(total);
        let before = Counters::sample(&served.handle, &id);
        let mut wire = Wire::default();
        util::count_allocs(tracing);
        gen.drive(&mut served.client, &mut wire, &mut |_| {
            start.elapsed() >= end
        })?;
        util::count_allocs(false);
        let delta = Counters::sample(&served.handle, &id).since(&before);
        t.windows.push(wire.window(delta.cpu_s));
        if tracing {
            t.on.add(&delta);
            t.rpcs_on += wire.rpcs;
            t.user_bytes_on += wire.user_bytes;
        } else {
            t.off.add(&delta);
            t.rpcs_off += wire.rpcs;
        }
        t.wire.merge(wire);
    }
    Ok(t)
}

/// The in-process ladder over the workload's stream, rungs interleaved
/// in slices of `actions`. Each rung gets different ops of the same
/// mix, so its cost per RPC is the mix-weighted median per RPC kind,
/// which a 1 MiB put's disk hiccup or an op-mix fluke cannot move much.
struct Inproc {
    us_per_rpc: [f64; 4],
    traps_per_rpc: f64,
    words_per_trap: f64,
    channel_per_rpc: f64,
    /// Free-switch rung (the server's own), p50 µs per class.
    read_p50: f64,
    write_p50: f64,
}

fn inproc_ladder(
    served: &Served,
    gen: &mut Gen,
    actions: usize,
    rounds: usize,
) -> Result<Inproc, Abort> {
    let id = bench_identity();
    let kernel = served.handle.kernel();
    let mut rigs: Vec<(idbox_core::IdentityBox, Supervisor, Pid)> = Vec::new();
    for rung in Rung::ALL {
        rigs.push(
            rung::boxed(kernel, id.as_str(), rung, "inproc")
                .map_err(setup_err("in-process box"))?,
        );
    }
    let stream = gen.stream();
    stream.set_probes(false);
    let mut by_kind: [BTreeMap<&'static str, Vec<f64>>; 4] = Default::default();
    let mut free_lat = Vec::new();
    let (mut traps, mut words, mut channel, mut rpcs_boxed) = (0u64, 0u64, 0u64, 0u64);
    let mut lat = Vec::new();
    for _ in 0..rounds {
        for (i, (_, sup, pid)) in rigs.iter_mut().enumerate() {
            let rung = Rung::ALL[i];
            let mut ctx = GuestCtx::new(sup, *pid);
            let c0 = ctx.supervisor().cost_report();
            let mut rpcs = 0;
            for _ in 0..actions {
                let op = stream.next_op();
                rpcs += op.rpcs();
                if let Err(f) = in_process(&mut ctx, &op, &id, &mut lat) {
                    return Err(Abort::Setup(format!(
                        "in-process {op:?} on {}: {f:?}",
                        rung.name()
                    )));
                }
                for (kind, (class, us)) in op.kinds().iter().zip(lat.drain(..)) {
                    by_kind[i].entry(kind).or_default().push(us);
                    if rung == Rung::Free {
                        free_lat.push((class, us));
                    }
                }
            }
            let c1 = ctx.supervisor().cost_report();
            if rung == Rung::Calibrated {
                traps += c1.traps - c0.traps;
                words += (c1.peeks + c1.pokes) - (c0.peeks + c0.pokes);
                channel += c1.channel_bytes - c0.channel_bytes;
                rpcs_boxed += rpcs;
            }
        }
    }
    stream.set_probes(true);
    // Mix weights: how often each kind ran, over every rung.
    let mut weight: BTreeMap<&'static str, f64> = BTreeMap::new();
    for rung in &by_kind {
        for (kind, v) in rung {
            *weight.entry(kind).or_default() += v.len() as f64;
        }
    }
    let total: f64 = weight.values().sum();
    let cost = |rung: &BTreeMap<&'static str, Vec<f64>>| {
        weight
            .iter()
            .map(|(kind, w)| w * rung.get(kind).map_or(0.0, |v| util::median(v)))
            .sum::<f64>()
            / total.max(1.0)
    };
    let class = |k: Class| {
        let mut v: Vec<f64> = free_lat
            .iter()
            .filter(|(c, _)| *c == k)
            .map(|(_, v)| *v)
            .collect();
        util::percentile(&mut v, 50.0)
    };
    Ok(Inproc {
        us_per_rpc: std::array::from_fn(|i| cost(&by_kind[i])),
        traps_per_rpc: traps as f64 / rpcs_boxed.max(1) as f64,
        words_per_trap: words as f64 / traps.max(1) as f64,
        channel_per_rpc: channel as f64 / rpcs_boxed.max(1) as f64,
        read_p50: class(Class::Read),
        write_p50: class(Class::Write),
    })
}

/// Median round trip of a null RPC (`whoami`), µs.
fn null_rpc_us(c: &mut ChirpClient, n: usize) -> Result<f64, Abort> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        c.whoami().map_err(setup_err("whoami"))?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(util::median(&v))
}

/// ns to strip the `id=` token, split the request, and parse its reply.
fn codec_ns(gen: &mut Gen) -> f64 {
    let pairs: Vec<(String, &str)> = (0..1000u64)
        .map(|i| {
            let (line, reply) = gen.stream().next_op().lines();
            (codec::with_id(&line, i + 1), reply)
        })
        .collect();
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for (req, reply) in &pairs {
            let (head, id) = codec::strip_id(req);
            black_box(id);
            black_box(codec::split_words(head).ok());
            black_box(codec::parse_response(reply).ok());
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64);
    }
    util::median(&batches)
}

/// Median `ChirpClient::connect` with Globus negotiation, ms.
fn connect_ms(served: &Served, n: usize) -> Result<f64, Abort> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let c = connect(served.handle.addr(), &served.ca, BENCH)?;
        v.push(t.elapsed().as_secs_f64() * 1e3);
        let _ = c.quit();
    }
    Ok(util::median(&v))
}

/// Loopback TCP throughput, MiB/s: median of three transfers of `mib`
/// MiB from a writer thread to this one, with no server involved.
fn loopback_mib_s(mib: usize) -> Result<f64, Abort> {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    let io = |e: std::io::Error| Abort::Setup(format!("loopback probe: {e}"));
    let mut rates = Vec::new();
    for _ in 0..3 {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let writer = std::thread::spawn(move || -> std::io::Result<()> {
            let mut s = TcpStream::connect(addr)?;
            let chunk = vec![0x5Au8; 1 << 20];
            for _ in 0..mib {
                s.write_all(&chunk)?;
            }
            Ok(())
        });
        let (mut s, _) = listener.accept().map_err(io)?;
        let mut buf = vec![0u8; 1 << 20];
        let t = Instant::now();
        let mut got = 0;
        while got < mib << 20 {
            match s.read(&mut buf).map_err(io)? {
                0 => break,
                n => got += n,
            }
        }
        rates.push(got as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64());
        writer
            .join()
            .expect("loopback writer panicked")
            .map_err(io)?;
    }
    Ok(util::median(&rates))
}

/// The wire's share of a request, measured apart from the server: a
/// null RPC's round trip plus the payload at loopback TCP speed.
struct WireModel {
    null_us: f64,
    loopback_mib_s: f64,
}

impl WireModel {
    fn us(&self, trips: f64, bytes: f64) -> f64 {
        trips * self.null_us + bytes / (self.loopback_mib_s * (1 << 20) as f64) * 1e6
    }
}

/// chirp.* and auth.* from a finished timed phase whose end-to-end read
/// p50 was `read_p50`, plus the in-process ladder's layers.
fn chirp_layers(
    served: &mut Served,
    gen: &mut Gen,
    timed: &Timed,
    read_p50: f64,
    rep: &mut Report,
    rounds: usize,
) -> Result<(Inproc, WireModel), Abort> {
    let actions = match gen {
        Gen::Meta(_) => 300,
        Gen::Bulk(_) => BULK_DEPTH + BULK_PUTS,
    };
    let inproc = inproc_ladder(served, gen, actions, rounds)?;
    let model = WireModel {
        null_us: null_rpc_us(&mut served.client, 1000)?,
        loopback_mib_s: loopback_mib_s(32)?,
    };
    let (rpcs, bytes) = gen.read_sample();
    let inproc_sample = inproc.read_p50 * rpcs;
    let predicted = inproc_sample + model.us(1.0, bytes);
    let gap = (predicted - read_p50) / read_p50 * 100.0;
    rep.set("chirp.inproc_read_us", inproc.read_p50);
    rep.set("chirp.inproc_write_us", inproc.write_p50);
    rep.set("chirp.wire_us", read_p50 - inproc_sample);
    rep.set("ledger.wire_gap_pct", gap.abs());
    rep.note(format!(
        "wire check: in-process {inproc_sample:.2} us + null RPC {:.2} us + {:.0} payload bytes \
         at {:.0} MiB/s loopback = {predicted:.2} us vs end-to-end read p50 {read_p50:.2} us, \
         {gap:+.1}% (tolerance +/-{}%)",
        model.null_us,
        bytes,
        model.loopback_mib_s,
        ledger::WIRE_TOLERANCE_PCT
    ));
    rep.set("chirp.codec_ns", codec_ns(gen));
    let on = &timed.on;
    let rpcs = timed.rpcs_on.max(1) as f64;
    rep.set("chirp.wakeups_per_op", on.wakeups as f64 / rpcs);
    rep.set("chirp.flushes_per_op", on.flushes as f64 / rpcs);
    rep.set(
        "chirp.loop_lag_p99_us",
        util::log2_bucket_percentile(&on.lag, 99.0),
    );
    rep.set(
        "chirp.outbuf_hw",
        served
            .handle
            .loop_stats()
            .workers()
            .iter()
            .map(|w| w.outbuf_hw())
            .max()
            .unwrap_or(0) as f64,
    );
    rep.set("auth.connect_ms", connect_ms(served, 10)?);
    Ok((inproc, model))
}

/// The chirp-layer metrics for a workload that runs no server of its
/// own (box-make): a small chirp-meta stream on a volatile server.
pub fn reference_probe(cfg: &Config, scratch: &Scratch, rep: &mut Report) -> Result<(), Abort> {
    let mut gen = Gen::Meta(MetaGen::new(cfg.seed, 8, 32));
    let mut served = boot(scratch, false, gen.stream())?;
    let mut timed = Timed::default();
    let id = bench_identity();
    let before = Counters::sample(&served.handle, &id);
    gen.drive(&mut served.client, &mut timed.wire, &mut |n| n >= 3000)?;
    timed.on = Counters::sample(&served.handle, &id).since(&before);
    timed.rpcs_on = timed.wire.rpcs;
    rep.tally.add(timed.wire.tally);
    let read_p50 = util::percentile(&mut timed.wire.samples(Class::Read), 50.0);
    chirp_layers(&mut served, &mut gen, &timed, read_p50, rep, 4)?;
    served.stop();
    Ok(())
}

pub fn run(cfg: &Config, scratch: &Scratch) -> Result<Report, Abort> {
    let mut rep = Report::default();
    let mut gen = new_gen(cfg.workload, cfg.seed, cfg.scale);
    let setups = if cfg.scale < 1.0 { 1 } else { SETUPS };
    let (mut setup_s, mut replay_s) = (Vec::new(), Vec::new());
    let mut last: Option<Served> = None;
    for _ in 0..setups {
        // Every set-up stages the same seeded namespace; only the last
        // server is kept.
        let s = boot(
            scratch,
            true,
            new_gen(cfg.workload, cfg.seed, cfg.scale).stream(),
        )?;
        setup_s.push(s.setup.as_secs_f64());
        replay_s.push(s.replay.as_secs_f64());
        if let Some(prev) = last.replace(s) {
            prev.stop();
        }
    }
    let mut served = last.expect("at least one set-up");
    let timed = timed_phase(&mut served, &mut gen, cfg)?;
    let w = &timed.wire;
    rep.tally = w.tally;
    let all = {
        let mut c = timed.on;
        c.add(&timed.off);
        c
    };
    rep.set_end_to_end(util::median(&setup_s), &timed.windows);
    rep.note(format!(
        "{}: {} RPCs in {:.2} s, {} WAL snapshots",
        cfg.workload.name(),
        w.rpcs,
        w.wall_s,
        all.wal[3]
    ));
    if !cfg.trace {
        served.stop();
        return Ok(rep);
    }

    let on = timed.on;
    let rpcs = timed.rpcs_on.max(1) as f64;
    rep.set(
        "trace.overhead_pct",
        ((on.cpu_s / rpcs) / (timed.off.cpu_s / timed.rpcs_off.max(1) as f64) - 1.0) * 100.0,
    );
    rep.set("kernel.syscalls_per_op", on.syscalls as f64 / rpcs);
    rep.set(
        "vfs.dentry_hit",
        on.dentry[0] as f64 / (on.dentry[0] + on.dentry[1]).max(1) as f64,
    );
    let verdicts = (on.verdicts[0] + on.verdicts[1]) as f64;
    rep.set(
        "core.verdict_hit",
        on.verdicts[0] as f64 / verdicts.max(1.0),
    );
    rep.set("core.checks_per_op", verdicts / rpcs);
    rep.set("core.denials_per_op", on.denials as f64 / rpcs);
    rep.set("alloc.per_op", on.allocs as f64 / rpcs);
    rep.set(
        "wal.bytes_per_user_byte",
        on.wal[1] as f64 / timed.user_bytes_on.max(1) as f64,
    );
    rep.set(
        "wal.records_per_fsync",
        on.wal[0] as f64 / on.wal[2].max(1) as f64,
    );
    rep.set("wal.snapshots", all.wal[3] as f64);
    rep.set("wal.replay_s", util::median(&replay_s));
    let e2e_round_ms = rep.values["build_ms"];
    let read_p50 = rep.values["read_p50_us"];
    let (inproc, model) = chirp_layers(&mut served, &mut gen, &timed, read_p50, &mut rep, 10)?;
    let us = inproc.us_per_rpc;
    let per_trap = |hi: f64, lo: f64| (hi - lo) * 1e3 / inproc.traps_per_rpc.max(1e-9);
    rep.set(
        "interpose.traps",
        inproc.traps_per_rpc * gen.rpcs_per_round(),
    );
    rep.set("interpose.words_per_trap", inproc.words_per_trap);
    rep.set(
        "interpose.channel_bytes",
        inproc.channel_per_rpc * gen.rpcs_per_round(),
    );
    rep.set("interpose.switch_ns", per_trap(us[3], us[2]));
    rep.set("interpose.mech_ns", per_trap(us[2], us[1]));
    rep.set("core.policy_ns", per_trap(us[1], us[0]));
    rep.set("interpose.slowdown_x", us[2] / us[0]);
    rep.set("kernel.direct_build_ms", us[0] * gen.rpcs_per_round() / 1e3);
    let predicted_ms = (us[2] * gen.rpcs_per_round()
        + model.us(gen.trips_per_round(), gen.bytes_per_round()))
        / 1e3;
    let gap = (predicted_ms - e2e_round_ms) / e2e_round_ms * 100.0;
    rep.set("ledger.rung_gap_pct", gap.abs());
    rep.note(format!(
        "in-process ladder (us per RPC): {}; free rung + wire model predict {predicted_ms:.3} ms \
         per round vs build_ms {e2e_round_ms:.3} ms, {gap:+.1}%",
        Rung::ALL
            .iter()
            .zip(us)
            .map(|(r, v)| format!("{} {v:.3}", r.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut snaps = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        served
            .handle
            .kernel()
            .read()
            .wal_snapshot()
            .map_err(|e| Abort::Setup(format!("snapshot: {e}")))?;
        snaps.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.set("wal.snapshot_ms", util::median(&snaps));
    ledger::common(cfg, scratch, &mut rep)?;
    served.stop();
    Ok(rep)
}

/// A digest of the first ops of a workload's stream (tests).
#[cfg(test)]
pub fn stream_digest(workload: Workload, seed: u64) -> u64 {
    let mut gen = new_gen(workload, seed, 0.03);
    let mut text = Vec::new();
    for _ in 0..200 {
        let op = gen.stream().next_op();
        text.extend_from_slice(op.lines().0.as_bytes());
        if let Op::Put { data, .. } = &op {
            text.extend_from_slice(data);
        }
    }
    util::hash64(&text)
}
