//! The server's readiness-polled event loop.
//!
//! Connections are state machines, not threads: each worker owns a set
//! of connections and multiplexes them over [`crate::poll`]. A
//! connection moves through two phases — authentication (driven by the
//! incremental [`ServerAuthMachine`]) and the session proper, where a
//! framer slices the read buffer into wire-protocol frames (a command
//! line plus, for the payload-bearing verbs, its announced payload, read
//! into a buffer of its own) and hands each complete frame to the
//! dispatcher.
//!
//! Wire-protocol generation 2 rides on this structure: a pipelining
//! client may send many frames before reading replies; every frame that
//! carried an `id=<n>` token gets the same token echoed on its reply
//! line, and all replies produced in one readiness cycle are flushed
//! with a single write. Clients that send no ids (generation 1) get the
//! old strict in-order, flush-per-reply behaviour, because they only
//! ever have one frame outstanding.

use crate::codec::{self, error_line};
use crate::poll::{poll_fds, read_uninit, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::server::{
    announced_payload, dispatch, record_span, verb_name, ConnRegistry, GuestFn, Reply, SessionCtl,
    SessionGauge, SessionObs, InflightGuard,
};
use idbox_auth::{AuthOutcome, ServerAuthMachine, ServerVerifier};
use idbox_core::{BoxOptions, IdentityBox, Verdict};
use idbox_interpose::{GuestCtx, Supervisor, TraceeVm};
use idbox_kernel::Pid;
use idbox_obs::{now_unix_ns, IdentityCounters, TraceCell, TraceId};
use idbox_types::{CostModel, Errno, Principal};
use idbox_vfs::{ByteExtent, Cred};
use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::mem::MaybeUninit;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum bytes pulled off one socket per readiness cycle, so a
/// fire-hosing peer cannot starve its worker's other connections.
const READ_BUDGET: usize = 256 * 1024;

/// Soft cap on buffered replies: while a connection's write buffer sits
/// above this, no further frames are processed for it (the peer must
/// drain what it already asked for — per-connection backpressure).
const OUT_SOFT_CAP: usize = 1024 * 1024;

/// Poll tick: upper bound on how long a worker sleeps when nothing is
/// ready. Wake sockets make registration and shutdown prompt; the tick
/// only paces the idle sweep.
const POLL_TICK_MS: i32 = 20;

/// Owned pushes below this merge into the queue's trailing owned
/// segment, so a burst of pipelined one-line replies costs one iovec
/// entry instead of hundreds.
const COALESCE_MAX: usize = 16 * 1024;

/// Maximum segments handed to one vectored write. Kernels cap iovec
/// counts (IOV_MAX is 1024 on Linux); staying far below it also bounds
/// the per-flush stack work.
const FLUSH_IOVEC_MAX: usize = 64;

/// Maximum sub-operations accepted in one `batch` frame.
pub(crate) const BATCH_MAX_OPS: usize = 4096;

/// Everything a worker needs to serve connections, shared across the
/// accept thread and all workers.
pub(crate) struct LoopCtx {
    pub(crate) ctl: SessionCtl,
    pub(crate) programs: Arc<BTreeMap<String, GuestFn>>,
    pub(crate) cost_model: CostModel,
    pub(crate) sup_cred: Cred,
    pub(crate) io_timeout: Option<Duration>,
    pub(crate) conns: ConnRegistry,
    /// Soft watchdog budget for one readiness cycle; `None` disables.
    pub(crate) stall_budget: Option<Duration>,
}

/// A freshly accepted connection, handed from the accept thread to a
/// worker. The stream is already nonblocking; the verifier carries the
/// peer's reverse-lookup hostname.
pub(crate) struct Registration {
    pub(crate) id: u64,
    pub(crate) stream: TcpStream,
    pub(crate) verifier: ServerVerifier,
}

/// The accept thread's handle to one worker: a registration queue plus
/// the write side of the worker's wake socket.
pub(crate) struct WorkerHandle {
    tx: Sender<Registration>,
    wake: TcpStream,
}

impl WorkerHandle {
    /// A second handle to the same worker (the accept thread and the
    /// server handle each hold one).
    pub(crate) fn duplicate(&self) -> std::io::Result<WorkerHandle> {
        Ok(WorkerHandle {
            tx: self.tx.clone(),
            wake: self.wake.try_clone()?,
        })
    }

    /// Hand a connection to this worker and wake it out of `poll`.
    pub(crate) fn submit(&self, reg: Registration) {
        let _ = self.tx.send(reg);
        self.notify();
    }

    /// Wake the worker (used on shutdown, and after `submit`). The wake
    /// socket is nonblocking on both sides; a full buffer already means
    /// a wakeup is pending, so a short write is fine.
    pub(crate) fn notify(&self) {
        let _ = (&self.wake).write(&[1]);
    }
}

/// A local socket pair to interrupt `poll` with (std has no pipe).
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(l.local_addr()?)?;
    let (rx, _) = l.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// Spawn `n` event-loop workers. Worker threads are detached — they
/// exit promptly when `stop` is set (shutdown wakes them), and a worker
/// stuck inside a long dispatch must not be able to hang shutdown.
pub(crate) fn spawn_workers(
    n: usize,
    lc: Arc<LoopCtx>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Vec<WorkerHandle>> {
    let mut handles = Vec::with_capacity(n);
    for widx in 0..n {
        let (wake_tx, wake_rx) = wake_pair()?;
        let (tx, rx) = std::sync::mpsc::channel();
        let lc = Arc::clone(&lc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_worker(widx, rx, wake_rx, lc, stop));
        handles.push(WorkerHandle { tx, wake: wake_tx });
    }
    Ok(handles)
}

fn run_worker(
    widx: usize,
    rx: Receiver<Registration>,
    wake: TcpStream,
    lc: Arc<LoopCtx>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // Watchdog rate limit: at most one `loop-stall` audit row per
    // second per worker, so a persistently stalled loop cannot flood
    // the audit ring out of its useful history.
    let mut last_stall_row: Option<Instant> = None;
    loop {
        while let Ok(reg) = rx.try_recv() {
            conns.push(Conn::new(reg));
        }
        if stop.load(Ordering::Relaxed) {
            for c in conns {
                c.teardown(&lc);
            }
            return;
        }
        fds.clear();
        fds.push(PollFd {
            fd: wake.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for c in &conns {
            let mut events = 0;
            if c.out.unflushed() <= OUT_SOFT_CAP && !c.close_after_flush {
                events |= POLLIN;
            }
            if !c.out.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let _ = poll_fds(&mut fds, POLL_TICK_MS);
        // Readiness → dispatch → flush for every ready connection is
        // one "cycle"; its duration is the loop-lag sample. Idle ticks
        // (nothing ready) are not samples — they would drown the
        // histogram in POLL_TICK_MS-sized noise.
        let cycle_start = Instant::now();
        let ready = fds.iter().any(|f| f.revents != 0);
        let ws = lc.ctl.loop_stats.worker(widx);
        if ready {
            ws.bump_wakeup();
        }
        if fds[0].revents & POLLIN != 0 {
            let mut buf = [0u8; 64];
            while matches!((&wake).read(&mut buf), Ok(n) if n > 0) {}
        }
        for (c, pfd) in conns.iter_mut().zip(fds[1..].iter()) {
            if pfd.revents & (POLLERR | POLLNVAL) != 0 {
                c.dead = true;
                continue;
            }
            if pfd.revents & (POLLIN | POLLHUP) != 0 {
                c.fill();
            }
            loop {
                c.pump(&lc);
                let backlog = c.out.unflushed();
                if backlog > 0 {
                    ws.note_outbuf(backlog);
                    ws.bump_flush();
                }
                c.flush();
                // A backpressure pause means complete frames are still
                // sitting in `inbuf`. If flush just freed queue room,
                // service them now — otherwise a pipelined burst pays a
                // full poll tick per streamed reply while the socket
                // sits idle. When flush could not drain below the cap,
                // POLLOUT wakes the loop as soon as the peer reads.
                if c.dead || !c.pump_paused || c.out.unflushed() > OUT_SOFT_CAP {
                    break;
                }
            }
        }
        if let Some(limit) = lc.io_timeout {
            let now = Instant::now();
            for c in conns.iter_mut() {
                if now.duration_since(c.last_activity) > limit {
                    c.dead = true;
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            if conns[i].dead {
                conns.swap_remove(i).teardown(&lc);
            } else {
                i += 1;
            }
        }
        ws.set_conns(conns.len());
        if ready {
            let cycle = cycle_start.elapsed();
            ws.record_lag_us(cycle.as_micros() as u64);
            if let Some(budget) = lc.stall_budget {
                if cycle > budget {
                    ws.bump_stall();
                    idbox_obs::flight::record_instant("loop", "loop-stall", None);
                    let rate_ok = last_stall_row
                        .is_none_or(|t| t.elapsed() >= Duration::from_secs(1));
                    if rate_ok {
                        last_stall_row = Some(Instant::now());
                        lc.ctl.audit.record_named(
                            "(server)",
                            "loop-stall",
                            Some(format!(
                                "worker={widx} cycle_ms={} budget_ms={}",
                                cycle.as_millis(),
                                budget.as_millis()
                            )),
                            Verdict::Deny,
                            Some(Errno::EBUSY),
                            None,
                        );
                    }
                }
            }
        }
    }
}

/// Which phase of its life a connection is in.
enum ConnPhase {
    Auth(ServerAuthMachine),
    Session(Box<Session>),
}

/// A frame whose command line has been read, with its announced payload
/// (complete, or still arriving).
struct PendingFrame {
    words: Vec<String>,
    id: Option<u64>,
    retry: Option<u32>,
    trace: Option<TraceId>,
    /// The announced payload, allocated uninitialised at its exact size
    /// when the line is parsed (`None` when there is none); the socket
    /// reads the bytes straight into it. Only `payload[..filled]` has
    /// been written, and nothing reads the buffer before it is full.
    payload: Option<Arc<[MaybeUninit<u8>]>>,
    filled: usize,
}

impl PendingFrame {
    /// Payload bytes still to arrive.
    fn missing(&self) -> usize {
        self.payload.as_ref().map_or(0, |p| p.len()) - self.filled
    }

    /// The unwritten rest of the payload buffer.
    fn spare(&mut self) -> &mut [MaybeUninit<u8>] {
        match &mut self.payload {
            Some(p) => {
                let buf = Arc::get_mut(p).expect("the framer's buffer is unshared");
                &mut buf[self.filled..]
            }
            None => &mut [],
        }
    }

    /// The complete payload, handed over as the initialised buffer it
    /// now is: the bytes the socket wrote are the bytes dispatch gets.
    fn take_payload(&mut self) -> Arc<[u8]> {
        let Some(buf) = self.payload.take() else {
            return Arc::default();
        };
        assert_eq!(self.filled, buf.len(), "payload dispatched before it arrived");
        // SAFETY: `filled` counts the bytes written at the front of the
        // buffer — copied from the input buffer in `step_session`, or
        // written by `read(2)` in `read_payload`, each call advancing
        // `filled` by exactly the count it wrote — and it equals the
        // length, so every byte is initialised.
        unsafe { buf.assume_init() }
    }
}

/// How a read from the socket ended.
enum ReadEnd {
    /// The read limit was reached; the socket may hold more.
    Limit,
    /// The socket has nothing more right now.
    Drained,
    /// The peer closed its side.
    Eof,
    /// A hard socket error.
    Failed,
}

/// Read the next at most `limit` bytes of `pf`'s payload from `stream`
/// straight into its buffer: no scratch buffer, no zeroing. Each
/// `read(2)` advances `filled` by the count it wrote, so the count is
/// exact whatever the outcome.
fn read_payload(stream: &TcpStream, pf: &mut PendingFrame, limit: usize) -> (usize, ReadEnd) {
    let mut n = 0;
    while n < limit {
        let room = &mut pf.spare()[..limit - n];
        match read_uninit(stream.as_raw_fd(), room) {
            Ok(0) => return (n, ReadEnd::Eof),
            Ok(k) => {
                pf.filled += k;
                n += k;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return (n, ReadEnd::Drained),
            Err(_) => return (n, ReadEnd::Failed),
        }
    }
    (n, ReadEnd::Limit)
}

/// Read at most `limit` bytes from `stream` into `buf`'s spare capacity:
/// no scratch buffer, no zeroing. `Read::take(..).read_to_end` keeps the
/// bytes it got when a nonblocking socket runs dry, so the count is exact
/// whatever the outcome.
fn read_into(stream: &TcpStream, buf: &mut Vec<u8>, limit: usize) -> (usize, ReadEnd) {
    let before = buf.len();
    let res = stream.take(limit as u64).read_to_end(buf);
    let n = buf.len() - before;
    let end = match res {
        // `take` ends early only on the peer's EOF.
        Ok(_) if n < limit => ReadEnd::Eof,
        Ok(_) => ReadEnd::Limit,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => ReadEnd::Drained,
        Err(_) => ReadEnd::Failed,
    };
    (n, end)
}

/// Why `pump` stopped consuming frames.
#[derive(PartialEq)]
enum PumpExit {
    /// Ran out of complete frames; more input is needed.
    Starved,
    /// The write buffer is over the soft cap; resume after a flush.
    Backpressure,
    /// The connection is closing (quit, protocol error, auth refusal).
    Closing,
}

/// One queued output segment: bytes the connection owns (head lines,
/// rendered text replies), or an extent borrowed from the Vfs via an
/// `Arc` — the zero-copy path, where the file's chunks go to the socket
/// without ever being copied into a connection buffer.
enum OutSeg {
    Owned(Vec<u8>),
    Shared(ByteExtent),
}

impl OutSeg {
    fn as_slice(&self) -> &[u8] {
        match self {
            OutSeg::Owned(v) => v,
            OutSeg::Shared(e) => e.as_slice(),
        }
    }
}

/// A streamed reply's completion marker: once `end` total bytes have
/// been flushed, the reply's last byte has left the process and its
/// data-plane `stream` span can close.
struct StreamMark {
    end: u64,
    trace: Option<TraceId>,
    start_ns: u64,
}

/// The connection's write side: a queue of segments flushed with
/// vectored writes. Cumulative `queued`/`flushed` counters replace the
/// old flat buffer's len/pos pair, so backpressure accounting works the
/// same way whether a segment is owned or borrowed.
#[derive(Default)]
struct OutQueue {
    segs: VecDeque<OutSeg>,
    /// Bytes of `segs[0]` already written.
    head_pos: usize,
    /// Total bytes ever queued (monotonic).
    queued: u64,
    /// Total bytes ever flushed (monotonic).
    flushed: u64,
    marks: VecDeque<StreamMark>,
}

impl OutQueue {
    /// Bytes queued but not yet written to the socket.
    fn unflushed(&self) -> usize {
        (self.queued - self.flushed) as usize
    }

    fn is_empty(&self) -> bool {
        self.queued == self.flushed
    }

    /// Queue owned bytes, coalescing small pushes into the trailing
    /// owned segment. Appending to the front segment while `head_pos`
    /// points into it is fine — the flushed prefix is never touched.
    fn push_owned(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.queued += bytes.len() as u64;
        if let Some(OutSeg::Owned(v)) = self.segs.back_mut() {
            if v.len() < COALESCE_MAX {
                v.extend_from_slice(bytes);
                return;
            }
        }
        self.segs.push_back(OutSeg::Owned(bytes.to_vec()));
    }

    /// Queue an owned buffer without copying it (large rendered
    /// replies); small ones still coalesce.
    fn push_owned_vec(&mut self, v: Vec<u8>) {
        if v.len() < COALESCE_MAX {
            self.push_owned(&v);
            return;
        }
        self.queued += v.len() as u64;
        self.segs.push_back(OutSeg::Owned(v));
    }

    /// Queue a borrowed extent. The bytes stay in the Vfs's chunk; the
    /// queue holds only the `Arc`.
    fn push_shared(&mut self, extent: ByteExtent) {
        if extent.is_empty() {
            return;
        }
        self.queued += extent.len() as u64;
        self.segs.push_back(OutSeg::Shared(extent));
    }

    /// Mark the current queue tail as the end of a streamed reply.
    fn push_mark(&mut self, trace: Option<TraceId>, start_ns: u64) {
        self.marks.push_back(StreamMark {
            end: self.queued,
            trace,
            start_ns,
        });
    }

    /// One vectored write of up to [`FLUSH_IOVEC_MAX`] segments.
    fn write_once(&mut self, mut stream: &TcpStream) -> std::io::Result<usize> {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.segs.len().min(FLUSH_IOVEC_MAX));
        for (i, seg) in self.segs.iter().enumerate() {
            if slices.len() == FLUSH_IOVEC_MAX {
                break;
            }
            let s = seg.as_slice();
            let s = if i == 0 { &s[self.head_pos..] } else { s };
            slices.push(IoSlice::new(s));
        }
        stream.write_vectored(&slices)
    }

    /// Account `n` bytes written: pop fully flushed segments (releasing
    /// their `Arc`s) and advance into a partially written head.
    fn advance(&mut self, mut n: usize) {
        self.flushed += n as u64;
        while n > 0 {
            let rem = self
                .segs
                .front()
                .map(|s| s.as_slice().len() - self.head_pos)
                .expect("advanced past the end of the out queue");
            if n >= rem {
                n -= rem;
                self.segs.pop_front();
                self.head_pos = 0;
            } else {
                self.head_pos += n;
                n = 0;
            }
        }
    }

    /// The next streamed reply whose last byte has now been flushed.
    fn pop_done_mark(&mut self) -> Option<StreamMark> {
        if self.marks.front().is_some_and(|m| m.end <= self.flushed) {
            self.marks.pop_front()
        } else {
            None
        }
    }
}

/// One connection's full state: buffers, phase, and liveness.
struct Conn {
    id: u64,
    stream: TcpStream,
    inbuf: Vec<u8>,
    inpos: usize,
    out: OutQueue,
    last_activity: Instant,
    phase: ConnPhase,
    pending: Option<PendingFrame>,
    /// The session identity's counters, set once authentication
    /// completes; wire-byte totals before that have no identity to
    /// charge and are not counted.
    counters: Option<Arc<IdentityCounters>>,
    /// `pump` stopped on backpressure with complete frames still
    /// buffered in `inbuf`. The worker loop re-pumps such connections
    /// after `flush` frees queue room, instead of letting the buffered
    /// frames wait out a poll tick on an idle socket.
    pump_paused: bool,
    saw_eof: bool,
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(reg: Registration) -> Self {
        Conn {
            id: reg.id,
            stream: reg.stream,
            inbuf: Vec::new(),
            inpos: 0,
            out: OutQueue::default(),
            last_activity: Instant::now(),
            phase: ConnPhase::Auth(ServerAuthMachine::new(reg.verifier)),
            pending: None,
            counters: None,
            pump_paused: false,
            saw_eof: false,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Pull whatever the socket has (bounded by [`READ_BUDGET`]). A
    /// frame whose payload is still arriving takes the bytes first,
    /// straight into its own buffer, so each payload byte is copied out
    /// of the socket once; anything past it lands in `inbuf`.
    fn fill(&mut self) {
        let (mut total, mut end) = (0, ReadEnd::Limit);
        if let Some(pf) = &mut self.pending {
            let want = pf.missing();
            (total, end) = read_payload(&self.stream, pf, want.min(READ_BUDGET));
        }
        if matches!(end, ReadEnd::Limit) && total < READ_BUDGET {
            let (n, e) = read_into(&self.stream, &mut self.inbuf, READ_BUDGET - total);
            total += n;
            end = e;
        }
        match end {
            ReadEnd::Eof => self.saw_eof = true,
            ReadEnd::Failed => self.dead = true,
            ReadEnd::Limit | ReadEnd::Drained => {}
        }
        if total > 0 {
            self.last_activity = Instant::now();
            if let Some(c) = &self.counters {
                c.add_bytes_in(total as u64);
            }
        }
    }

    /// Write as much queued output as the socket takes right now, one
    /// vectored write per burst: head lines and borrowed extents go out
    /// as scatter-gather segments, so a streamed file is never copied
    /// into a flat connection buffer first.
    fn flush(&mut self) {
        let before = self.out.flushed;
        while !self.out.is_empty() {
            match self.out.write_once(&self.stream) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out.advance(n);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let wrote = self.out.flushed - before;
        if wrote > 0 {
            if let Some(c) = &self.counters {
                c.add_bytes_out(wrote);
            }
        }
        // A streamed reply's span closes when its last byte has been
        // accepted by the socket — the stream phase `tracedump` shows.
        while let Some(m) = self.out.pop_done_mark() {
            idbox_obs::flight::record_span(
                "data",
                "stream",
                None,
                m.trace,
                m.start_ns,
                now_unix_ns().saturating_sub(m.start_ns),
            );
        }
        if self.out.is_empty() && self.close_after_flush {
            self.dead = true;
        }
    }

    fn queue_line(&mut self, line: &str) {
        self.out.push_owned(line.as_bytes());
        self.out.push_owned(b"\n");
    }

    /// Unconsumed input.
    fn avail(&self) -> usize {
        self.inbuf.len() - self.inpos
    }

    fn consume(&mut self, n: usize) {
        self.inpos += n;
        // Compact once the consumed prefix dominates, so long sessions
        // do not accrete an ever-growing buffer.
        if self.inpos > 4096 && self.inpos * 2 >= self.inbuf.len() {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }

    /// Slice one `\n`-terminated line off the input buffer, enforcing
    /// the same bound as `codec::read_line`: the newline must arrive
    /// within [`codec::LINE_MAX`] bytes.
    fn take_line(&mut self) -> Result<Option<String>, Errno> {
        let buf = &self.inbuf[self.inpos..];
        let window = buf.len().min(codec::LINE_MAX);
        match buf[..window].iter().position(|&b| b == b'\n') {
            Some(i) => {
                let mut line = std::str::from_utf8(&buf[..i])
                    .map_err(|_| Errno::EPROTO)?
                    .to_string();
                while line.ends_with('\r') {
                    line.pop();
                }
                self.consume(i + 1);
                Ok(Some(line))
            }
            None if buf.len() >= codec::LINE_MAX => Err(Errno::EPROTO),
            None => Ok(None),
        }
    }

    /// Consume frames until starved, backpressured, or closing.
    fn pump(&mut self, lc: &LoopCtx) {
        let exit = loop {
            if self.dead {
                break PumpExit::Closing;
            }
            if self.close_after_flush {
                break PumpExit::Closing;
            }
            if self.out.unflushed() > OUT_SOFT_CAP {
                break PumpExit::Backpressure;
            }
            let step = match self.phase {
                ConnPhase::Auth(_) => self.step_auth(lc),
                ConnPhase::Session(_) => self.step_session(lc),
            };
            match step {
                Some(()) => continue,
                None => break PumpExit::Starved,
            }
        };
        self.pump_paused = exit == PumpExit::Backpressure;
        // EOF with no undispatched frame left: nothing more will ever
        // arrive, so finish sending what we owe and close.
        if exit == PumpExit::Starved && self.saw_eof {
            self.close_after_flush = true;
        }
    }

    /// Satellite fix for silent teardown: a protocol violation (overlong
    /// line, invalid UTF-8) now answers `error EPROTO` once, lands in
    /// the audit ring as a shed, and then closes the connection.
    fn protocol_teardown(&mut self, lc: &LoopCtx) {
        let (identity, trace) = match &self.phase {
            ConnPhase::Session(s) => (s.obs.identity.clone(), s.obs.trace.get()),
            ConnPhase::Auth(_) => (Arc::from("(unauthenticated)"), None),
        };
        if let ConnPhase::Session(s) = &self.phase {
            s.counters.bump_rpc_shed();
        } else {
            lc.ctl.metrics.bump_admission_shed();
        }
        idbox_obs::flight::record_instant("shed", "proto", trace);
        lc.ctl.audit.record_named(
            &identity,
            "proto-shed",
            None,
            Verdict::Deny,
            Some(Errno::EPROTO),
            trace,
        );
        self.queue_line(&error_line(Errno::EPROTO));
        self.close_after_flush = true;
    }

    /// One auth-phase step: feed a line to the machine, queue its
    /// replies, and promote the connection on success. Returns `Some`
    /// when progress was made.
    fn step_auth(&mut self, lc: &LoopCtx) -> Option<()> {
        let line = match self.take_line() {
            Ok(Some(line)) => line,
            Ok(None) => return None,
            Err(_) => {
                self.protocol_teardown(lc);
                return None;
            }
        };
        let (replies, outcome) = {
            let ConnPhase::Auth(machine) = &mut self.phase else {
                unreachable!("step_auth outside auth phase")
            };
            let mut replies = Vec::new();
            let outcome = machine.step(&line, &mut replies);
            (replies, outcome)
        };
        for r in &replies {
            self.queue_line(r);
        }
        match outcome {
            Ok(AuthOutcome::Continue) => Some(()),
            Ok(AuthOutcome::Authenticated(principal)) => {
                match Session::build(principal, lc) {
                    Ok(session) => {
                        // From here on, wire bytes in both directions
                        // are charged to the authenticated identity.
                        self.counters = Some(Arc::clone(&session.counters));
                        self.phase = ConnPhase::Session(Box::new(session));
                        Some(())
                    }
                    // The box could not be provisioned; the client saw
                    // its welcome but the session cannot exist.
                    Err(_) => {
                        self.close_after_flush = true;
                        None
                    }
                }
            }
            Ok(AuthOutcome::Refused) | Err(_) => {
                self.close_after_flush = true;
                None
            }
        }
    }

    /// One session-phase step: complete a frame (line + payload) and
    /// dispatch it. Returns `Some` when progress was made.
    fn step_session(&mut self, lc: &LoopCtx) -> Option<()> {
        // A frame waiting on its payload blocks the stream (frames are
        // strictly ordered), so nothing else can be parsed before it.
        if let Some(pf) = &self.pending {
            if pf.missing() > 0 {
                return None;
            }
            let pf = self.pending.take().expect("pending frame present");
            self.dispatch_frame(pf, lc);
            return Some(());
        }
        let raw = match self.take_line() {
            Ok(Some(line)) => line,
            Ok(None) => return None,
            Err(_) => {
                self.protocol_teardown(lc);
                return None;
            }
        };
        // v2 token order on the wire: <command> id=<n> retry=<k>
        // trace=<t> — stripped in reverse.
        let (line, trace) = codec::strip_trace(&raw);
        let (line, retry) = codec::strip_retry(line);
        let (line, id) = codec::strip_id(line);
        let words = match codec::split_words(line) {
            Ok(w) if !w.is_empty() => w,
            _ => {
                self.queue_reply(Err(Errno::EPROTO), id, trace);
                return Some(());
            }
        };
        let pf = match announced_payload(&words) {
            Ok(len) => {
                // One exact-size buffer per payload, whatever its size:
                // the announce is already bounded by `PAYLOAD_MAX`, and
                // the allocation is neither zeroed nor touched until
                // bytes land in it. It becomes the file's chunks when a
                // put appends it. Whatever part of the payload came in
                // with its line moves over now; `fill` reads the rest
                // straight in.
                let payload_len = len.unwrap_or(0) as usize;
                let mut pf = PendingFrame {
                    words,
                    id,
                    retry,
                    trace,
                    payload: (payload_len > 0).then(|| Arc::new_uninit_slice(payload_len)),
                    filled: 0,
                };
                let have = self.avail().min(payload_len);
                pf.spare()[..have].write_copy_of_slice(&self.inbuf[self.inpos..self.inpos + have]);
                pf.filled = have;
                self.consume(have);
                pf
            }
            // A bad or oversized announce is answered without waiting
            // for (or allocating) any payload. The peer may still send
            // the bytes, which will fail to parse as a command line —
            // that desync then tears the connection down as a protocol
            // error, which is the best available recovery.
            Err(e) => {
                self.queue_reply(Err(e), id, trace);
                return Some(());
            }
        };
        if pf.missing() > 0 {
            self.pending = Some(pf);
            return None;
        }
        self.dispatch_frame(pf, lc);
        Some(())
    }

    /// Dispatch one complete frame through the session and queue its
    /// reply (stamped with the frame's id when it carried one). The
    /// payload moves into the dispatch by value.
    fn dispatch_frame(&mut self, mut pf: PendingFrame, lc: &LoopCtx) {
        let ConnPhase::Session(session) = &mut self.phase else {
            unreachable!("frames only exist in session phase")
        };
        let payload = pf.take_payload();
        let (reply, close) = session.handle_frame(&pf, payload, lc);
        // The frame's trace was parked on this thread for the duration
        // of the dispatch; clear it so events from the next frame (or
        // idle work) are not mis-tagged.
        idbox_obs::flight::set_current_trace(None);
        if close {
            self.close_after_flush = true;
        }
        if let Some(r) = reply {
            self.queue_reply(r, pf.id, pf.trace);
        }
    }

    /// Render a reply into the output queue: the head line (id-stamped
    /// when the request was pipelined), then the payload — owned bytes
    /// for rendered replies, borrowed extents for streamed ones.
    fn queue_reply(
        &mut self,
        reply: Result<Reply, Errno>,
        id: Option<u64>,
        trace: Option<TraceId>,
    ) {
        let (head, body) = match reply {
            Ok(Reply::Line(l)) => (l, None),
            Ok(Reply::Payload(head, data)) => (head, Some(Ok(data))),
            Ok(Reply::Stream(head, extents)) => (head, Some(Err(extents))),
            Err(e) => (error_line(e), None),
        };
        let head = match id {
            Some(n) => codec::with_id(&head, n),
            None => head,
        };
        self.queue_line(&head);
        match body {
            Some(Ok(data)) => self.out.push_owned_vec(data),
            Some(Err(extents)) => {
                let start_ns = now_unix_ns();
                for part in extents {
                    self.out.push_shared(part);
                }
                self.out.push_mark(trace, start_ns);
            }
            None => {}
        }
    }

    /// Close out the connection: end the boxed session (if one was
    /// established) and deregister.
    fn teardown(self, lc: &LoopCtx) {
        if let ConnPhase::Session(s) = self.phase {
            s.end();
        }
        lc.conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
    }
}

/// An authenticated session: the identity box's supervisor and guest
/// process, plus per-identity observability state. The tracee VM is
/// kept across dispatches instead of being reallocated per request.
pub(crate) struct Session {
    principal: Principal,
    sup: Supervisor,
    vm: Option<TraceeVm>,
    pid: Pid,
    counters: Arc<IdentityCounters>,
    _gauge: SessionGauge,
    obs: SessionObs,
}

impl Session {
    /// The heart of the design, unchanged from the threaded server:
    /// every connection's operations run inside an identity box
    /// carrying the authenticated principal.
    fn build(principal: Principal, lc: &LoopCtx) -> Result<Session, Errno> {
        let identity = principal.to_identity();
        let counters = lc.ctl.metrics.handle(identity.as_str());
        counters.session_started();
        let gauge = SessionGauge(Arc::clone(&counters));
        let obs = SessionObs {
            trace: Arc::new(TraceCell::new()),
            identity: Arc::from(identity.as_str()),
        };
        let options = BoxOptions {
            cost_model: lc.cost_model,
            audit_ring: Some(Arc::clone(&lc.ctl.audit)),
            trace: Some(Arc::clone(&obs.trace)),
            metrics: Some(Arc::clone(&lc.ctl.metrics)),
            ..Default::default()
        };
        let b = IdentityBox::with_options(
            Arc::clone(&lc.ctl.kernel),
            identity,
            lc.sup_cred,
            options,
        )?;
        let pid = b.spawn_process("chirp-session")?;
        let sup = b.supervisor();
        Ok(Session {
            principal,
            sup,
            vm: Some(TraceeVm::new()),
            pid,
            counters,
            _gauge: gauge,
            obs,
        })
    }

    /// Handle one complete frame: shed checks, dispatch, span. Returns
    /// the reply (None only for frames that produce no reply — there
    /// are none today) and whether the connection should close.
    fn handle_frame(
        &mut self,
        pf: &PendingFrame,
        payload: Arc<[u8]>,
        lc: &LoopCtx,
    ) -> (Option<Result<Reply, Errno>>, bool) {
        let ctl = &lc.ctl;
        self.obs.trace.set(pf.trace);
        idbox_obs::flight::set_current_trace(pf.trace);
        if pf.retry.is_some() {
            // The client re-sent an earlier attempt (possibly over a
            // fresh connection); count it so retry pressure is visible
            // per identity.
            self.counters.bump_rpc_retried();
            idbox_obs::flight::record_instant("retry", verb_name(&pf.words[0]), pf.trace);
        }
        if pf.words[0] == "quit" {
            return (Some(Ok(Reply::Line("ok".to_string()))), true);
        }
        // Graceful degradation: refuse work we cannot (drain) or should
        // not (overload) take on, with a fast EAGAIN the retry policy
        // understands. The frame — payload included — is already
        // consumed, so the stream stays synchronized.
        let shed_reason = if ctl.draining.load(Ordering::Relaxed) {
            Some("drain")
        } else if ctl
            .busy_watermark
            .is_some_and(|w| ctl.inflight.load(Ordering::Relaxed) >= w as u64)
        {
            Some("busy")
        } else if ctl
            .max_inflight_per_identity
            .is_some_and(|m| self.counters.inflight() >= m as u64)
        {
            Some("identity-limit")
        } else {
            None
        };
        if let Some(reason) = shed_reason {
            self.counters.bump_rpc_shed();
            idbox_obs::flight::record_instant("shed", reason, pf.trace);
            ctl.audit.record_named(
                &self.obs.identity,
                "rpc-shed",
                Some(format!("{} {reason}", pf.words[0])),
                Verdict::Deny,
                Some(Errno::EAGAIN),
                self.obs.trace.get(),
            );
            return (Some(Err(Errno::EAGAIN)), false);
        }
        let t0 = Instant::now();
        let inflight = InflightGuard::new(&ctl.inflight, &self.counters);
        let vm = self.vm.take().unwrap_or_default();
        let mut ctx = GuestCtx::with_vm(&mut self.sup, self.pid, vm);
        let result = dispatch(
            &pf.words,
            payload,
            &mut ctx,
            &self.principal,
            &lc.programs,
            ctl,
            &self.obs,
        );
        self.vm = Some(ctx.into_vm());
        drop(inflight);
        record_span(&self.obs, "rpc", verb_name(&pf.words[0]), t0.elapsed());
        (Some(result), false)
    }

    /// End the boxed session's guest process.
    fn end(mut self) {
        let vm = self.vm.take().unwrap_or_default();
        let mut ctx = GuestCtx::with_vm(&mut self.sup, self.pid, vm);
        ctx.exit(0);
    }
}
