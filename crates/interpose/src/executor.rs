//! The supervisor: decode, police, delegate, nullify, reply.

use crate::abi::{self, nr};
use crate::channel::IoChannel;
use crate::policy::{AllowAll, PolicyDecision, SyscallPolicy};
use crate::trace::TraceSink;
use crate::vm::{reg, TraceeVm};
use crate::{SharedKernel, SMALL_IO_MAX};
use idbox_kernel::{
    ByteExtent, ExtentList, LatencyStats, OpenFlags, Pid, Signal, Syscall, SysRet, Whence,
};
use idbox_obs::{IdentityCounters, TraceCell};
use idbox_types::{CostModel, Errno, SwitchEngine, SysResult, TrapCostReport};
use idbox_vfs::Access;
use std::sync::Arc;
use std::time::Instant;

/// Per-identity observability hooks an identity box attaches to its
/// supervisor ([`Supervisor::attach_obs`]).
///
/// The counters are this identity's row in a server-wide
/// [`idbox_obs::IdentityMetrics`] registry; the trace cell is shared
/// with the serving session, so the dispatch and policy spans recorded
/// here into the flight recorder carry the trace id of the RPC being
/// served.
pub struct ObsHooks {
    /// The boxed identity, stamped into spans.
    pub identity: Arc<str>,
    /// This identity's counters (syscalls, bytes, denials...).
    pub counters: Arc<IdentityCounters>,
    /// The trace id of the request currently being served, if any.
    pub trace: Arc<TraceCell>,
}

/// How the supervisor reaches the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Baseline: straight function call, slice copies, no policy.
    Direct,
    /// Identity-box path: full trap round trip with peek/poke and the
    /// I/O channel.
    Interposed,
    /// The paper's Section 9 proposal: the policy runs *inside the
    /// kernel* — same checks as `Interposed`, but at function-call cost
    /// (no traps, no word-at-a-time copies, no extra data copy).
    InKernel,
}

/// Where a call's reply payload must land in guest memory.
#[derive(Debug, Clone, Copy)]
enum OutSpec {
    /// No out-of-band output.
    None,
    /// A byte buffer (read, readdir, getcwd, readlink, get_user_name).
    Buf { addr: u64, cap: usize },
    /// No guest buffer: the read's extents are parked supervisor-side
    /// (`preadx`), and the guest sees only their length.
    Park,
    /// An encoded stat record.
    Stat { addr: u64 },
    /// A wait status word.
    Status { addr: u64 },
    /// A signal-number word array.
    Sigs { addr: u64, cap_words: usize },
    /// A pipe's two fd words.
    PipeFds { addr: u64 },
}

/// The supervisor process: runs guest programs and services their
/// system calls.
///
/// One supervisor corresponds to one `parrot` invocation: it supervises a
/// process tree, owns the per-supervisor [`IoChannel`], the simulated
/// context-switch engine, and the [`SyscallPolicy`] (for an identity box,
/// the policy *is* the box).
pub struct Supervisor {
    kernel: SharedKernel,
    mode: ExecMode,
    policy: Box<dyn SyscallPolicy>,
    engine: SwitchEngine,
    channel: IoChannel,
    trace: Option<TraceSink>,
    /// Latency-histogram handle cloned out of the kernel at
    /// construction, so dispatch timings are recorded without taking
    /// either side of the kernel lock.
    latency: Arc<LatencyStats>,
    /// Per-identity accounting + flight-recorder spans, when a box
    /// attached them. All hooks are atomics bumped through `&self` —
    /// nothing here adds a lock to the dispatch path.
    obs: Option<ObsHooks>,
    /// The last `preadx` reply's extents, parked out-of-band: they never
    /// enter flat guest memory (that copy is the whole thing being
    /// avoided), so `execute` stashes them here and the embedding
    /// context collects them with [`Supervisor::take_extents`].
    pending_extents: Option<ExtentList>,
    /// A write payload parked by the embedding context for the next
    /// `pwritex`: the inbound mirror of `pending_extents`. The bytes
    /// never enter flat guest memory; decode moves them into the call.
    pending_payload: Option<Arc<[u8]>>,
}

impl Supervisor {
    /// A baseline supervisor: system calls go straight to the kernel.
    pub fn direct(kernel: SharedKernel) -> Self {
        Self::new(kernel, ExecMode::Direct, Box::new(AllowAll), CostModel::free_switches())
    }

    /// A kernel-resident policy: the checks of `policy` run on every
    /// call, but at native cost — what Section 9 argues future operating
    /// systems should provide.
    pub fn in_kernel(kernel: SharedKernel, policy: Box<dyn SyscallPolicy>) -> Self {
        Self::new(kernel, ExecMode::InKernel, policy, CostModel::free_switches())
    }

    /// An interposed supervisor with a policy and a cost model.
    pub fn interposed(
        kernel: SharedKernel,
        policy: Box<dyn SyscallPolicy>,
        model: CostModel,
    ) -> Self {
        Self::new(kernel, ExecMode::Interposed, policy, model)
    }

    fn new(
        kernel: SharedKernel,
        mode: ExecMode,
        policy: Box<dyn SyscallPolicy>,
        model: CostModel,
    ) -> Self {
        let latency = Arc::clone(kernel.read().latency());
        Supervisor {
            kernel,
            mode,
            policy,
            engine: SwitchEngine::new(model),
            channel: IoChannel::new(),
            trace: None,
            obs: None,
            latency,
            pending_extents: None,
            pending_payload: None,
        }
    }

    /// Attach a forensic trace sink: every trapped call (and its
    /// outcome) is recorded (paper, Section 9's forensic use).
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// Attach per-identity accounting and span hooks (what an identity
    /// box does when the server runs with a metrics registry).
    pub fn attach_obs(&mut self, hooks: ObsHooks) {
        self.obs = Some(hooks);
    }

    /// The shared kernel handle.
    pub fn kernel(&self) -> &SharedKernel {
        &self.kernel
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The policy in force.
    pub fn policy_name(&self) -> String {
        self.policy.name().to_string()
    }

    /// Accumulated trap-cost counters.
    pub fn cost_report(&self) -> TrapCostReport {
        self.engine.report()
    }

    /// Reset the trap-cost counters.
    pub fn reset_cost_report(&mut self) {
        self.engine.reset_report();
    }

    /// Bytes moved through the I/O channel so far.
    pub fn channel_bytes(&self) -> u64 {
        self.channel.total_bytes()
    }

    /// Collect the extents parked by the last `preadx` reply, if any.
    /// The guest saw only the total length in its return register; the
    /// bytes themselves stay supervisor-side as `Arc` borrows, and the
    /// embedding context (the Chirp server's `get`) streams them from
    /// here without a copy.
    pub fn take_extents(&mut self) -> Option<ExtentList> {
        self.pending_extents.take()
    }

    /// Park a write payload for the next `pwritex`, which moves it into
    /// `Syscall::Pwrite` without copying it into guest memory or the I/O
    /// channel: the embedding context (the Chirp server's `put` and
    /// `pwrite`) already owns bytes that never lived in the guest. The
    /// next `pwritex` consumes the parked buffer whatever its outcome;
    /// no other call touches it.
    pub fn park_payload(&mut self, data: Arc<[u8]>) {
        self.pending_payload = Some(data);
    }

    /// For a call whose reply is parked ([`OutSpec::Park`]), park the
    /// extents and translate the reply into the register-visible result
    /// (`Num(total)`). Every other reply passes through to `write_reply`.
    fn park_extents(&mut self, result: SysResult<SysRet>, out: OutSpec) -> SysResult<SysRet> {
        match (result, out) {
            (Ok(SysRet::Extents(x)), OutSpec::Park) => {
                let total = x.total as i64;
                self.pending_extents = Some(x);
                Ok(SysRet::Num(total))
            }
            (other, _) => other,
        }
    }

    /// Service the system call currently loaded in `vm`'s registers on
    /// behalf of `pid`. On return, `RET` and any output buffers are
    /// filled in.
    pub fn execute(&mut self, pid: Pid, vm: &mut TraceeVm) {
        match self.mode {
            ExecMode::Direct => self.execute_direct(pid, vm, false),
            ExecMode::InKernel => self.execute_direct(pid, vm, true),
            ExecMode::Interposed => self.execute_interposed(pid, vm),
        }
    }

    /// Baseline path: one decode by slice access, one kernel entry, one
    /// copy out. With `with_policy`, the policy rules first (the
    /// in-kernel identity box of Section 9), still at native cost.
    fn execute_direct(&mut self, pid: Pid, vm: &mut TraceeVm, with_policy: bool) {
        let decoded = decode_call(vm, &mut NoCount, &mut self.pending_payload);
        let (call, out) = match decoded {
            Ok(x) => x,
            Err(e) => {
                vm.set_ret(e.as_ret());
                return;
            }
        };
        let result = if with_policy {
            self.dispatch_policed(pid, &call, false)
        } else {
            self.dispatch_plain(pid, &call)
        };
        if let Some(trace) = &self.trace {
            trace.record(pid, &call, &result);
        }
        let result = self.park_extents(result, out);
        if let Err(e) = write_reply(vm, result, out, &mut DirectData) {
            vm.set_ret(e.as_ret());
        }
    }

    /// Kernel dispatch without a policy: every call — mutating ones
    /// included — runs under the *shared* side of the structure lock;
    /// the kernel's internal shard locks provide the mutual exclusion.
    fn dispatch_plain(&mut self, pid: Pid, call: &Syscall) -> SysResult<SysRet> {
        let t0 = Instant::now();
        let result = self.kernel.read().syscall_shared(pid, call);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.latency.record(call, nanos);
        self.observe_dispatch(call, &result, nanos);
        result
    }

    /// Policy ruling plus kernel dispatch.
    ///
    /// The whole sequence — policy check, kernel entry, post-processing,
    /// and (with `nullify`) the nullified `getpid` that really enters
    /// the kernel (Figure 4(a), steps 4-5) — runs under one *shared*
    /// guard of the structure lock. Concurrent supervisors therefore
    /// never serialize here; any contention happens inside the kernel,
    /// on the shard locks of the state the calls actually touch.
    ///
    /// Dispatch is timed into the kernel's latency histograms: the clock
    /// covers the policy ruling plus the kernel entry, i.e. what the
    /// guest experiences for the call.
    fn dispatch_policed(&mut self, pid: Pid, call: &Syscall, nullify: bool) -> SysResult<SysRet> {
        let t0 = Instant::now();
        let result = self.dispatch_policed_inner(pid, call, nullify);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.latency.record(call, nanos);
        self.observe_dispatch(call, &result, nanos);
        result
    }

    /// Per-identity accounting for one dispatched call: the syscall
    /// counter, byte counters for the data-moving calls, and a
    /// `dispatch` span stamped with the current trace id.
    fn observe_dispatch(&self, call: &Syscall, result: &SysResult<SysRet>, nanos: u64) {
        let Some(obs) = &self.obs else { return };
        obs.counters.bump_syscall(call.slot());
        if let Ok(ret) = result {
            match (call, ret) {
                (_, SysRet::Extents(x)) => obs.counters.add_bytes_read(x.total as u64),
                (Syscall::Write(..) | Syscall::Pwrite(..), SysRet::Num(n)) if *n > 0 => {
                    obs.counters.add_bytes_written(*n as u64);
                }
                _ => {}
            }
        }
        Self::observe_span(obs, "dispatch", call.name(), nanos);
    }

    /// Record one phase span into the flight recorder, where both
    /// `tracedump` and the `slowops` duration filter read it.
    fn observe_span(obs: &ObsHooks, plane: &'static str, name: &'static str, nanos: u64) {
        idbox_obs::flight::record_span(
            plane,
            name,
            Some(&obs.identity),
            obs.trace.get(),
            idbox_obs::now_unix_ns().saturating_sub(nanos),
            nanos,
        );
    }

    fn dispatch_policed_inner(
        &mut self,
        pid: Pid,
        call: &Syscall,
        nullify: bool,
    ) -> SysResult<SysRet> {
        let kernel = self.kernel.read();
        // The kernel acts on the entry the policy judged; if that entry
        // went stale first (its object changed, or a name appeared at
        // its creation site), the call is judged again.
        let mut result = loop {
            // The policy span is timed only when there is somewhere to put it.
            let p0 = self.obs.as_ref().map(|_| Instant::now());
            let decision = self.policy.check(&kernel, pid, call);
            if let (Some(obs), Some(p0)) = (&self.obs, p0) {
                Self::observe_span(obs, "policy", call.name(), p0.elapsed().as_nanos() as u64);
            }
            let ran = match &decision {
                PolicyDecision::Allow(None) => Ok(kernel.syscall_shared(pid, call)),
                PolicyDecision::Allow(Some(judged)) => kernel.syscall_judged(pid, call, judged),
                PolicyDecision::Rewrite(replacement, None) => {
                    Ok(kernel.syscall_shared(pid, replacement))
                }
                PolicyDecision::Rewrite(replacement, Some(judged)) => {
                    kernel.syscall_judged(pid, replacement, judged)
                }
                PolicyDecision::Deny(errno) => Ok(Err(*errno)),
            };
            if let Ok(result) = ran {
                break result;
            }
        };
        self.policy.post(&kernel, pid, call, &mut result);
        if nullify {
            let _ = kernel.null_syscall(pid);
        }
        result
    }

    /// The Figure 4(a) control flow, step by step.
    fn execute_interposed(&mut self, pid: Pid, vm: &mut TraceeVm) {
        // Steps 1-2: the attempted call stops the child; the kernel
        // notifies the supervisor. Two mode switches in, two out at the
        // end, plus the nullified call's own pair: six total, charged as
        // one round trip.
        self.engine.trap_round_trip();

        // Step 2 (continued): the supervisor examines the call. Registers
        // arrive via one GETREGS; small memory-resident arguments cross
        // via peek one word at a time, bulk write payloads through the
        // I/O channel (the child is coerced into submitting them).
        let mut peeker = PeekOrChannel {
            engine: &mut self.engine,
            channel: &mut self.channel,
        };
        let decoded = decode_call(vm, &mut peeker, &mut self.pending_payload);
        let (call, out) = match decoded {
            Ok(x) => x,
            Err(e) => {
                vm.set_ret(e.as_ret());
                return;
            }
        };

        // Step 3: the supervisor implements the action itself, after the
        // policy (the identity box) has ruled on it. Steps 4-5 happen
        // inside the dispatcher: the original call is nullified into a
        // getpid() that really enters the kernel — under whichever side
        // of the kernel lock the call was served on.
        let result = self.dispatch_policed(pid, &call, true);
        if let Some(trace) = &self.trace {
            trace.record(pid, &call, &result);
        }
        // A parked read stays supervisor-side: only the length crosses
        // back into the guest — no pokes, no channel bytes. That *is*
        // the zero copy.
        let result = self.park_extents(result, out);

        // Step 6: the supervisor modifies the result into the child:
        // registers and small payloads by poke, bulk payloads through the
        // I/O channel (the child is coerced into pulling them in). The
        // reply, and any extents a read borrowed, drop once it is written,
        // so a finished read pins no chunk a later write must copy.
        let mut writer = ChannelOrPoke {
            engine: &mut self.engine,
            channel: &mut self.channel,
        };
        if let Err(e) = write_reply(vm, result, out, &mut writer) {
            vm.set_ret(e.as_ret());
        }
        // Step 7: the child resumes with the reply visible (switches for
        // the resume were charged in the round trip above).
    }
}

// ----------------------------------------------------------------------
// Memory access strategies
// ----------------------------------------------------------------------

/// How the supervisor reads argument bytes out of the tracee.
trait ArgReader {
    /// Borrow `len` bytes of an argument at `addr`, from wherever the
    /// transfer left them; the typed call copies them out once.
    fn read_bytes<'a>(
        &'a mut self,
        vm: &'a TraceeVm,
        addr: u64,
        len: usize,
    ) -> SysResult<&'a [u8]>;
}

/// Direct slice access (the kernel reading user memory natively).
struct NoCount;

impl ArgReader for NoCount {
    fn read_bytes<'a>(
        &'a mut self,
        vm: &'a TraceeVm,
        addr: u64,
        len: usize,
    ) -> SysResult<&'a [u8]> {
        vm.guest_slice(addr, len)
    }
}

/// The interposed argument path: one ranged peek for small arguments,
/// the I/O channel for bulk write payloads. The ranged transfer is
/// charged its words-equivalent peek count, so the Figure 4 accounting
/// is identical to the word-at-a-time loop it replaces — only the host
/// copy got cheaper.
struct PeekOrChannel<'a> {
    engine: &'a mut SwitchEngine,
    channel: &'a mut IoChannel,
}

impl ArgReader for PeekOrChannel<'_> {
    fn read_bytes<'a>(
        &'a mut self,
        vm: &'a TraceeVm,
        addr: u64,
        len: usize,
    ) -> SysResult<&'a [u8]> {
        if len > SMALL_IO_MAX {
            // The child is coerced into submitting the payload to the
            // channel (copy #1); the supervisor then reads it out of its
            // own mapping (copy #2, into the typed call).
            let src = vm.guest_slice(addr, len)?;
            self.channel.submit(src);
            self.engine.count_channel(len as u64);
            return Ok(self.channel.staged_bytes());
        }
        let out = vm.peek_bytes(addr, len)?;
        self.engine.count_peeks(len.div_ceil(8) as u64);
        Ok(out)
    }
}

/// How the supervisor writes reply bytes into the tracee.
trait ReplyWriter {
    /// Write `total` bytes, given as consecutive `parts` (a read's
    /// extents, or one text buffer), at `addr`.
    fn write_bytes(
        &mut self,
        vm: &mut TraceeVm,
        addr: u64,
        total: usize,
        parts: &mut dyn Iterator<Item = &[u8]>,
    ) -> SysResult<()>;

    /// Write a word array (stat buffers, signal lists): always poke-sized.
    fn write_words(&mut self, vm: &mut TraceeVm, addr: u64, words: &[u64]) -> SysResult<()>;
}

/// Direct slice writes (the kernel's single copy-out).
struct DirectData;

impl ReplyWriter for DirectData {
    fn write_bytes(
        &mut self,
        vm: &mut TraceeVm,
        addr: u64,
        total: usize,
        parts: &mut dyn Iterator<Item = &[u8]>,
    ) -> SysResult<()> {
        copy_parts(vm.guest_slice_mut(addr, total)?, parts);
        Ok(())
    }

    fn write_words(&mut self, vm: &mut TraceeVm, addr: u64, words: &[u64]) -> SysResult<()> {
        vm.poke_words(addr, words)
    }
}

/// The interposed write-back: one ranged poke for small payloads, the
/// I/O channel (with its extra copy) for bulk ones. Charged
/// words-equivalent, including the extra read-modify-write peek the
/// word loop paid for a trailing partial word.
struct ChannelOrPoke<'a> {
    engine: &'a mut SwitchEngine,
    channel: &'a mut IoChannel,
}

impl ReplyWriter for ChannelOrPoke<'_> {
    fn write_bytes(
        &mut self,
        vm: &mut TraceeVm,
        addr: u64,
        total: usize,
        parts: &mut dyn Iterator<Item = &[u8]>,
    ) -> SysResult<()> {
        if total <= SMALL_IO_MAX {
            copy_parts(vm.poke_span_mut(addr, total)?, parts);
            self.engine.count_pokes(total.div_ceil(8) as u64);
            if !total.is_multiple_of(8) {
                // The trailing partial word is a read-modify-write,
                // like real ptrace: one peek's worth of cost.
                self.engine.count_peek();
            }
            Ok(())
        } else {
            // Bulk: supervisor copies into the channel, then the child is
            // coerced into pulling it into its own buffer (copy #2).
            self.channel.stage(parts);
            self.engine.count_channel(total as u64);
            let dst = vm.guest_slice_mut(addr, total)?;
            let copied = self.channel.fetch(dst);
            debug_assert_eq!(copied, total);
            Ok(())
        }
    }

    fn write_words(&mut self, vm: &mut TraceeVm, addr: u64, words: &[u64]) -> SysResult<()> {
        vm.poke_words(addr, words)?;
        self.engine.count_pokes(words.len() as u64);
        Ok(())
    }
}

/// Copy consecutive `parts` into `dst`, which they fill exactly.
fn copy_parts(dst: &mut [u8], parts: &mut dyn Iterator<Item = &[u8]>) {
    let mut at = 0;
    for part in parts {
        dst[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    debug_assert_eq!(at, dst.len());
}

// ----------------------------------------------------------------------
// Decode / reply
// ----------------------------------------------------------------------

/// The argument registers of one trapped call, consumed in order
/// (`A0` through `A3`). A number is one register. A path or a write
/// payload is an (addr, len) pair whose bytes cross through the
/// [`ArgReader`], which charges the transfer. A reply destination is the
/// [`OutSpec`] its registers describe.
struct Args<'a> {
    vm: &'a TraceeVm,
    reader: &'a mut dyn ArgReader,
    parked: &'a mut Option<Arc<[u8]>>,
    next: usize,
}

impl Args<'_> {
    /// The next register, raw.
    fn word(&mut self) -> u64 {
        let w = self.vm.regs[reg::A0 + self.next];
        self.next += 1;
        w
    }

    fn fd(&mut self) -> usize {
        self.word() as usize
    }

    /// A length or capacity.
    fn len(&mut self) -> usize {
        self.word() as usize
    }

    /// Permission bits.
    fn mode(&mut self) -> u16 {
        self.word() as u16
    }

    /// A path: at most `PATH_MAX` bytes of UTF-8, checked before any
    /// byte is transferred.
    fn path(&mut self) -> SysResult<String> {
        let (addr, len) = (self.word(), self.word() as usize);
        if len > idbox_vfs::path::PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        let bytes = self.reader.read_bytes(self.vm, addr, len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Errno::EINVAL)
    }

    /// A write payload, copied once into the buffer a file appended to
    /// adopts as its chunks.
    fn data(&mut self) -> SysResult<Arc<[u8]>> {
        let (addr, len) = (self.word(), self.len());
        Ok(Arc::from(self.reader.read_bytes(self.vm, addr, len)?))
    }

    /// The payload parked for `pwritex`, consumed whatever the outcome:
    /// nothing is peeked or staged. A missing payload, or one whose
    /// length disagrees with the register, is a bad buffer address as
    /// far as the guest can tell.
    fn parked(&mut self) -> SysResult<Arc<[u8]>> {
        let len = self.word();
        match self.parked.take() {
            Some(data) if data.len() as u64 == len => Ok(data),
            _ => Err(Errno::EFAULT),
        }
    }

    fn whence(&mut self) -> SysResult<Whence> {
        abi::whence_from_code(self.word())
    }

    fn signal(&mut self) -> SysResult<Signal> {
        Signal::from_number(self.word() as u32).ok_or(Errno::EINVAL)
    }

    /// A byte buffer (addr, cap) for a text or data reply.
    fn buf(&mut self) -> OutSpec {
        OutSpec::Buf { addr: self.word(), cap: self.len() }
    }

    /// A data buffer (addr, len) whose length also sizes the read.
    fn read_buf(&mut self) -> (usize, OutSpec) {
        let (addr, len) = (self.word(), self.len());
        (len, OutSpec::Buf { addr, cap: len })
    }

    fn stat_out(&mut self) -> OutSpec {
        OutSpec::Stat { addr: self.word() }
    }

    fn status_out(&mut self) -> OutSpec {
        OutSpec::Status { addr: self.word() }
    }

    fn sigs_out(&mut self) -> OutSpec {
        OutSpec::Sigs { addr: self.word(), cap_words: self.len() }
    }

    fn pipe_out(&mut self) -> OutSpec {
        OutSpec::PipeFds { addr: self.word() }
    }
}

/// Decode the registers (and any memory-resident arguments) into a typed
/// call plus the location where its reply payload belongs: one row per
/// ABI number, its arguments in register order. A `pwritex` takes its
/// data from `parked` instead of guest memory.
fn decode_call(
    vm: &TraceeVm,
    reader: &mut dyn ArgReader,
    parked: &mut Option<Arc<[u8]>>,
) -> SysResult<(Syscall, OutSpec)> {
    use OutSpec::{None as NoOut, Park};
    use Syscall::*;
    let a = &mut Args { vm, reader, parked, next: 0 };
    Ok(match vm.regs[reg::NR] {
        nr::GETPID => (Getpid, NoOut),
        nr::GETPPID => (Getppid, NoOut),
        nr::GETUID => (Getuid, NoOut),
        nr::OPEN => (Open(a.path()?, OpenFlags::from_bits(a.word()), a.mode()), NoOut),
        nr::CLOSE => (Close(a.fd()), NoOut),
        nr::READ => { let (fd, (len, out)) = (a.fd(), a.read_buf()); (Read(fd, len), out) }
        nr::PREAD => { let (fd, (len, out)) = (a.fd(), a.read_buf()); (Pread(fd, len, a.word()), out) }
        // Zero-copy read: the reply is held supervisor-side as borrowed
        // extents, so there is no output buffer to fill.
        nr::PREADX => (Preadx(a.fd(), a.len(), a.word()), Park),
        nr::WRITE => (Write(a.fd(), a.data()?), NoOut),
        nr::PWRITE => (Pwrite(a.fd(), a.data()?, a.word()), NoOut),
        nr::PWRITEX => (Pwrite(a.fd(), a.parked()?, a.word()), NoOut),
        nr::LSEEK => (Lseek(a.fd(), a.word() as i64, a.whence()?), NoOut),
        nr::DUP => (Dup(a.fd()), NoOut),
        nr::STAT => (Stat(a.path()?), a.stat_out()),
        nr::LSTAT => (Lstat(a.path()?), a.stat_out()),
        nr::FSTAT => (Fstat(a.fd()), a.stat_out()),
        nr::MKDIR => (Mkdir(a.path()?, a.mode()), NoOut),
        nr::RMDIR => (Rmdir(a.path()?), NoOut),
        nr::UNLINK => (Unlink(a.path()?), NoOut),
        nr::LINK => (Link(a.path()?, a.path()?), NoOut),
        nr::SYMLINK => (Symlink(a.path()?, a.path()?), NoOut),
        nr::READLINK => (Readlink(a.path()?), a.buf()),
        nr::RENAME => (Rename(a.path()?, a.path()?), NoOut),
        nr::TRUNCATE => (Truncate(a.path()?, a.word()), NoOut),
        nr::ACCESS => (AccessCheck(a.path()?, Access(a.word() as u8)), NoOut),
        nr::READDIR => (Readdir(a.path()?), a.buf()),
        nr::CHMOD => (Chmod(a.path()?, a.mode()), NoOut),
        nr::CHOWN => (Chown(a.path()?, a.word() as u32, a.word() as u32), NoOut),
        nr::CHDIR => (Chdir(a.path()?), NoOut),
        nr::GETCWD => (Getcwd, a.buf()),
        nr::UMASK => (Umask(a.mode()), NoOut),
        nr::FORK => (Fork, NoOut),
        nr::EXEC => (Exec(a.path()?), NoOut),
        nr::EXIT => (Exit(a.word() as i64 as i32), NoOut),
        nr::WAIT => (Wait, a.status_out()),
        nr::KILL => (Kill(Pid(a.word() as u32), a.signal()?), NoOut),
        nr::PIPE => (Pipe, a.pipe_out()),
        nr::SIGPENDING => (SigPending, a.sigs_out()),
        nr::GET_USER_NAME => (GetUserName, a.buf()),
        nr::GETENV => (Getenv(a.path()?), a.buf()),
        _ => return Err(Errno::ENOSYS),
    })
}

/// Materialize a kernel result into the tracee: return register plus any
/// out-of-band payload.
fn write_reply(
    vm: &mut TraceeVm,
    result: SysResult<SysRet>,
    out: OutSpec,
    writer: &mut dyn ReplyWriter,
) -> SysResult<()> {
    let ret = match result {
        Err(e) => {
            vm.set_ret(e.as_ret());
            return Ok(());
        }
        Ok(ret) => ret,
    };
    let ret_val: i64 = match (ret, out) {
        (SysRet::Unit, _) => 0,
        (SysRet::Num(n), _) => n,
        // A read's extents are copied into the guest buffer here, and
        // dropped with `ret` once written.
        (SysRet::Extents(x), OutSpec::Buf { addr, cap }) => {
            if x.total > cap {
                return Err(Errno::EINVAL);
            }
            let mut parts = x.parts().map(ByteExtent::as_slice);
            writer.write_bytes(vm, addr, x.total, &mut parts)?;
            x.total as i64
        }
        (SysRet::Text(s), OutSpec::Buf { addr, cap }) => write_text(vm, writer, addr, cap, &s)?,
        (SysRet::Name(id), OutSpec::Buf { addr, cap }) => {
            write_text(vm, writer, addr, cap, id.as_str())?
        }
        (SysRet::Entries(entries), OutSpec::Buf { addr, cap }) => {
            write_text(vm, writer, addr, cap, &abi::encode_entries(&entries))?
        }
        (SysRet::Stat(st), OutSpec::Stat { addr }) => {
            writer.write_words(vm, addr, &abi::encode_stat(&st))?;
            0
        }
        (SysRet::Reaped(pid, code), OutSpec::Status { addr }) => {
            writer.write_words(vm, addr, &[code as u64])?;
            pid.0 as i64
        }
        (SysRet::Signals(sigs), OutSpec::Sigs { addr, cap_words }) => {
            if sigs.len() > cap_words {
                return Err(Errno::ERANGE);
            }
            writer.write_words(vm, addr, &abi::encode_signals(&sigs))?;
            sigs.len() as i64
        }
        (SysRet::PipeFds(rfd, wfd), OutSpec::PipeFds { addr }) => {
            writer.write_words(vm, addr, &[rfd as u64, wfd as u64])?;
            0
        }
        // A result shape that does not match its out spec is a supervisor
        // bug surfaced as EPROTO rather than a panic.
        _ => return Err(Errno::EPROTO),
    };
    vm.set_ret(ret_val);
    Ok(())
}

/// Write a text reply into a guest buffer of `cap` bytes; returns its
/// length. Text that does not fit is `ERANGE`.
fn write_text(
    vm: &mut TraceeVm,
    writer: &mut dyn ReplyWriter,
    addr: u64,
    cap: usize,
    text: &str,
) -> SysResult<i64> {
    if text.len() > cap {
        return Err(Errno::ERANGE);
    }
    writer.write_bytes(vm, addr, text.len(), &mut std::iter::once(text.as_bytes()))?;
    Ok(text.len() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share;
    use idbox_kernel::Kernel;
    use idbox_vfs::Cred;

    /// A boxed process and its registers.
    struct Guest {
        sup: Supervisor,
        pid: Pid,
        vm: TraceeVm,
    }

    impl Guest {
        fn new() -> Self {
            let kernel = share(Kernel::new());
            let pid = kernel.lock().spawn(Cred::ROOT, "/tmp", "decode").unwrap();
            let sup = Supervisor::interposed(kernel, Box::new(AllowAll), CostModel::free_switches());
            Guest { sup, pid, vm: TraceeVm::new() }
        }

        /// Trap one call from raw registers: its return register and the
        /// peek words it was charged.
        fn trap(&mut self, n: u64, args: &[u64]) -> (i64, u64) {
            let before = self.sup.cost_report().peeks;
            self.vm.load_call(n, args);
            self.sup.execute(self.pid, &mut self.vm);
            (self.vm.ret(), self.sup.cost_report().peeks - before)
        }
    }

    /// One case per class of malformed registers, each with the errno
    /// the guest sees.
    #[test]
    fn malformed_registers_map_to_their_errno() {
        let mut g = Guest::new();
        assert_eq!(g.trap(9999, &[]).0, Errno::ENOSYS.as_ret());
        assert_eq!(g.trap(nr::LSEEK, &[0, 0, 7]).0, Errno::EINVAL.as_ret());
        assert_eq!(g.trap(nr::KILL, &[g.pid.0 as u64, 999]).0, Errno::EINVAL.as_ret());
        // pwritex with nothing parked, then with a length that disagrees
        // with the parked payload (which is consumed either way).
        assert_eq!(g.trap(nr::PWRITEX, &[3, 4, 0]).0, Errno::EFAULT.as_ret());
        g.sup.park_payload(Arc::from(&b"abc"[..]));
        assert_eq!(g.trap(nr::PWRITEX, &[3, 4, 0]).0, Errno::EFAULT.as_ret());
        assert_eq!(g.trap(nr::PWRITEX, &[3, 3, 0]).0, Errno::EFAULT.as_ret());
        // An over-long path is refused before a word is peeked.
        let over = idbox_vfs::path::PATH_MAX as u64 + 1;
        assert_eq!(g.trap(nr::STAT, &[0x100, over, 0x2000]), (Errno::ENAMETOOLONG.as_ret(), 0));
        g.vm.guest_write(0x100, &[b'/', 0xFF, 0xFE]).unwrap();
        assert_eq!(g.trap(nr::UNLINK, &[0x100, 3]).0, Errno::EINVAL.as_ret());
    }

    /// A path argument is charged one peek per word it spans, for each
    /// path a call names.
    #[test]
    fn path_arguments_are_charged_per_word() {
        let mut g = Guest::new();
        g.vm.guest_write(0x100, b"/tmp/abcdefghi").unwrap(); // 14 bytes: 2 words
        g.vm.guest_write(0x200, b"/tmp/a").unwrap(); // 6 bytes: 1 word
        assert_eq!(g.trap(nr::UNLINK, &[0x100, 14]), (Errno::ENOENT.as_ret(), 2));
        assert_eq!(g.trap(nr::RENAME, &[0x200, 6, 0x100, 14]), (Errno::ENOENT.as_ret(), 3));
    }
}
