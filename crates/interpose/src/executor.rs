//! The supervisor: decode, police, delegate, nullify, reply.

use crate::abi::{self, nr};
use crate::channel::IoChannel;
use crate::policy::{AllowAll, PolicyDecision, SyscallPolicy};
use crate::trace::TraceSink;
use crate::vm::{reg, TraceeVm};
use crate::{SharedKernel, SMALL_IO_MAX};
use idbox_kernel::{ByteExtent, ExtentList, LatencyStats, OpenFlags, Pid, Signal, Syscall, SysRet};
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
        let latency = Arc::clone(kernel.read().latency());
        Supervisor {
            kernel,
            mode: ExecMode::Direct,
            policy: Box::new(AllowAll),
            engine: SwitchEngine::new(CostModel::free_switches()),
            channel: IoChannel::new(),
            trace: None,
            obs: None,
            latency,
            pending_extents: None,
            pending_payload: None,
        }
    }

    /// A kernel-resident policy: the checks of `policy` run on every
    /// call, but at native cost — what Section 9 argues future operating
    /// systems should provide.
    pub fn in_kernel(kernel: SharedKernel, policy: Box<dyn SyscallPolicy>) -> Self {
        let latency = Arc::clone(kernel.read().latency());
        Supervisor {
            kernel,
            mode: ExecMode::InKernel,
            policy,
            engine: SwitchEngine::new(CostModel::free_switches()),
            channel: IoChannel::new(),
            trace: None,
            obs: None,
            latency,
            pending_extents: None,
            pending_payload: None,
        }
    }

    /// An interposed supervisor with a policy and a cost model.
    pub fn interposed(
        kernel: SharedKernel,
        policy: Box<dyn SyscallPolicy>,
        model: CostModel,
    ) -> Self {
        let latency = Arc::clone(kernel.read().latency());
        Supervisor {
            kernel,
            mode: ExecMode::Interposed,
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
        // The policy span is timed only when there is somewhere to put it.
        let p0 = self.obs.as_ref().map(|_| Instant::now());
        let decision = self.policy.check(&kernel, pid, call);
        if let (Some(obs), Some(p0)) = (&self.obs, p0) {
            Self::observe_span(obs, "policy", call.name(), p0.elapsed().as_nanos() as u64);
        }
        let mut result = match decision {
            PolicyDecision::Allow => kernel.syscall_shared(pid, call),
            PolicyDecision::Rewrite(replacement) => kernel.syscall_shared(pid, &replacement),
            PolicyDecision::Deny(errno) => Err(errno),
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

fn read_str(reader: &mut dyn ArgReader, vm: &TraceeVm, addr: u64, len: u64) -> SysResult<String> {
    if len as usize > idbox_vfs::path::PATH_MAX {
        return Err(Errno::ENAMETOOLONG);
    }
    let bytes = reader.read_bytes(vm, addr, len as usize)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| Errno::EINVAL)
}

/// Decode the registers (and any memory-resident arguments) into a typed
/// call plus the location where its reply payload belongs. A `pwritex`
/// takes its data from `parked` instead of guest memory.
fn decode_call(
    vm: &TraceeVm,
    reader: &mut dyn ArgReader,
    parked: &mut Option<Arc<[u8]>>,
) -> SysResult<(Syscall, OutSpec)> {
    let r = &vm.regs;
    let (n, a0, a1, a2, a3) = (r[reg::NR], r[reg::A0], r[reg::A1], r[reg::A2], r[reg::A3]);
    let call = match n {
        nr::GETPID => (Syscall::Getpid, OutSpec::None),
        nr::GETPPID => (Syscall::Getppid, OutSpec::None),
        nr::GETUID => (Syscall::Getuid, OutSpec::None),
        nr::OPEN => {
            let path = read_str(reader, vm, a0, a1)?;
            (
                Syscall::Open(path, OpenFlags::from_bits(a2), a3 as u16),
                OutSpec::None,
            )
        }
        nr::CLOSE => (Syscall::Close(a0 as usize), OutSpec::None),
        nr::READ => (
            Syscall::Read(a0 as usize, a2 as usize),
            OutSpec::Buf {
                addr: a1,
                cap: a2 as usize,
            },
        ),
        nr::PREAD => (
            Syscall::Pread(a0 as usize, a2 as usize, a3),
            OutSpec::Buf {
                addr: a1,
                cap: a2 as usize,
            },
        ),
        // Zero-copy read: the reply is held supervisor-side as borrowed
        // extents, so there is no output buffer to fill.
        nr::PREADX => (Syscall::Preadx(a0 as usize, a1 as usize, a2), OutSpec::Park),
        // One allocation per payload, the buffer a file appended to
        // adopts as its chunks.
        nr::WRITE => {
            let data = Arc::from(reader.read_bytes(vm, a1, a2 as usize)?);
            (Syscall::Write(a0 as usize, data), OutSpec::None)
        }
        nr::PWRITE => {
            let data = Arc::from(reader.read_bytes(vm, a1, a2 as usize)?);
            (Syscall::Pwrite(a0 as usize, data, a3), OutSpec::None)
        }
        // Owned-payload write: the data was parked supervisor-side, so
        // nothing is peeked or staged through the channel. A missing
        // payload, or one whose length disagrees with the register, is
        // a bad buffer address as far as the guest can tell.
        nr::PWRITEX => match parked.take() {
            Some(data) if data.len() as u64 == a1 => {
                (Syscall::Pwrite(a0 as usize, data, a2), OutSpec::None)
            }
            _ => return Err(Errno::EFAULT),
        },
        nr::LSEEK => (
            Syscall::Lseek(a0 as usize, a1 as i64, abi::whence_from_code(a2)?),
            OutSpec::None,
        ),
        nr::DUP => (Syscall::Dup(a0 as usize), OutSpec::None),
        nr::STAT => (
            Syscall::Stat(read_str(reader, vm, a0, a1)?),
            OutSpec::Stat { addr: a2 },
        ),
        nr::LSTAT => (
            Syscall::Lstat(read_str(reader, vm, a0, a1)?),
            OutSpec::Stat { addr: a2 },
        ),
        nr::FSTAT => (
            Syscall::Fstat(a0 as usize),
            OutSpec::Stat { addr: a1 },
        ),
        nr::MKDIR => (
            Syscall::Mkdir(read_str(reader, vm, a0, a1)?, a2 as u16),
            OutSpec::None,
        ),
        nr::RMDIR => (Syscall::Rmdir(read_str(reader, vm, a0, a1)?), OutSpec::None),
        nr::UNLINK => (Syscall::Unlink(read_str(reader, vm, a0, a1)?), OutSpec::None),
        nr::LINK => (
            Syscall::Link(
                read_str(reader, vm, a0, a1)?,
                read_str(reader, vm, a2, a3)?,
            ),
            OutSpec::None,
        ),
        nr::SYMLINK => (
            Syscall::Symlink(
                read_str(reader, vm, a0, a1)?,
                read_str(reader, vm, a2, a3)?,
            ),
            OutSpec::None,
        ),
        nr::READLINK => (
            Syscall::Readlink(read_str(reader, vm, a0, a1)?),
            OutSpec::Buf {
                addr: a2,
                cap: a3 as usize,
            },
        ),
        nr::RENAME => (
            Syscall::Rename(
                read_str(reader, vm, a0, a1)?,
                read_str(reader, vm, a2, a3)?,
            ),
            OutSpec::None,
        ),
        nr::TRUNCATE => (
            Syscall::Truncate(read_str(reader, vm, a0, a1)?, a2),
            OutSpec::None,
        ),
        nr::ACCESS => (
            Syscall::AccessCheck(read_str(reader, vm, a0, a1)?, Access(a2 as u8)),
            OutSpec::None,
        ),
        nr::READDIR => (
            Syscall::Readdir(read_str(reader, vm, a0, a1)?),
            OutSpec::Buf {
                addr: a2,
                cap: a3 as usize,
            },
        ),
        nr::CHMOD => (
            Syscall::Chmod(read_str(reader, vm, a0, a1)?, a2 as u16),
            OutSpec::None,
        ),
        nr::CHOWN => (
            Syscall::Chown(read_str(reader, vm, a0, a1)?, a2 as u32, a3 as u32),
            OutSpec::None,
        ),
        nr::CHDIR => (Syscall::Chdir(read_str(reader, vm, a0, a1)?), OutSpec::None),
        nr::GETCWD => (
            Syscall::Getcwd,
            OutSpec::Buf {
                addr: a0,
                cap: a1 as usize,
            },
        ),
        nr::UMASK => (Syscall::Umask(a0 as u16), OutSpec::None),
        nr::FORK => (Syscall::Fork, OutSpec::None),
        nr::EXEC => (Syscall::Exec(read_str(reader, vm, a0, a1)?), OutSpec::None),
        nr::EXIT => (Syscall::Exit(a0 as i64 as i32), OutSpec::None),
        nr::WAIT => (Syscall::Wait, OutSpec::Status { addr: a0 }),
        nr::KILL => {
            let sig = Signal::from_number(a1 as u32).ok_or(Errno::EINVAL)?;
            (Syscall::Kill(Pid(a0 as u32), sig), OutSpec::None)
        }
        nr::PIPE => (Syscall::Pipe, OutSpec::PipeFds { addr: a0 }),
        nr::SIGPENDING => (
            Syscall::SigPending,
            OutSpec::Sigs {
                addr: a0,
                cap_words: a1 as usize,
            },
        ),
        nr::GET_USER_NAME => (
            Syscall::GetUserName,
            OutSpec::Buf {
                addr: a0,
                cap: a1 as usize,
            },
        ),
        nr::GETENV => (
            Syscall::Getenv(read_str(reader, vm, a0, a1)?),
            OutSpec::Buf {
                addr: a2,
                cap: a3 as usize,
            },
        ),
        _ => return Err(Errno::ENOSYS),
    };
    Ok(call)
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
            let mut parts = x.parts.iter().map(ByteExtent::as_slice);
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
