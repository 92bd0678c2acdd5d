//! The guest program's view of the system.
//!
//! A guest program is a Rust function that receives a [`GuestCtx`] and
//! makes system calls through it. Each call is marshalled into the
//! tracee's registers and memory — strings copied into the string area,
//! data into the data buffer — exactly as a real program's libc would
//! prepare a syscall, and then handed to the [`Supervisor`], which
//! services it in direct or interposed mode. The guest cannot bypass
//! the supervisor: there is no other path to the kernel.

use crate::abi::{self, nr};
use crate::executor::Supervisor;
use crate::vm::TraceeVm;
use idbox_kernel::{ExtentList, OpenFlags, Pid, Signal, Whence};
use idbox_types::{Errno, Identity, SysResult};
use idbox_vfs::{Access, DirEntry, StatBuf};
use std::sync::Arc;

/// Guest memory layout: first path argument.
const STR_A: u64 = 0x0100;
/// Guest memory layout: second path argument.
const STR_B: u64 = 0x1100;
/// Guest memory layout: stat / wait-status / signal area.
const META: u64 = 0x2100;
/// Guest memory layout: textual output buffer.
const OUT: u64 = 0x3000;
/// Capacity of the textual output buffer.
const OUT_CAP: usize = 0xD000;
/// Guest memory layout: bulk data buffer.
const DATA: u64 = 0x10000;

/// A running guest process: its VM plus a handle to its supervisor.
pub struct GuestCtx<'a> {
    sup: &'a mut Supervisor,
    vm: TraceeVm,
    pid: Pid,
}

impl<'a> GuestCtx<'a> {
    /// Create a context for an existing kernel process.
    pub fn new(sup: &'a mut Supervisor, pid: Pid) -> Self {
        GuestCtx {
            sup,
            vm: TraceeVm::new(),
            pid,
        }
    }

    /// Create a context reusing an already-allocated VM. Long-lived
    /// sessions that drive a guest process one request at a time (the
    /// Chirp event loop) keep the VM across dispatches instead of
    /// reallocating its memory image per call.
    pub fn with_vm(sup: &'a mut Supervisor, pid: Pid, vm: TraceeVm) -> Self {
        GuestCtx { sup, vm, pid }
    }

    /// Take the VM back out for reuse by a later [`GuestCtx::with_vm`].
    pub fn into_vm(self) -> TraceeVm {
        self.vm
    }

    /// The process this context drives.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The supervisor (for cost reports in benchmarks).
    pub fn supervisor(&mut self) -> &mut Supervisor {
        self.sup
    }

    fn call(&mut self, n: u64, args: &[u64]) -> i64 {
        self.vm.load_call(n, args);
        self.sup.execute(self.pid, &mut self.vm);
        self.vm.ret()
    }

    fn call_checked(&mut self, n: u64, args: &[u64]) -> SysResult<i64> {
        let ret = self.call(n, args);
        match Errno::from_ret(ret) {
            Some(e) => Err(e),
            None => Ok(ret),
        }
    }

    fn put_str(&mut self, area: u64, s: &str) -> SysResult<(u64, u64)> {
        if s.len() > idbox_vfs::path::PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        self.vm.guest_write(area, s.as_bytes())?;
        Ok((area, s.len() as u64))
    }

    fn read_out(&self, len: usize) -> SysResult<String> {
        let bytes = self.vm.guest_slice(OUT, len)?.to_vec();
        String::from_utf8(bytes).map_err(|_| Errno::EINVAL)
    }

    /// Ensure the data buffer can hold `len` bytes, growing the VM if
    /// needed (a real program would mmap). A VM starts at the scratch
    /// layout plus a small data window and grows in powers of two.
    fn ensure_data_capacity(&mut self, len: usize) {
        let need = DATA as usize + len;
        if need > self.vm.mem_len() {
            self.vm.grow(need.next_power_of_two());
        }
    }

    // ------------------------------------------------------------------
    // Process calls
    // ------------------------------------------------------------------

    /// `getpid()`.
    pub fn getpid(&mut self) -> i64 {
        self.call(nr::GETPID, &[])
    }

    /// `getppid()`.
    pub fn getppid(&mut self) -> i64 {
        self.call(nr::GETPPID, &[])
    }

    /// `getuid()`.
    pub fn getuid(&mut self) -> i64 {
        self.call(nr::GETUID, &[])
    }

    /// `fork()` — returns the child pid. The child is a kernel process;
    /// drive it with [`GuestCtx::run_child`] or a fresh context.
    pub fn fork(&mut self) -> SysResult<Pid> {
        Ok(Pid(self.call_checked(nr::FORK, &[])? as u32))
    }

    /// `exec(path)` — checks nothing locally; the policy layer enforces
    /// the execute right.
    pub fn exec(&mut self, path: &str) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::EXEC, &[p, l])?;
        Ok(())
    }

    /// `exit(code)`.
    pub fn exit(&mut self, code: i32) {
        let _ = self.call(nr::EXIT, &[code as u32 as u64]);
    }

    /// `wait()` — reap any zombie child. `EAGAIN` when children are
    /// still running, `ECHILD` when there are none.
    pub fn wait(&mut self) -> SysResult<(Pid, i32)> {
        let ret = self.call_checked(nr::WAIT, &[META])?;
        let status = self.vm.peek_word(META)? as i64 as i32;
        Ok((Pid(ret as u32), status))
    }

    /// `kill(pid, sig)`.
    pub fn kill(&mut self, pid: Pid, sig: Signal) -> SysResult<()> {
        self.call_checked(nr::KILL, &[pid.0 as u64, sig.number() as u64])?;
        Ok(())
    }

    /// `pipe()` — returns (read fd, write fd). Reads on an empty pipe
    /// with a live writer return `EAGAIN` (the simulation has no
    /// blocking); with no writer they return 0 (EOF). Writes with no
    /// reader fail `EPIPE` and queue a termination signal.
    pub fn pipe(&mut self) -> SysResult<(i64, i64)> {
        self.call_checked(nr::PIPE, &[META])?;
        let rfd = self.vm.peek_word(META)? as i64;
        let wfd = self.vm.peek_word(META + 8)? as i64;
        Ok((rfd, wfd))
    }

    /// Poll and clear pending signals.
    pub fn sigpending(&mut self) -> SysResult<Vec<Signal>> {
        let n = self.call_checked(nr::SIGPENDING, &[META, 16])? as usize;
        let mut words = Vec::with_capacity(n);
        for i in 0..n {
            words.push(self.vm.peek_word(META + (i * 8) as u64)?);
        }
        Ok(abi::decode_signals(&words))
    }

    /// The identity box's new system call: the caller's high-level name
    /// (paper, Section 3).
    pub fn get_user_name(&mut self) -> SysResult<Identity> {
        let n = self.call_checked(nr::GET_USER_NAME, &[OUT, OUT_CAP as u64])? as usize;
        Ok(Identity::new(self.read_out(n)?))
    }

    /// `getenv(name)` — read one variable from the process environment
    /// (seeded by the supervisor, inherited across `fork`). `ENOENT`
    /// when the name is unset.
    pub fn getenv(&mut self, name: &str) -> SysResult<String> {
        let (p, l) = self.put_str(STR_A, name)?;
        let n = self.call_checked(nr::GETENV, &[p, l, OUT, OUT_CAP as u64])? as usize;
        self.read_out(n)
    }

    /// Fork, run `child` to completion in the child process, and return
    /// the child's pid (already exited; reap it with [`GuestCtx::wait`]).
    pub fn run_child(
        &mut self,
        child: impl FnOnce(&mut GuestCtx<'_>) -> i32,
    ) -> SysResult<Pid> {
        let pid = self.fork()?;
        let mut ctx = GuestCtx::new(self.sup, pid);
        let code = child(&mut ctx);
        ctx.exit(code);
        Ok(pid)
    }

    // ------------------------------------------------------------------
    // File calls
    // ------------------------------------------------------------------

    /// `open(path, flags, mode)`.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u16) -> SysResult<i64> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::OPEN, &[p, l, flags.to_bits(), mode as u64])
    }

    /// `close(fd)`.
    pub fn close(&mut self, fd: i64) -> SysResult<()> {
        self.call_checked(nr::CLOSE, &[fd as u64])?;
        Ok(())
    }

    /// `read(fd, buf)` — sequential read into `buf`.
    pub fn read(&mut self, fd: i64, buf: &mut [u8]) -> SysResult<usize> {
        self.ensure_data_capacity(buf.len());
        let n =
            self.call_checked(nr::READ, &[fd as u64, DATA, buf.len() as u64])? as usize;
        buf[..n].copy_from_slice(self.vm.guest_slice(DATA, n)?);
        Ok(n)
    }

    /// `pread(fd, buf, off)`.
    pub fn pread(&mut self, fd: i64, buf: &mut [u8], off: u64) -> SysResult<usize> {
        self.ensure_data_capacity(buf.len());
        let n = self.call_checked(nr::PREAD, &[fd as u64, DATA, buf.len() as u64, off])?
            as usize;
        buf[..n].copy_from_slice(self.vm.guest_slice(DATA, n)?);
        Ok(n)
    }

    /// `preadx(fd, len, off)` — the zero-copy positioned read. The
    /// reply's bytes never enter guest memory: the supervisor parks
    /// them as borrowed `Arc` extents and the embedding context
    /// collects them here. One trap round trip, zero pokes, zero
    /// channel bytes.
    pub fn pread_extents(&mut self, fd: i64, len: usize, off: u64) -> SysResult<ExtentList> {
        let n = self.call_checked(nr::PREADX, &[fd as u64, len as u64, off])? as usize;
        let extents = self.sup.take_extents().unwrap_or_default();
        debug_assert_eq!(extents.total, n, "parked extents disagree with ret");
        Ok(extents)
    }

    /// `write(fd, data)`.
    pub fn write(&mut self, fd: i64, data: &[u8]) -> SysResult<usize> {
        self.ensure_data_capacity(data.len());
        self.vm.guest_write(DATA, data)?;
        let n = self.call_checked(nr::WRITE, &[fd as u64, DATA, data.len() as u64])?;
        Ok(n as usize)
    }

    /// `pwrite(fd, data, off)`.
    pub fn pwrite(&mut self, fd: i64, data: &[u8], off: u64) -> SysResult<usize> {
        self.ensure_data_capacity(data.len());
        self.vm.guest_write(DATA, data)?;
        let n =
            self.call_checked(nr::PWRITE, &[fd as u64, DATA, data.len() as u64, off])?;
        Ok(n as usize)
    }

    /// `pwritex(fd, len, off)` — the owned-payload positioned write, the
    /// inbound mirror of [`GuestCtx::pread_extents`]. `data` is parked
    /// with the supervisor and moved into the kernel call: it is never
    /// copied into guest memory or the I/O channel, and the guest image
    /// does not grow. One trap round trip, zero peeks, zero pokes, zero
    /// channel bytes. For embedding contexts that already own bytes the
    /// guest never held; guest programs use [`GuestCtx::pwrite`].
    pub fn pwrite_owned(&mut self, fd: i64, data: Arc<[u8]>, off: u64) -> SysResult<usize> {
        let len = data.len() as u64;
        self.sup.park_payload(data);
        let n = self.call_checked(nr::PWRITEX, &[fd as u64, len, off])?;
        Ok(n as usize)
    }

    /// `lseek(fd, off, whence)`.
    pub fn lseek(&mut self, fd: i64, off: i64, whence: Whence) -> SysResult<u64> {
        let pos =
            self.call_checked(nr::LSEEK, &[fd as u64, off as u64, abi::whence_code(whence)])?;
        Ok(pos as u64)
    }

    /// `dup(fd)`.
    pub fn dup(&mut self, fd: i64) -> SysResult<i64> {
        self.call_checked(nr::DUP, &[fd as u64])
    }

    /// `stat(path)`.
    pub fn stat(&mut self, path: &str) -> SysResult<StatBuf> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::STAT, &[p, l, META])?;
        self.read_stat()
    }

    /// `lstat(path)`.
    pub fn lstat(&mut self, path: &str) -> SysResult<StatBuf> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::LSTAT, &[p, l, META])?;
        self.read_stat()
    }

    /// `fstat(fd)`.
    pub fn fstat(&mut self, fd: i64) -> SysResult<StatBuf> {
        self.call_checked(nr::FSTAT, &[fd as u64, META])?;
        self.read_stat()
    }

    fn read_stat(&self) -> SysResult<StatBuf> {
        let mut words = [0u64; abi::STAT_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.vm.peek_word(META + (i * 8) as u64)?;
        }
        abi::decode_stat(&words)
    }

    /// `truncate(path, len)`.
    pub fn truncate(&mut self, path: &str, len: u64) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::TRUNCATE, &[p, l, len])?;
        Ok(())
    }

    /// `access(path, mask)`.
    pub fn access(&mut self, path: &str, want: Access) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::ACCESS, &[p, l, want.0 as u64])?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Namespace calls
    // ------------------------------------------------------------------

    /// `mkdir(path, mode)`.
    pub fn mkdir(&mut self, path: &str, mode: u16) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::MKDIR, &[p, l, mode as u64])?;
        Ok(())
    }

    /// `rmdir(path)`.
    pub fn rmdir(&mut self, path: &str) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::RMDIR, &[p, l])?;
        Ok(())
    }

    /// `unlink(path)`.
    pub fn unlink(&mut self, path: &str) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::UNLINK, &[p, l])?;
        Ok(())
    }

    /// `link(old, new)`.
    pub fn link(&mut self, old: &str, new: &str) -> SysResult<()> {
        let (p0, l0) = self.put_str(STR_A, old)?;
        let (p1, l1) = self.put_str(STR_B, new)?;
        self.call_checked(nr::LINK, &[p0, l0, p1, l1])?;
        Ok(())
    }

    /// `symlink(target, linkpath)`.
    pub fn symlink(&mut self, target: &str, linkpath: &str) -> SysResult<()> {
        let (p0, l0) = self.put_str(STR_A, target)?;
        let (p1, l1) = self.put_str(STR_B, linkpath)?;
        self.call_checked(nr::SYMLINK, &[p0, l0, p1, l1])?;
        Ok(())
    }

    /// `readlink(path)`.
    pub fn readlink(&mut self, path: &str) -> SysResult<String> {
        let (p, l) = self.put_str(STR_A, path)?;
        let n = self.call_checked(nr::READLINK, &[p, l, OUT, OUT_CAP as u64])? as usize;
        self.read_out(n)
    }

    /// `rename(old, new)`.
    pub fn rename(&mut self, old: &str, new: &str) -> SysResult<()> {
        let (p0, l0) = self.put_str(STR_A, old)?;
        let (p1, l1) = self.put_str(STR_B, new)?;
        self.call_checked(nr::RENAME, &[p0, l0, p1, l1])?;
        Ok(())
    }

    /// `readdir(path)`.
    pub fn readdir(&mut self, path: &str) -> SysResult<Vec<DirEntry>> {
        let (p, l) = self.put_str(STR_A, path)?;
        let n = self.call_checked(nr::READDIR, &[p, l, OUT, OUT_CAP as u64])? as usize;
        abi::decode_entries(&self.read_out(n)?)
    }

    /// `chmod(path, mode)`.
    pub fn chmod(&mut self, path: &str, mode: u16) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::CHMOD, &[p, l, mode as u64])?;
        Ok(())
    }

    /// `chown(path, uid, gid)`.
    pub fn chown(&mut self, path: &str, uid: u32, gid: u32) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::CHOWN, &[p, l, uid as u64, gid as u64])?;
        Ok(())
    }

    /// `chdir(path)`.
    pub fn chdir(&mut self, path: &str) -> SysResult<()> {
        let (p, l) = self.put_str(STR_A, path)?;
        self.call_checked(nr::CHDIR, &[p, l])?;
        Ok(())
    }

    /// `getcwd()`.
    pub fn getcwd(&mut self) -> SysResult<String> {
        let n = self.call_checked(nr::GETCWD, &[OUT, OUT_CAP as u64])? as usize;
        self.read_out(n)
    }

    /// `umask(mask)` — returns the previous mask.
    pub fn umask(&mut self, mask: u16) -> SysResult<u16> {
        Ok(self.call_checked(nr::UMASK, &[mask as u64])? as u16)
    }

    // ------------------------------------------------------------------
    // Composite helpers (libc-style conveniences; every byte still moves
    // through the syscall interface above)
    // ------------------------------------------------------------------

    /// Read an entire file (sizing the buffer by `fstat` first, the way
    /// a real libc slurp does).
    pub fn read_file(&mut self, path: &str) -> SysResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::rdonly(), 0)?;
        let result = (|| {
            let size = self.fstat(fd)?.size as usize;
            let mut out = Vec::new();
            let mut buf = vec![0u8; size.clamp(512, 262_144)];
            loop {
                let n = self.read(fd, &mut buf)?;
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf[..n]);
            }
            Ok(out)
        })();
        let _ = self.close(fd);
        result
    }

    /// Read an entire file as borrowed extents (open → fstat → preadx
    /// → close): the zero-copy slurp backing the Chirp server's `get`.
    /// The returned extents are `Arc` clones of the file's chunks — a
    /// point-in-time snapshot that stays valid however the file is
    /// rewritten afterwards.
    pub fn read_file_extents(&mut self, path: &str) -> SysResult<ExtentList> {
        let fd = self.open(path, OpenFlags::rdonly(), 0)?;
        let result = (|| {
            let size = self.fstat(fd)?.size as usize;
            self.pread_extents(fd, size, 0)
        })();
        let _ = self.close(fd);
        result
    }

    /// Create or replace a file with the given contents.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> SysResult<()> {
        self.write_file_mode(path, data, 0o644)
    }

    /// Create or replace a file with an owned buffer as its contents
    /// (open → pwritex → close): the Chirp server's `put`. Three traps
    /// whatever the size, and the bytes move into the kernel without a
    /// copy through guest memory. An empty file skips the write, as
    /// [`GuestCtx::write_file_mode`] does. The buffer cannot be resent,
    /// so a short write fails with `EIO` instead of being resumed.
    pub fn put_file(&mut self, path: &str, data: Arc<[u8]>, mode: u16) -> SysResult<()> {
        let fd = self.open(path, OpenFlags::wronly_create_trunc(), mode)?;
        let len = data.len();
        let written = match len {
            0 => Ok(0),
            _ => self.pwrite_owned(fd, data, 0),
        };
        let closed = self.close(fd);
        match written? {
            n if n == len => closed,
            _ => Err(Errno::EIO),
        }
    }

    /// Create or replace a file with the given contents and creation
    /// mode (staging executables needs 0o755).
    pub fn write_file_mode(&mut self, path: &str, data: &[u8], mode: u16) -> SysResult<()> {
        let fd = self.open(path, OpenFlags::wronly_create_trunc(), mode)?;
        let mut off = 0;
        while off < data.len() {
            let chunk = &data[off..(off + 65536).min(data.len())];
            match self.write(fd, chunk) {
                Ok(n) => off += n,
                Err(e) => {
                    let _ = self.close(fd);
                    return Err(e);
                }
            }
        }
        self.close(fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{share, Supervisor};
    use idbox_kernel::Kernel;
    use idbox_types::CostModel;
    use idbox_vfs::Cred;

    fn setup(mode_interposed: bool) -> (Supervisor, Pid) {
        let kernel = share(Kernel::new());
        let pid = kernel
            .lock()
            .spawn(Cred::ROOT, "/tmp", "test")
            .expect("spawn");
        let sup = if mode_interposed {
            Supervisor::interposed(
                kernel,
                Box::new(crate::AllowAll),
                CostModel::calibrated(),
            )
        } else {
            Supervisor::direct(kernel)
        };
        (sup, pid)
    }

    /// Every behavioural test runs in both modes: interposition must be
    /// transparent.
    fn both_modes(test: impl Fn(&mut GuestCtx<'_>)) {
        for interposed in [false, true] {
            let (mut sup, pid) = setup(interposed);
            let mut ctx = GuestCtx::new(&mut sup, pid);
            test(&mut ctx);
        }
    }

    #[test]
    fn getpid_matches_kernel_pid() {
        both_modes(|ctx| {
            assert_eq!(ctx.getpid(), ctx.pid().0 as i64);
        });
    }

    #[test]
    fn file_roundtrip_small() {
        both_modes(|ctx| {
            ctx.write_file("/tmp/small", b"hello world").unwrap();
            assert_eq!(ctx.read_file("/tmp/small").unwrap(), b"hello world");
        });
    }

    #[test]
    fn file_roundtrip_bulk() {
        both_modes(|ctx| {
            let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7) as u8).collect();
            ctx.write_file("/tmp/bulk", &data).unwrap();
            assert_eq!(ctx.read_file("/tmp/bulk").unwrap(), data);
        });
    }

    #[test]
    fn stat_and_readdir() {
        both_modes(|ctx| {
            ctx.mkdir("/tmp/d", 0o755).unwrap();
            ctx.write_file("/tmp/d/f", b"x").unwrap();
            let st = ctx.stat("/tmp/d/f").unwrap();
            assert_eq!(st.size, 1);
            let names: Vec<_> = ctx
                .readdir("/tmp/d")
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            assert_eq!(names, [".", "..", "f"]);
        });
    }

    #[test]
    fn seek_and_pread() {
        both_modes(|ctx| {
            ctx.write_file("/tmp/f", b"0123456789").unwrap();
            let fd = ctx.open("/tmp/f", OpenFlags::rdonly(), 0).unwrap();
            let mut buf = [0u8; 4];
            assert_eq!(ctx.pread(fd, &mut buf, 3).unwrap(), 4);
            assert_eq!(&buf, b"3456");
            ctx.lseek(fd, 8, Whence::Set).unwrap();
            let n = ctx.read(fd, &mut buf).unwrap();
            assert_eq!(&buf[..n], b"89");
            ctx.close(fd).unwrap();
        });
    }

    #[test]
    fn fork_wait_roundtrip() {
        both_modes(|ctx| {
            let child = ctx
                .run_child(|c| {
                    c.write_file("/tmp/from_child", b"hi").unwrap();
                    7
                })
                .unwrap();
            let (reaped, code) = ctx.wait().unwrap();
            assert_eq!(reaped, child);
            assert_eq!(code, 7);
            assert_eq!(ctx.read_file("/tmp/from_child").unwrap(), b"hi");
        });
    }

    #[test]
    fn symlink_readlink_rename() {
        both_modes(|ctx| {
            ctx.write_file("/tmp/t", b"x").unwrap();
            ctx.symlink("/tmp/t", "/tmp/l").unwrap();
            assert_eq!(ctx.readlink("/tmp/l").unwrap(), "/tmp/t");
            assert_eq!(ctx.read_file("/tmp/l").unwrap(), b"x");
            ctx.rename("/tmp/t", "/tmp/t2").unwrap();
            assert_eq!(ctx.read_file("/tmp/l"), Err(Errno::ENOENT));
        });
    }

    #[test]
    fn cwd_and_relative_ops() {
        both_modes(|ctx| {
            ctx.mkdir("/tmp/w", 0o755).unwrap();
            ctx.chdir("/tmp/w").unwrap();
            assert_eq!(ctx.getcwd().unwrap(), "/tmp/w");
            ctx.write_file("rel.txt", b"r").unwrap();
            assert_eq!(ctx.read_file("/tmp/w/rel.txt").unwrap(), b"r");
        });
    }

    #[test]
    fn errors_cross_the_boundary() {
        both_modes(|ctx| {
            assert_eq!(ctx.read_file("/no/such/file"), Err(Errno::ENOENT));
            ctx.write_file("/tmp/occupant", b"x").unwrap();
            assert_eq!(ctx.rmdir("/tmp"), Err(Errno::ENOTEMPTY));
            assert_eq!(ctx.close(999), Err(Errno::EBADF));
        });
    }

    #[test]
    fn get_user_name_reports_account() {
        both_modes(|ctx| {
            assert_eq!(ctx.get_user_name().unwrap().as_str(), "root");
        });
    }

    #[test]
    fn interposed_counts_costs() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        ctx.getpid();
        ctx.write_file("/tmp/x", b"abc").unwrap();
        let report = ctx.supervisor().cost_report();
        // open + write + close + getpid = 4 traps, 6 switches each.
        assert_eq!(report.traps, 4);
        assert_eq!(report.switches, 24);
        assert!(report.peeks > 0, "path bytes must be peeked");
    }

    #[test]
    fn bulk_write_uses_channel() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let big = vec![1u8; 10_000];
        ctx.write_file("/tmp/big", &big).unwrap();
        let report = ctx.supervisor().cost_report();
        assert!(
            report.channel_bytes >= 10_000,
            "bulk payload must cross the channel, got {}",
            report.channel_bytes
        );
    }

    #[test]
    fn small_read_uses_pokes_not_channel() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        ctx.write_file("/tmp/s", b"tiny").unwrap();
        ctx.supervisor().reset_cost_report();
        let _ = ctx.read_file("/tmp/s").unwrap();
        let report = ctx.supervisor().cost_report();
        assert!(report.pokes > 0);
        assert_eq!(report.channel_bytes, 0);
    }

    #[test]
    fn extent_read_matches_flat_read() {
        both_modes(|ctx| {
            let data: Vec<u8> = (0..200_000u32).map(|i| (i * 13) as u8).collect();
            ctx.write_file("/tmp/x", &data).unwrap();
            let x = ctx.read_file_extents("/tmp/x").unwrap();
            assert_eq!(x.total, data.len());
            assert_eq!(x.to_vec(), data);
            // Windowed positioned reads agree with pread.
            let fd = ctx.open("/tmp/x", OpenFlags::rdonly(), 0).unwrap();
            let w = ctx.pread_extents(fd, 1000, 99_500).unwrap();
            assert_eq!(w.to_vec(), &data[99_500..100_500]);
            // Past EOF: empty, not an error.
            assert!(ctx.pread_extents(fd, 10, 1 << 30).unwrap().is_empty());
            ctx.close(fd).unwrap();
        });
    }

    #[test]
    fn read_across_chunks_is_charged_as_one_buffer() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7) as u8).collect();
        ctx.write_file("/tmp/x", &data).unwrap();
        let fd = ctx.open("/tmp/x", OpenFlags::rdonly(), 0).unwrap();
        // 203 bytes straddling the first 64 KiB chunk boundary: poked,
        // 26 words plus one peek for the partial last word.
        ctx.supervisor().reset_cost_report();
        let mut small = [0u8; 203];
        assert_eq!(ctx.pread(fd, &mut small, 65_436), Ok(203));
        assert_eq!(&small[..], &data[65_436..65_639]);
        let r = ctx.supervisor().cost_report();
        assert_eq!((r.traps, r.pokes, r.peeks, r.channel_bytes), (1, 26, 1, 0));
        // 70,000 bytes over two boundaries: one channel transfer.
        ctx.supervisor().reset_cost_report();
        let mut bulk = vec![0u8; 70_000];
        assert_eq!(ctx.pread(fd, &mut bulk, 60_000), Ok(70_000));
        assert_eq!(bulk, &data[60_000..130_000]);
        let r = ctx.supervisor().cost_report();
        assert_eq!((r.traps, r.pokes, r.channel_bytes), (1, 0, 70_000));
        ctx.close(fd).unwrap();
    }

    #[test]
    fn extent_read_is_zero_copy_on_the_wire() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let big = vec![3u8; 300_000];
        ctx.write_file("/tmp/big", &big).unwrap();
        ctx.supervisor().reset_cost_report();
        let fd = ctx.open("/tmp/big", OpenFlags::rdonly(), 0).unwrap();
        let x = ctx.pread_extents(fd, big.len(), 0).unwrap();
        ctx.close(fd).unwrap();
        assert_eq!(x.total, big.len());
        let report = ctx.supervisor().cost_report();
        // open + preadx + close: three traps, and the payload crossed
        // neither the channel nor the poke path — only the length
        // register came back. That is the zero copy.
        assert_eq!(report.traps, 3);
        assert_eq!(report.channel_bytes, 0);
        assert_eq!(report.pokes, 0);
    }

    #[test]
    fn owned_write_matches_flat_write() {
        both_modes(|ctx| {
            let data: Vec<u8> = (0..200_000u32).map(|i| (i * 29) as u8).collect();
            ctx.put_file("/tmp/owned", data[..].into(), 0o600).unwrap();
            assert_eq!(ctx.read_file("/tmp/owned").unwrap(), data);
            assert_eq!(ctx.stat("/tmp/owned").unwrap().mode & 0o777, 0o600);
            // Positioned: patch a window in place, then write past EOF.
            let fd = ctx.open("/tmp/owned", OpenFlags::rdwr(), 0).unwrap();
            assert_eq!(ctx.pwrite_owned(fd, vec![7u8; 1000].into(), 99_500).unwrap(), 1000);
            assert_eq!(ctx.pwrite_owned(fd, b"tail"[..].into(), 300_000).unwrap(), 4);
            ctx.close(fd).unwrap();
            let mut want = data;
            want[99_500..100_500].fill(7);
            want.resize(300_000, 0);
            want.extend_from_slice(b"tail");
            assert_eq!(ctx.read_file("/tmp/owned").unwrap(), want);
            // An empty put truncates, and replaces the old contents.
            ctx.put_file("/tmp/owned", Arc::from([]), 0o644).unwrap();
            assert_eq!(ctx.read_file("/tmp/owned").unwrap(), b"");
            // Errors cross the boundary as usual.
            assert_eq!(ctx.put_file("/no/such/dir/f", Arc::from([1]), 0o644), Err(Errno::ENOENT));
            assert_eq!(ctx.pwrite_owned(999, Arc::from([1]), 0), Err(Errno::EBADF));
        });
    }

    #[test]
    fn owned_put_is_three_traps_and_no_channel_bytes() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let big: Arc<[u8]> = vec![5u8; 1 << 20].into();
        ctx.put_file("/tmp/big", big.clone(), 0o644).unwrap();
        let report = ctx.supervisor().cost_report();
        // open + pwritex + close, whatever the size; the payload never
        // crossed the channel.
        assert_eq!(report.traps, 3);
        assert_eq!(report.channel_bytes, 0);
        assert_eq!(ctx.supervisor().channel_bytes(), 0);
        // The pwritex trap on its own: one round trip, and nothing
        // peeked or poked — only registers crossed.
        let fd = ctx.open("/tmp/big", OpenFlags::rdwr(), 0).unwrap();
        ctx.supervisor().reset_cost_report();
        assert_eq!(ctx.pwrite_owned(fd, big, 0).unwrap(), 1 << 20);
        let report = ctx.supervisor().cost_report();
        assert_eq!(report.traps, 1);
        assert_eq!(report.peeks, 0);
        assert_eq!(report.pokes, 0);
        assert_eq!(report.channel_bytes, 0);
        ctx.close(fd).unwrap();
        // The guest-facing write keeps the channel: that copy is the
        // paper's Figure 4(b) cost.
        ctx.supervisor().reset_cost_report();
        ctx.write_file("/tmp/flat", &[5u8; 10_000]).unwrap();
        assert_eq!(ctx.supervisor().cost_report().channel_bytes, 10_000);
    }

    #[test]
    fn pwritex_without_a_matching_parked_payload_is_efault() {
        both_modes(|ctx| {
            let fd = ctx
                .open("/tmp/e", OpenFlags::wronly_create_trunc(), 0o644)
                .unwrap();
            // Nothing parked.
            let ret = ctx.call(nr::PWRITEX, &[fd as u64, 3, 0]);
            assert_eq!(Errno::from_ret(ret), Some(Errno::EFAULT));
            // Parked, but the length register disagrees: refused, and
            // the mismatched buffer is consumed rather than left for a
            // later call.
            ctx.sup.park_payload(b"abcd"[..].into());
            let ret = ctx.call(nr::PWRITEX, &[fd as u64, 3, 0]);
            assert_eq!(Errno::from_ret(ret), Some(Errno::EFAULT));
            let ret = ctx.call(nr::PWRITEX, &[fd as u64, 4, 0]);
            assert_eq!(Errno::from_ret(ret), Some(Errno::EFAULT));
            // Other calls never consume a parked payload.
            ctx.sup.park_payload(b"abc"[..].into());
            assert_eq!(ctx.write(fd, b"xyz").unwrap(), 3);
            let ret = ctx.call(nr::PWRITEX, &[fd as u64, 3, 3]);
            assert_eq!(ret, 3);
            ctx.close(fd).unwrap();
            assert_eq!(ctx.read_file("/tmp/e").unwrap(), b"xyzabc");
        });
    }

    #[test]
    fn owned_write_does_not_grow_the_guest_image() {
        both_modes(|ctx| {
            let before = ctx.vm.mem_len();
            let fd = ctx
                .open("/tmp/huge", OpenFlags::wronly_create_trunc(), 0o644)
                .unwrap();
            let n = ctx.pwrite_owned(fd, vec![9u8; 8 << 20].into(), 0).unwrap();
            assert_eq!(n, 8 << 20);
            ctx.put_file("/tmp/huge2", vec![9u8; 8 << 20].into(), 0o644).unwrap();
            assert_eq!(ctx.vm.mem_len(), before, "guest image grew");
            // The guest-memory write path is what pins a large image:
            // the VM never shrinks.
            ctx.pwrite(fd, &[9u8; 1 << 20], 0).unwrap();
            assert!(ctx.vm.mem_len() > 1 << 20);
            ctx.close(fd).unwrap();
        });
    }

    #[test]
    fn direct_mode_counts_nothing() {
        let (mut sup, pid) = setup(false);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        ctx.write_file("/tmp/x", b"abc").unwrap();
        let report = ctx.supervisor().cost_report();
        assert_eq!(report.traps, 0);
        assert_eq!(report.peeks, 0);
        assert_eq!(report.channel_bytes, 0);
    }

    #[test]
    fn pipe_ipc_between_parent_and_child() {
        both_modes(|ctx| {
            let (rfd, wfd) = ctx.pipe().unwrap();
            ctx.run_child(move |c| {
                // The child inherits both ends; it writes and closes.
                c.write(wfd, b"pipeline message").unwrap();
                c.close(wfd).unwrap();
                c.close(rfd).unwrap();
                0
            })
            .unwrap();
            ctx.wait().unwrap();
            ctx.close(wfd).unwrap();
            let mut buf = [0u8; 32];
            let n = ctx.read(rfd, &mut buf).unwrap();
            assert_eq!(&buf[..n], b"pipeline message");
            // All writers gone and drained: EOF.
            assert_eq!(ctx.read(rfd, &mut buf).unwrap(), 0);
            ctx.close(rfd).unwrap();
        });
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let (mut sup, pid) = setup(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let ret = ctx.call(9999, &[]);
        assert_eq!(Errno::from_ret(ret), Some(Errno::ENOSYS));
    }
}
