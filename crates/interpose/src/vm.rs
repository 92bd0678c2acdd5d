//! The tracee's registers and memory.

use idbox_types::{Errno, SysResult};

/// Number of register slots (the size of `user_regs_struct` on x86-64,
/// which a real `PTRACE_GETREGS` transfers in full).
pub const NREGS: usize = 27;

/// Register indices used by the syscall ABI.
pub mod reg {
    /// Syscall number on entry; result on exit.
    pub const NR: usize = 0;
    /// First argument; argument `i` is `A0 + i`, six in all (no
    /// current call uses more than four, but the ABI transfers the
    /// full register file).
    pub const A0: usize = 1;
    /// Return value.
    pub const RET: usize = 7;
}

/// Default guest memory size: the guest's fixed scratch layout (64 KiB
/// of argument, stat and text-output areas) plus a 32 KiB window of bulk
/// data buffer. Larger transfers grow the memory on demand
/// (`TraceeVm::grow`), so a short-lived process — every forked child
/// of a build — never pays for a megabyte it does not touch.
pub const DEFAULT_MEM: usize = 96 << 10;

/// A simulated traced process: a register file and a flat byte memory.
///
/// The supervisor may only touch the tracee through [`TraceeVm::peek_word`]
/// and [`TraceeVm::poke_word`] (the `PTRACE_PEEKDATA`/`POKEDATA`
/// equivalents, one machine word at a time) plus whole-register-file
/// transfers; the *guest program itself* accesses its memory freely, the
/// way real code does.
#[derive(Debug, Clone)]
pub struct TraceeVm {
    /// The register file.
    pub regs: [u64; NREGS],
    mem: Vec<u8>,
}

impl Default for TraceeVm {
    fn default() -> Self {
        TraceeVm::new()
    }
}

impl TraceeVm {
    /// A VM with the default memory size.
    pub fn new() -> Self {
        TraceeVm::with_memory(DEFAULT_MEM)
    }

    /// A VM with a specific memory size (rounded up to 8 bytes).
    pub fn with_memory(bytes: usize) -> Self {
        TraceeVm {
            regs: [0; NREGS],
            mem: vec![0; bytes.div_ceil(8) * 8],
        }
    }

    /// Memory size in bytes.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    /// Grow the memory to at least `bytes` (rounded up to 8 bytes),
    /// keeping its contents; the new tail is zeroed. Never shrinks.
    pub(crate) fn grow(&mut self, bytes: usize) {
        let want = bytes.div_ceil(8) * 8;
        if want > self.mem.len() {
            self.mem.resize(want, 0);
        }
    }

    /// Supervisor-side: read one aligned-enough word (8 bytes) of tracee
    /// memory. Fails with `EFAULT` outside the address space, like a real
    /// `PTRACE_PEEKDATA`.
    #[inline]
    pub fn peek_word(&self, addr: u64) -> SysResult<u64> {
        let a = addr as usize;
        let end = a.checked_add(8).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.mem[a..end]);
        Ok(u64::from_le_bytes(b))
    }

    /// Supervisor-side: write one word of tracee memory.
    #[inline]
    pub fn poke_word(&mut self, addr: u64, word: u64) -> SysResult<()> {
        let a = addr as usize;
        let end = a.checked_add(8).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        self.mem[a..end].copy_from_slice(&word.to_le_bytes());
        Ok(())
    }

    /// The word-granular span a ranged transfer of `len` bytes covers:
    /// a `peek_word`/`poke_word` loop always moves whole words, so the
    /// trailing partial word must lie fully inside the address space.
    fn word_span(&self, addr: u64, len: usize) -> SysResult<usize> {
        let a = addr as usize;
        let span = len.div_ceil(8).checked_mul(8).ok_or(Errno::EFAULT)?;
        let end = a.checked_add(span).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        Ok(a)
    }

    /// Supervisor-side: read `len` bytes of tracee memory in one ranged
    /// transfer (the `process_vm_readv` upgrade over a `PTRACE_PEEKDATA`
    /// loop). Faults exactly where the word loop it replaces would:
    /// bounds are word-granular, so a read whose trailing partial word
    /// pokes past the address space is `EFAULT` even if the requested
    /// bytes themselves would fit.
    pub fn peek_bytes(&self, addr: u64, len: usize) -> SysResult<&[u8]> {
        if len == 0 {
            return Ok(&[]);
        }
        let a = self.word_span(addr, len)?;
        Ok(&self.mem[a..a + len])
    }

    /// Supervisor-side: write `data` into tracee memory in one ranged
    /// transfer (the `process_vm_writev` upgrade over a
    /// `PTRACE_POKEDATA` loop). Word-granular bounds, like
    /// [`TraceeVm::peek_bytes`]; bytes beyond `data` in the trailing
    /// partial word are preserved, matching the word loop's
    /// read-modify-write.
    pub fn poke_bytes(&mut self, addr: u64, data: &[u8]) -> SysResult<()> {
        self.poke_span_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Supervisor-side: the `len` bytes a ranged poke at `addr` writes,
    /// with the bounds of [`TraceeVm::poke_bytes`], for a payload that
    /// arrives in parts.
    pub(crate) fn poke_span_mut(&mut self, addr: u64, len: usize) -> SysResult<&mut [u8]> {
        if len == 0 {
            return Ok(&mut []);
        }
        let a = self.word_span(addr, len)?;
        Ok(&mut self.mem[a..a + len])
    }

    /// Supervisor-side: write a word array (stat records, signal lists)
    /// in one ranged transfer, with the bounds of [`TraceeVm::poke_bytes`]
    /// and no staging buffer.
    pub(crate) fn poke_words(&mut self, addr: u64, words: &[u64]) -> SysResult<()> {
        if words.is_empty() {
            return Ok(());
        }
        let len = words.len().checked_mul(8).ok_or(Errno::EFAULT)?;
        let a = self.word_span(addr, len)?;
        for (dst, w) in self.mem[a..a + len].chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Guest-side: borrow a memory range (the application touching its
    /// own address space — no supervisor involved, no per-word cost).
    pub fn guest_slice(&self, addr: u64, len: usize) -> SysResult<&[u8]> {
        let a = addr as usize;
        let end = a.checked_add(len).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        Ok(&self.mem[a..end])
    }

    /// Guest-side: mutably borrow a memory range.
    pub fn guest_slice_mut(&mut self, addr: u64, len: usize) -> SysResult<&mut [u8]> {
        let a = addr as usize;
        let end = a.checked_add(len).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        Ok(&mut self.mem[a..end])
    }

    /// Guest-side: copy data into memory.
    pub fn guest_write(&mut self, addr: u64, data: &[u8]) -> SysResult<()> {
        self.guest_slice_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Set up the register file for a syscall: number plus up to six
    /// arguments.
    pub fn load_call(&mut self, nr: u64, args: &[u64]) {
        debug_assert!(args.len() <= 6);
        self.regs[reg::NR] = nr;
        for (i, &a) in args.iter().enumerate() {
            self.regs[reg::A0 + i] = a;
        }
        for i in args.len()..6 {
            self.regs[reg::A0 + i] = 0;
        }
    }

    /// The raw return value register.
    pub fn ret(&self) -> i64 {
        self.regs[reg::RET] as i64
    }

    /// Set the return value register.
    pub fn set_ret(&mut self, v: i64) {
        self.regs[reg::RET] = v as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_poke_roundtrip() {
        let mut vm = TraceeVm::with_memory(64);
        vm.poke_word(8, 0xDEAD_BEEF_0BAD_F00D).unwrap();
        assert_eq!(vm.peek_word(8).unwrap(), 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn peek_out_of_bounds_is_efault() {
        let vm = TraceeVm::with_memory(16);
        assert_eq!(vm.peek_word(16), Err(Errno::EFAULT));
        assert_eq!(vm.peek_word(9), Err(Errno::EFAULT));
        assert_eq!(vm.peek_word(u64::MAX), Err(Errno::EFAULT));
    }

    #[test]
    fn poke_out_of_bounds_is_efault() {
        let mut vm = TraceeVm::with_memory(16);
        assert_eq!(vm.poke_word(16, 1), Err(Errno::EFAULT));
    }

    #[test]
    fn peek_bytes_matches_word_loop() {
        let mut vm = TraceeVm::with_memory(64);
        vm.guest_write(3, b"ranged transfer!").unwrap();
        for len in 0..=16usize {
            let ranged = vm.peek_bytes(3, len).unwrap();
            // The loop peek_bytes replaces: whole words, truncated.
            let mut word_loop = Vec::new();
            let mut i = 0;
            while i < len {
                let bytes = vm.peek_word(3 + i as u64).unwrap().to_le_bytes();
                let take = (len - i).min(8);
                word_loop.extend_from_slice(&bytes[..take]);
                i += 8;
            }
            assert_eq!(ranged, word_loop, "len={len}");
        }
    }

    #[test]
    fn poke_bytes_roundtrips_and_preserves_partial_word_tail() {
        let mut vm = TraceeVm::with_memory(64);
        vm.guest_write(0, &[0xEE; 32]).unwrap();
        vm.poke_bytes(5, b"hello world").unwrap();
        assert_eq!(vm.guest_slice(5, 11).unwrap(), b"hello world");
        // RMW semantics: bytes beyond the payload in the trailing
        // partial word are untouched.
        assert_eq!(vm.guest_slice(16, 8).unwrap(), &[0xEE; 8]);
        assert_eq!(vm.guest_slice(0, 5).unwrap(), &[0xEE; 5]);
    }

    #[test]
    fn ranged_transfers_use_word_granular_bounds() {
        let mut vm = TraceeVm::with_memory(16);
        // 7 bytes at addr 9 fit byte-wise (9+7=16) but the word loop
        // would peek the word at 9..17 — EFAULT, and the ranged
        // transfer must fault identically.
        assert_eq!(vm.peek_bytes(9, 7), Err(Errno::EFAULT));
        assert_eq!(vm.poke_bytes(9, &[1; 7]), Err(Errno::EFAULT));
        // Word-aligned spans inside the space are fine.
        assert!(vm.peek_bytes(8, 8).is_ok());
        assert!(vm.poke_bytes(8, &[1; 8]).is_ok());
        // Zero-length transfers never fault, wherever they point.
        assert_eq!(vm.peek_bytes(u64::MAX, 0).unwrap(), Vec::<u8>::new());
        assert!(vm.poke_bytes(u64::MAX, &[]).is_ok());
        // Overflowing spans fault instead of wrapping.
        assert_eq!(vm.peek_bytes(u64::MAX, 9), Err(Errno::EFAULT));
        assert_eq!(vm.peek_bytes(0, usize::MAX), Err(Errno::EFAULT));
    }

    #[test]
    fn poke_words_matches_the_word_loop() {
        let mut ranged = TraceeVm::with_memory(64);
        let mut looped = TraceeVm::with_memory(64);
        let words = [1, u64::MAX, 0xDEAD_BEEF];
        ranged.poke_words(5, &words).unwrap();
        for (i, &w) in words.iter().enumerate() {
            looped.poke_word(5 + (i * 8) as u64, w).unwrap();
        }
        assert_eq!(ranged.guest_slice(0, 64), looped.guest_slice(0, 64));
        assert_eq!(ranged.poke_words(48, &words), Err(Errno::EFAULT));
        assert!(ranged.poke_words(u64::MAX, &[]).is_ok());
    }

    #[test]
    fn grow_keeps_contents_and_zeroes_the_tail() {
        let mut vm = TraceeVm::with_memory(16);
        vm.guest_write(0, &[7; 16]).unwrap();
        vm.grow(30);
        assert_eq!(vm.mem_len(), 32);
        assert_eq!(vm.guest_slice(0, 16).unwrap(), &[7; 16]);
        assert_eq!(vm.guest_slice(16, 16).unwrap(), &[0; 16]);
        vm.grow(8);
        assert_eq!(vm.mem_len(), 32);
    }

    #[test]
    fn guest_access() {
        let mut vm = TraceeVm::with_memory(64);
        vm.guest_write(10, b"hello").unwrap();
        assert_eq!(vm.guest_slice(10, 5).unwrap(), b"hello");
        assert_eq!(vm.guest_slice(60, 8), Err(Errno::EFAULT));
    }

    #[test]
    fn word_and_byte_views_agree() {
        let mut vm = TraceeVm::with_memory(64);
        vm.guest_write(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(
            vm.peek_word(0).unwrap(),
            u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8])
        );
    }

    #[test]
    fn load_call_clears_stale_args() {
        let mut vm = TraceeVm::new();
        vm.load_call(1, &[1, 2, 3, 4, 5, 6]);
        vm.load_call(2, &[9]);
        assert_eq!(vm.regs[reg::NR], 2);
        assert_eq!(vm.regs[reg::A0], 9);
        assert_eq!(vm.regs[reg::A0 + 1], 0);
        assert_eq!(vm.regs[reg::A0 + 5], 0);
    }

    #[test]
    fn ret_roundtrips_negative() {
        let mut vm = TraceeVm::new();
        vm.set_ret(-13);
        assert_eq!(vm.ret(), -13);
    }
}
