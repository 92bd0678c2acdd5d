//! Allocation budgets on the boxed-syscall fixed path.
//!
//! Heap allocations per call do not depend on the host's core count or
//! load, so unlike a wall-clock gate these budgets hold on every host.
//! The binary installs a counting global allocator; counts are kept per
//! thread, so the tests may run in parallel.
//!
//! * A warm `Vfs::stat` of a two-component path allocates nothing: the
//!   walk borrows its components, and a dentry-cache hit copies no name.
//! * A warm `Vfs::create` + `unlink` pair, and a warm same-directory
//!   `Vfs::rename`, allocate once each: the new entry's name. Taking
//!   the shard locks allocates nothing.
//! * A warm boxed `stat`, and a warm boxed `open` + `close`, through
//!   `IdentityBox::supervisor()` allocate once: the path argument copied
//!   out of the tracee, which the Syscall itself needs. The policy's
//!   walk, the entry it judged (which borrows the path), the verdict
//!   cache and the kernel's action on that entry add nothing.
//!
//! The allocator also counts bytes, which gates the durable path's
//! memory rather than its call count:
//!
//! * Snapshotting a namespace holding 16 MiB of file data allocates
//!   under 1 MiB: the cut shares file chunks and the writer frames them
//!   by reference through a bounded batch.
//! * Booting from that snapshot allocates under the file data plus
//!   1 MiB: frames stream through one reusable payload buffer, and each
//!   file byte lands once, in its new chunk. A snapshot whose `Write`
//!   frame claims the 1 GiB frame limit costs no more before it is
//!   refused: the claim is checked against the bytes left in the file
//!   before anything is allocated.
//! * Booting the same data from the log alone (no snapshot) allocates
//!   under the file data plus 2 MiB: the same reader streams the
//!   segment, its payload buffer growing to the largest frame (one
//!   1 MiB write), and each logged write is copied once, into its
//!   chunk.
//!
//! And the inbound data plane's:
//!
//! * A boxed `put_file` of a 1 MiB buffer allocates under 16 KiB: the
//!   caller's buffer moves into the kernel call and the file adopts it,
//!   so no file byte is copied or allocated. (`write_file_mode`, which
//!   copies the same bytes through guest memory and the I/O channel,
//!   allocates about twice the data.) Afterwards every part of the file
//!   points into the caller's buffer.
//! * The same put on a durable group-commit kernel stays under the same
//!   budget: its WAL frame borrows the file's chunks, windows of that
//!   buffer, instead of copying them into the pending batch.
//! * A one-byte overwrite of a chunk that such a frame still borrows
//!   copies that one chunk (copy-on-write), and a second overwrite of it
//!   patches the copy in place; the put and the overwrite together stay
//!   under the data plus one chunk plus 128 KiB, where copying the frame
//!   cost the put alone about four times the data.
//!
//! And the read path's, where every read answers with the file's
//! extents and only the guest buffer receives a copy:
//!
//! * A warm boxed 8 KiB `pread` allocates less than 8 KiB, and a 64 KiB
//!   `read` at EOF less than 64 KiB: no read builds a buffer of its
//!   length, let alone zero-fills one.
//! * A warm boxed 1-byte `pread` and a warm boxed 512-byte `pread`
//!   allocate nothing: a read within one chunk holds its one extent
//!   inline.
//! * A finished read pins nothing: after a boxed read of a chunk the
//!   file owns, a one-byte overwrite of it patches it in place.

use idbox_core::IdentityBox;
use idbox_interpose::{share, GuestCtx};
use idbox_kernel::{Account, Kernel, OpenFlags, Pid};
use idbox_vfs::{Cred, Vfs, Wal, WalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes (a `realloc` counts its new
/// size: a growing buffer is charged for every copy it makes).
fn bump(size: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counter never affects what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: forwarded verbatim, as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Bytes this thread allocates while running `f`, and its result.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

/// The supervising Unix user of the box.
const SUP: Cred = Cred {
    uid: 1000,
    gid: 1000,
};

#[test]
fn warm_vfs_stat_allocates_nothing() {
    let v = Vfs::new();
    let root = v.root();
    v.mkdir(root, "/src", 0o755, &Cred::ROOT).unwrap();
    v.write_file(root, "/src/main.c", b"int main;", &Cred::ROOT)
        .unwrap();
    // An unprivileged caller, so every step runs the search-permission
    // check; the first call fills the dentry cache.
    let st = v.stat(root, "/src/main.c", true, &SUP).unwrap();
    let n = allocs_in(|| {
        assert_eq!(v.stat(root, "/src/main.c", true, &SUP), Ok(st));
    });
    assert_eq!(n, 0, "warm two-component Vfs::stat allocated {n} times");
}

#[test]
fn warm_vfs_mutations_stay_within_budget() {
    let v = Vfs::new();
    let root = v.root();
    v.mkdir(root, "/src", 0o755, &Cred::ROOT).unwrap();
    v.chown(root, "/src", SUP.uid, SUP.gid, &Cred::ROOT).unwrap();
    let create_unlink = || {
        v.create(root, "/src/a.o", 0o644, &SUP).unwrap();
        v.unlink(root, "/src/a.o", &SUP).unwrap();
    };
    create_unlink();
    let pair = allocs_in(create_unlink);
    assert!(pair <= 1, "warm create + unlink allocated {pair} times (budget 1)");
    v.create(root, "/src/a", 0o644, &SUP).unwrap();
    v.rename(root, "/src/a", "/src/b", &SUP).unwrap();
    v.rename(root, "/src/b", "/src/a", &SUP).unwrap();
    let rename = allocs_in(|| v.rename(root, "/src/a", "/src/b", &SUP).unwrap());
    assert!(rename <= 1, "warm same-directory rename allocated {rename} times (budget 1)");
}

/// An identity box for Fred on a fresh volatile kernel, and its guest
/// process.
fn fred_box() -> (IdentityBox, Pid) {
    fred_box_on(Kernel::new())
}

/// An identity box for Fred on `k`, and its guest process.
fn fred_box_on(mut k: Kernel) -> (IdentityBox, Pid) {
    k.accounts_mut()
        .add(Account::new("dthain", SUP.uid, SUP.gid))
        .unwrap();
    let b = IdentityBox::create(share(k), "globus:/O=UnivNowhere/CN=Fred", SUP).unwrap();
    let pid = b.spawn_process("budget").unwrap();
    (b, pid)
}

#[test]
fn warm_boxed_stat_stays_within_budget() {
    let (b, pid) = fred_box();
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    ctx.mkdir("src", 0o755).unwrap();
    ctx.write_file("src/main.c", b"int main;").unwrap();
    // Warm the dentry cache, the verdict cache and the guest VM.
    let st = ctx.stat("src/main.c").unwrap();
    let n = allocs_in(|| {
        assert_eq!(ctx.stat("src/main.c"), Ok(st));
    });
    assert!(n <= 1, "warm boxed stat allocated {n} times (budget 1: the path)");
    let fd = ctx.open("src/main.c", OpenFlags::rdonly(), 0).unwrap();
    ctx.close(fd).unwrap();
    let n = allocs_in(|| {
        let fd = ctx.open("src/main.c", OpenFlags::rdonly(), 0).unwrap();
        ctx.close(fd).unwrap();
    });
    assert!(n <= 1, "warm boxed open + close allocated {n} times (budget 1: the path)");
}

const MIB: u64 = 1 << 20;
/// File data in the snapshot gates: 16 files of 1 MiB.
const FILES: u64 = 16;

/// A durable kernel in a fresh directory under the system temp dir,
/// holding `FILES` MiB of file data, each file tagged `FILEnn` at its
/// head.
fn durable_kernel(tag: &str) -> (std::path::PathBuf, Kernel) {
    let dir = std::env::temp_dir().join(format!("idbox-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (k, _) = Kernel::with_durability(WalConfig::new(&dir).sync_every_op()).unwrap();
    let v = k.vfs();
    v.mkdir(v.root(), "/data", 0o755, &Cred::ROOT).unwrap();
    for i in 0..FILES {
        let mut data = vec![i as u8; MIB as usize];
        data[..6].copy_from_slice(format!("FILE{i:02}").as_bytes());
        v.write_file(v.root(), &format!("/data/f{i:02}"), &data, &Cred::ROOT)
            .unwrap();
    }
    (dir, k)
}

#[test]
fn snapshot_and_boot_move_each_file_byte_once() {
    let (dir, k) = durable_kernel("snap");
    let live = k.vfs().namespace_fingerprint();
    let (snap_bytes, watermark) = bytes_in(|| k.wal_snapshot().unwrap());
    assert!(watermark.is_some());
    assert!(
        snap_bytes < MIB,
        "snapshot of {FILES} MiB of file data allocated {snap_bytes} bytes (budget 1 MiB)"
    );
    drop(k);
    let (boot_bytes, opened) = bytes_in(|| Wal::open(WalConfig::new(&dir)).unwrap());
    let vfs = opened.1.vfs.expect("the snapshot restores the namespace");
    assert_eq!(vfs.namespace_fingerprint(), live);
    assert!(
        boot_bytes < (FILES + 1) * MIB,
        "booting {FILES} MiB of file data allocated {boot_bytes} bytes (budget data + 1 MiB)"
    );
    drop(vfs);
    drop(opened.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_only_boot_copies_each_file_byte_once() {
    let (dir, k) = durable_kernel("logonly");
    let live = k.vfs().namespace_fingerprint();
    drop(k);
    let (boot_bytes, opened) = bytes_in(|| Wal::open(WalConfig::new(&dir)).unwrap());
    let vfs = opened.1.vfs.expect("the log restores the namespace");
    assert_eq!(vfs.namespace_fingerprint(), live);
    assert!(
        boot_bytes < (FILES + 2) * MIB,
        "replaying {FILES} MiB of logged writes allocated {boot_bytes} bytes \
         (budget data + 2 MiB)"
    );
    drop(vfs);
    drop(opened.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshot_length_allocates_only_what_is_present() {
    let (dir, k) = durable_kernel("damaged");
    k.wal_snapshot().unwrap();
    drop(k);
    // Walk the frames to the first data file's first `Write` frame
    // (its data starts with the tag) and make it claim the 1 GiB frame
    // limit.
    let snap = dir.join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).unwrap();
    let tagged = bytes
        .windows(6)
        .position(|w| w == b"FILE00")
        .expect("the first file's data");
    let mut frame = 8;
    loop {
        let len = u32::from_le_bytes(bytes[frame..frame + 4].try_into().unwrap()) as usize;
        if frame + 8 + len > tagged {
            break;
        }
        frame += 8 + len;
    }
    bytes[frame..frame + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();
    let (boot_bytes, opened) = bytes_in(|| Wal::open(WalConfig::new(&dir)));
    let err = opened.expect_err("a damaged snapshot must not boot");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        boot_bytes < (FILES + 1) * MIB,
        "a 1 GiB frame length claim allocated {boot_bytes} bytes before refusal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 1 MiB buffer in an `Arc`, as the Chirp framer hands a put over.
fn owned_mib() -> Arc<[u8]> {
    vec![7u8; MIB as usize].into()
}

/// True when every part of the file at `path` lies inside `buf`.
fn file_is_windows_of(ctx: &mut GuestCtx<'_>, path: &str, buf: &Arc<[u8]>) -> bool {
    let x = ctx.read_file_extents(path).unwrap();
    let inside = buf.as_ptr_range();
    x.total == buf.len()
        && x.parts().all(|p| {
            let r = p.as_slice().as_ptr_range();
            inside.start <= r.start && r.end <= inside.end
        })
}

#[test]
fn boxed_owned_put_allocates_no_file_bytes() {
    let (b, pid) = fred_box();
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    ctx.mkdir("out", 0o755).unwrap();
    // Warm the path caches and the file itself.
    ctx.put_file("out/f", vec![1u8; 4096].into(), 0o644).unwrap();
    ctx.write_file("out/g", &[1u8; 4096]).unwrap();
    let data = owned_mib();
    let flat = data.to_vec();
    let (owned_bytes, r) = bytes_in(|| ctx.put_file("out/f", Arc::clone(&data), 0o644));
    r.unwrap();
    let (flat_bytes, r) = bytes_in(|| ctx.write_file_mode("out/g", &flat, 0o644));
    r.unwrap();
    assert_eq!(ctx.read_file("out/f").unwrap(), flat);
    assert!(
        owned_bytes < 16 * 1024,
        "boxed put_file of 1 MiB allocated {owned_bytes} bytes (budget 16 KiB; \
         write_file_mode of the same data: {flat_bytes})"
    );
    eprintln!("1 MiB boxed write: put_file {owned_bytes} B, write_file_mode {flat_bytes} B");
}

#[test]
fn owned_put_leaves_the_file_as_windows_of_the_callers_buffer() {
    let (b, pid) = fred_box();
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    ctx.mkdir("out", 0o755).unwrap();
    let data = owned_mib();
    ctx.put_file("out/f", Arc::clone(&data), 0o644).unwrap();
    assert!(
        file_is_windows_of(&mut ctx, "out/f", &data),
        "a file part lies outside the put's buffer"
    );
    // A put shorter than a chunk is one window, of all its buffer.
    let small: Arc<[u8]> = vec![3u8; 100].into();
    ctx.put_file("out/s", Arc::clone(&small), 0o644).unwrap();
    assert!(file_is_windows_of(&mut ctx, "out/s", &small));
}

#[test]
fn durable_boxed_put_logs_the_file_chunks_by_reference() {
    let dir = std::env::temp_dir().join(format!("idbox-alloc-put-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (k, _) = Kernel::with_durability(WalConfig::new(&dir)).unwrap();
    let (b, pid) = fred_box_on(k);
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    ctx.mkdir("out", 0o755).unwrap();
    // Warm the path caches and the file itself.
    ctx.put_file("out/f", vec![1u8; 4096].into(), 0o644).unwrap();
    let data = owned_mib();
    let (put_bytes, r) = bytes_in(|| ctx.put_file("out/f", Arc::clone(&data), 0o644));
    r.unwrap();
    assert_eq!(ctx.read_file("out/f").unwrap(), vec![7u8; MIB as usize]);
    assert!(
        file_is_windows_of(&mut ctx, "out/f", &data),
        "a file part lies outside the put's buffer"
    );
    assert!(
        put_bytes < 16 * 1024,
        "durable boxed put_file of 1 MiB allocated {put_bytes} bytes (budget 16 KiB)"
    );
    eprintln!("1 MiB durable boxed put_file: {put_bytes} B");
    drop(ctx);
    drop(sup);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overwrite_of_a_borrowed_chunk_copies_only_that_chunk() {
    let dir = std::env::temp_dir().join(format!("idbox-alloc-cow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A flusher tick far longer than the test keeps the put's frame, and
    // the chunks it borrows, pending until the kernel is dropped.
    let cfg = WalConfig {
        sync_ms: 3_600_000,
        ..WalConfig::new(&dir)
    };
    let (k, _) = Kernel::with_durability(cfg).unwrap();
    let chunk = k.vfs().chunk_size() as u64;
    let (b, pid) = fred_box_on(k);
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    ctx.mkdir("out", 0o755).unwrap();
    // Warm the path caches, the file and the positioned-write path.
    ctx.put_file("out/f", vec![1u8; 4096].into(), 0o644).unwrap();
    let fd = ctx.open("out/f", OpenFlags::rdwr(), 0).unwrap();
    ctx.pwrite_owned(fd, Arc::from([2u8]), 0).unwrap();
    let data = owned_mib();
    let (put_bytes, r) = bytes_in(|| ctx.put_file("out/f", data, 0o644));
    r.unwrap();
    let at = 3 * chunk + 17;
    let (one, two) = (Arc::from([9u8]), Arc::from([8u8]));
    let (first, r) = bytes_in(|| ctx.pwrite_owned(fd, one, at));
    assert_eq!(r, Ok(1));
    let (second, r) = bytes_in(|| ctx.pwrite_owned(fd, two, at + 1));
    assert_eq!(r, Ok(1));
    let mut want = vec![7u8; MIB as usize];
    want[at as usize] = 9;
    want[at as usize + 1] = 8;
    assert!(ctx.read_file("out/f").unwrap() == want);
    assert!(
        first <= chunk + 4096,
        "first overwrite of a borrowed chunk allocated {first} bytes (budget one {chunk} B chunk + 4 KiB)"
    );
    assert!(
        second <= 4096,
        "second overwrite of the same chunk allocated {second} bytes (budget 4 KiB)"
    );
    assert!(
        put_bytes + first < MIB + chunk + 128 * 1024,
        "put plus overwrite allocated {} bytes (budget data + one chunk + 128 KiB)",
        put_bytes + first
    );
    eprintln!("durable put {put_bytes} B, then overwrites in the window: {first} B, {second} B");
    ctx.close(fd).unwrap();
    drop(ctx);
    drop(sup);
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A boxed file of 1 MiB, put by its owner, open for reading and
/// writing, with the read path warm: the guest's data area already
/// holds a 64 KiB read.
fn boxed_mib_file(ctx: &mut GuestCtx<'_>) -> i64 {
    ctx.mkdir("in", 0o755).unwrap();
    ctx.put_file("in/f", owned_mib(), 0o644).unwrap();
    let fd = ctx.open("in/f", OpenFlags::rdwr(), 0).unwrap();
    let mut warm = vec![0u8; 64 * 1024];
    assert_eq!(ctx.pread(fd, &mut warm, 0), Ok(warm.len()));
    fd
}

#[test]
fn boxed_reads_allocate_less_than_their_length() {
    let (b, pid) = fred_box();
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    let fd = boxed_mib_file(&mut ctx);
    let mut buf = vec![0u8; 8192];
    let (pread_bytes, r) = bytes_in(|| ctx.pread(fd, &mut buf, 4096));
    assert_eq!(r, Ok(8192));
    assert!(buf.iter().all(|&b| b == 7));
    // A read at EOF returns nothing, so it has nothing to allocate.
    let mut big = vec![0u8; 64 * 1024];
    ctx.lseek(fd, 0, idbox_kernel::Whence::End).unwrap();
    let (eof_bytes, r) = bytes_in(|| ctx.read(fd, &mut big));
    assert_eq!(r, Ok(0));
    eprintln!("boxed 8 KiB pread: {pread_bytes} B; 64 KiB read at EOF: {eof_bytes} B");
    assert!(
        pread_bytes < buf.len() as u64,
        "warm boxed 8 KiB pread allocated {pread_bytes} bytes (budget < 8192)"
    );
    assert!(
        eof_bytes < big.len() as u64,
        "boxed 64 KiB read at EOF allocated {eof_bytes} bytes (budget < 65536)"
    );
}

#[test]
fn warm_boxed_reads_within_one_chunk_allocate_nothing() {
    let (b, pid) = fred_box();
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    let fd = boxed_mib_file(&mut ctx);
    let mut one = [0u8; 1];
    let mut small = [0u8; 512];
    // Warm both sizes once: the guest buffers and the I/O channel.
    assert_eq!(ctx.pread(fd, &mut one, 100), Ok(1));
    assert_eq!(ctx.pread(fd, &mut small, 100), Ok(512));
    let (one_bytes, r) = bytes_in(|| ctx.pread(fd, &mut one, 4096));
    assert_eq!(r, Ok(1));
    let (small_bytes, r) = bytes_in(|| ctx.pread(fd, &mut small, 4096));
    assert_eq!(r, Ok(512));
    assert!(one[0] == 7 && small.iter().all(|&b| b == 7));
    assert_eq!(one_bytes, 0, "warm boxed 1-byte pread allocated {one_bytes} bytes");
    assert_eq!(small_bytes, 0, "warm boxed 512-byte pread allocated {small_bytes} bytes");
}

#[test]
fn finished_read_pins_no_chunk_a_later_overwrite_must_copy() {
    let (b, pid) = fred_box();
    let chunk = b.kernel().read().vfs().chunk_size() as u64;
    let mut sup = b.supervisor();
    let mut ctx = GuestCtx::new(&mut sup, pid);
    let fd = boxed_mib_file(&mut ctx);
    let at = 3 * chunk + 17;
    let mut buf = vec![0u8; 8192];
    // The read borrows chunk 3, a window of the put's buffer; the
    // overwrite after it copies that one chunk out of the buffer.
    assert_eq!(ctx.pread(fd, &mut buf, 3 * chunk), Ok(8192));
    let (first, r) = bytes_in(|| ctx.pwrite_owned(fd, Arc::from([9u8]), at));
    assert_eq!(r, Ok(1));
    // The chunk is now the file's own: once a read of it has finished,
    // an overwrite patches it in place.
    assert_eq!(ctx.pread(fd, &mut buf, 3 * chunk), Ok(8192));
    assert_eq!(buf[17], 9);
    let (second, r) = bytes_in(|| ctx.pwrite_owned(fd, Arc::from([8u8]), at + 1));
    assert_eq!(r, Ok(1));
    assert!(
        first <= chunk + 4096,
        "overwrite after a read allocated {first} bytes (budget one {chunk} B chunk + 4 KiB)"
    );
    assert!(
        second <= 4096,
        "overwrite after a finished read of its own chunk allocated {second} bytes \
         (budget 4 KiB)"
    );
    ctx.close(fd).unwrap();
}
