//! Chunked, `Arc`-backed file contents: the zero-copy data plane's
//! foundation.
//!
//! A regular file's bytes are held as a sequence of immutable,
//! reference-counted chunks of a fixed nominal size (the last chunk may
//! be shorter; every chunk's length is exact). Each chunk is a
//! [`ByteExtent`] window of an [`Arc<[u8]>`] buffer: a buffer of its
//! own, or a piece of a write payload the file adopted instead of
//! copying it. Readers that want the bytes wholesale — the kernel's
//! read path, the Chirp server's `get` — receive cheap `Arc`
//! clones wrapped in [`ByteExtent`]s instead of a copy, so a 64 MB
//! read costs a handful of pointer bumps under the shard lock rather
//! than a 64 MB memcpy.
//!
//! Writes are copy-on-write per chunk: a chunk still uniquely owned by
//! the file is patched in place (`Arc::get_mut`), while a chunk shared
//! with an in-flight reader, a WAL frame not yet written out, or the
//! other windows of an adopted buffer is rebuilt, leaving the other
//! holder's snapshot untouched. Readers
//! therefore observe a consistent point-in-time view of every extent
//! they hold, no matter what writers do next — the property the
//! streaming reply path relies on while a reply drains under
//! backpressure.

use std::mem::MaybeUninit;
use std::sync::Arc;

/// Default nominal chunk size: 64 KiB, matching the client's
/// `write_file_mode` streaming granularity so sequential puts build
/// exactly one chunk per wire write.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Bounds on configurable chunk sizes (see `Vfs::set_chunk_size`).
pub const MIN_CHUNK_SIZE: usize = 512;
/// Upper bound on configurable chunk sizes.
pub const MAX_CHUNK_SIZE: usize = 16 * 1024 * 1024;

/// One borrowed run of file bytes: a reference-counted chunk plus the
/// half-open `[start, end)` window of it that belongs to the read.
///
/// Cloning is O(1) (an `Arc` bump); the bytes themselves are immutable
/// for the extent's lifetime even if the file is concurrently written
/// (writers copy-on-write shared chunks instead of mutating them).
#[derive(Clone)]
pub struct ByteExtent {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl ByteExtent {
    /// An extent covering `[start, end)` of `data`.
    ///
    /// # Panics
    /// When the window is out of bounds or inverted.
    pub fn new(data: Arc<[u8]>, start: usize, end: usize) -> ByteExtent {
        assert!(start <= end && end <= data.len(), "extent window out of bounds");
        ByteExtent { data, start, end }
    }

    /// An extent covering all of `data`.
    pub(crate) fn whole(data: Arc<[u8]>) -> ByteExtent {
        let end = data.len();
        ByteExtent { data, start: 0, end }
    }

    /// The bytes this extent covers.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the extent covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Extents print the bytes they cover, not the buffer behind them.
impl std::fmt::Debug for ByteExtent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Extents compare by the bytes they cover, not by chunk identity:
/// two lists describing the same logical contents are equal even when
/// chunked differently (required for `SysRet` equality in tests).
impl PartialEq for ByteExtent {
    fn eq(&self, other: &ByteExtent) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ByteExtent {}

/// An ordered list of extents describing one contiguous logical byte
/// range (a read result). `total` is the sum of the parts' lengths.
///
/// The first extent is held inline, so a read that stays within one
/// chunk (most small reads) allocates nothing; only a read spanning
/// chunks allocates, for the extents after the first.
#[derive(Debug, Clone, Default)]
pub struct ExtentList {
    /// Total logical length in bytes.
    pub total: usize,
    /// The first extent, `None` only when the list is empty.
    first: Option<ByteExtent>,
    /// The extents after the first, in logical order.
    rest: Vec<ByteExtent>,
}

impl ExtentList {
    /// An empty list.
    pub fn empty() -> ExtentList {
        ExtentList::default()
    }

    /// A list with a single extent owning all of `data` (driver-backed
    /// and pipe reads, which have no chunk structure to share).
    pub fn single(data: impl Into<Arc<[u8]>>) -> ExtentList {
        let data = data.into();
        if data.is_empty() {
            return ExtentList::empty();
        }
        ExtentList {
            total: data.len(),
            first: Some(ByteExtent::whole(data)),
            rest: Vec::new(),
        }
    }

    /// The extents, in logical order.
    pub fn parts(&self) -> impl Iterator<Item = &ByteExtent> {
        self.first.iter().chain(&self.rest)
    }

    /// Flatten into one contiguous buffer (compat path; defeats the
    /// point of extents, so only borderlands like tests use it).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total);
        for p in self.parts() {
            out.extend_from_slice(p.as_slice());
        }
        out
    }

    /// True when no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// The extents, by value, in logical order.
impl IntoIterator for ExtentList {
    type Item = ByteExtent;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<ByteExtent>, std::vec::IntoIter<ByteExtent>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// Lists compare by the bytes they cover, however they are chunked.
impl PartialEq for ExtentList {
    fn eq(&self, other: &ExtentList) -> bool {
        fn bytes(x: &ExtentList) -> impl Iterator<Item = &u8> {
            x.parts().flat_map(ByteExtent::as_slice)
        }
        self.total == other.total && bytes(self).eq(bytes(other))
    }
}

impl Eq for ExtentList {}

/// A regular file's contents: exact-length immutable chunks of a fixed
/// nominal size, copy-on-write per chunk.
///
/// Each chunk is a window of a buffer: one the file allocated for the
/// chunk (a copy, the window covering all of it), or a piece of a write
/// payload the file adopted ([`FileContent::write_owned`]), where the
/// buffer spans several chunks.
///
/// Invariants:
/// * `chunks[i].len() == min(chunk, len - i*chunk)` for every `i`, and
///   `chunks.len() == ceil(len / chunk)` (zero when empty) — every
///   chunk is full except possibly the last, and lengths are exact.
/// * Retention: each buffer's bytes from a window's start on lie at or
///   after that window's file position, and buffers only back windows
///   inside the file. Distinct buffers therefore cover disjoint ranges
///   of `[0, len)`, and the buffers a file references total at most
///   twice its length (see [`FileContent::resize`]).
#[derive(Debug, Clone)]
pub(crate) struct FileContent {
    /// Nominal chunk size, fixed at creation.
    chunk: usize,
    /// Logical file length.
    len: usize,
    chunks: Vec<ByteExtent>,
}

impl FileContent {
    /// An empty file with the given nominal chunk size.
    pub(crate) fn new(chunk_size: usize) -> FileContent {
        FileContent {
            chunk: chunk_size.clamp(MIN_CHUNK_SIZE, MAX_CHUNK_SIZE),
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// Logical length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Borrow `[off, off+want)` (clamped to EOF) as cheap `Arc` clones
    /// of the underlying chunks. First and last extents are windowed;
    /// interior extents cover whole chunks. O(parts), no byte copies.
    pub(crate) fn extents(&self, off: usize, want: usize) -> ExtentList {
        if off >= self.len || want == 0 {
            return ExtentList::empty();
        }
        let n = want.min(self.len - off);
        let mut parts = self.extent_iter(off, n).map(|(part, _)| part);
        let first = parts.next();
        // The parts after the first start on chunk boundaries, and every
        // chunk but the file's last is full: size their vector exactly,
        // and allocate none for a read within one chunk.
        let after = n - first.as_ref().map_or(0, ByteExtent::len);
        let mut rest = Vec::new();
        if after > 0 {
            rest.reserve_exact(after.div_ceil(self.chunk));
            rest.extend(parts);
        }
        ExtentList { total: n, first, rest }
    }

    /// The parts [`FileContent::extents`] returns, one at a time,
    /// without collecting them, each with whether it covers its whole
    /// chunk.
    pub(crate) fn extent_iter(
        &self,
        off: usize,
        want: usize,
    ) -> impl Iterator<Item = (ByteExtent, bool)> + '_ {
        let end = self.len.min(off.saturating_add(want));
        let mut pos = off;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let chunk = &self.chunks[pos / self.chunk];
            let co = pos % self.chunk;
            let take = (chunk.len() - co).min(end - pos);
            pos += take;
            let part = ByteExtent::new(
                Arc::clone(&chunk.data),
                chunk.start + co,
                chunk.start + co + take,
            );
            Some((part, take == chunk.len()))
        })
    }

    /// The chunks, in file order; their concatenation is the content.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().map(ByteExtent::as_slice)
    }

    /// A file of `n` copies of one full chunk, sharing it: a many-GiB
    /// file for length-limit tests that costs one chunk of memory.
    #[cfg(test)]
    pub(crate) fn repeated(chunk: Arc<[u8]>, n: usize) -> FileContent {
        FileContent {
            chunk: chunk.len(),
            len: chunk.len() * n,
            chunks: vec![ByteExtent::whole(chunk); n],
        }
    }

    /// Flatten into one contiguous buffer (compat for `file_data`).
    pub(crate) fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        out
    }

    /// Write `data` at `off`, zero-filling any gap past EOF. Chunks
    /// fully or partially covered are patched in place when uniquely
    /// owned, rebuilt when shared (copy-on-write).
    pub(crate) fn write_at(&mut self, off: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if off > self.len {
            self.append_fill(off - self.len, None);
        }
        let overlap = self.len.saturating_sub(off).min(data.len());
        if overlap > 0 {
            self.overwrite(off, &data[..overlap]);
        }
        if overlap < data.len() {
            self.append_fill(data.len() - overlap, Some(&data[overlap..]));
        }
    }

    /// Write all of `data` at `off`, as [`FileContent::write_at`] does,
    /// but adopt the buffer when the write lies at or past EOF: each
    /// chunk it appends becomes a window of `data`, and only the bytes
    /// that top up a partial tail chunk are copied. A write that
    /// overlaps the current contents copies instead, so no buffer backs
    /// bytes that another buffer also backs.
    pub(crate) fn write_owned(&mut self, off: usize, data: &Arc<[u8]>) {
        if off < self.len || data.is_empty() {
            return self.write_at(off, data);
        }
        if off > self.len {
            self.append_fill(off - self.len, None);
        }
        let mut done = self.top_up(data.len(), Some(data));
        while done < data.len() {
            let take = (data.len() - done).min(self.chunk);
            self.chunks.push(ByteExtent::new(Arc::clone(data), done, done + take));
            self.len += take;
            done += take;
        }
    }

    /// Truncate to `new_len`, or extend with zeros.
    ///
    /// A kept chunk whose buffer reaches past the new length is copied
    /// out, exact: the cut tail chunk, and every adopted window that
    /// shares its buffer with dropped chunks. Otherwise a file cut from
    /// a large adopted write to one chunk would pin the whole buffer.
    pub(crate) fn resize(&mut self, new_len: usize) {
        if new_len < self.len {
            self.chunks.truncate(new_len.div_ceil(self.chunk));
            self.len = new_len;
            for (i, c) in self.chunks.iter_mut().enumerate() {
                let pos = i * self.chunk;
                if pos + (c.data.len() - c.start) > new_len {
                    let keep = (new_len - pos).min(c.len());
                    *c = ByteExtent::whole(Arc::from(&c.as_slice()[..keep]));
                }
            }
        } else if new_len > self.len {
            self.append_fill(new_len - self.len, None);
        }
    }

    /// Overwrite `[off, off+data.len())`, which must lie entirely
    /// within the current length. Copy-on-write per chunk.
    fn overwrite(&mut self, off: usize, data: &[u8]) {
        debug_assert!(off + data.len() <= self.len);
        let mut done = 0;
        while done < data.len() {
            let pos = off + done;
            let chunk = &mut self.chunks[pos / self.chunk];
            let co = pos % self.chunk;
            let take = (chunk.len() - co).min(data.len() - done);
            let at = chunk.start + co;
            match Arc::get_mut(&mut chunk.data) {
                Some(owned) => owned[at..at + take].copy_from_slice(&data[done..done + take]),
                None => {
                    // Shared with a reader, a pending WAL frame or the
                    // other windows of an adopted buffer: rebuild (one
                    // allocation, one copy), leave theirs alone.
                    let mut own: Arc<[u8]> = Arc::from(chunk.as_slice());
                    Arc::get_mut(&mut own).expect("a fresh chunk is unshared")[co..co + take]
                        .copy_from_slice(&data[done..done + take]);
                    *chunk = ByteExtent::whole(own);
                }
            }
            done += take;
        }
    }

    /// Append `n` bytes at EOF: from `data` when given, zeros
    /// otherwise. Tops up the partial tail chunk first, then emits full
    /// chunks straight from `data` without intermediate buffers.
    fn append_fill(&mut self, n: usize, data: Option<&[u8]>) {
        debug_assert!(data.is_none_or(|d| d.len() == n));
        let mut done = self.top_up(n, data);
        while done < n {
            let take = (n - done).min(self.chunk);
            let chunk: Arc<[u8]> = match data {
                Some(d) => d[done..done + take].into(),
                None => std::iter::repeat_n(0u8, take).collect(),
            };
            self.chunks.push(ByteExtent::whole(chunk));
            self.len += take;
            done += take;
        }
    }

    /// Grow a partial tail chunk by up to `n` bytes of `data` (zeros
    /// when `None`), rebuilt in one allocation since its length
    /// changes; returns the bytes taken.
    fn top_up(&mut self, n: usize, data: Option<&[u8]>) -> usize {
        let tail = self.len % self.chunk;
        if tail == 0 {
            return 0;
        }
        let take = (self.chunk - tail).min(n);
        let last = self.chunks.last_mut().expect("partial tail implies a chunk");
        let mut grown = Arc::<[u8]>::new_uninit_slice(tail + take);
        let dst = Arc::get_mut(&mut grown).expect("a fresh chunk is unshared");
        dst[..tail].write_copy_of_slice(last.as_slice());
        match data {
            Some(d) => {
                dst[tail..].write_copy_of_slice(&d[..take]);
            }
            None => dst[tail..].fill(MaybeUninit::new(0)),
        }
        // SAFETY: `dst[..tail]` and `dst[tail..]` were both written
        // above, so every byte of the slice is initialised.
        *last = ByteExtent::whole(unsafe { grown.assume_init() });
        self.len += take;
        take
    }

    /// Number of chunks currently held (tests / invariant checks).
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes of the distinct buffers the chunks are windows of.
    pub(crate) fn pinned_bytes(&self) -> usize {
        let mut bufs: Vec<(*const u8, usize)> = self
            .chunks
            .iter()
            .map(|c| (c.data.as_ptr(), c.data.len()))
            .collect();
        bufs.sort_unstable();
        bufs.dedup();
        bufs.iter().map(|&(_, len)| len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invariants(f: &FileContent) {
        assert_eq!(f.chunks.len(), f.len.div_ceil(f.chunk));
        for (i, c) in f.chunks.iter().enumerate() {
            let expect = (f.len - i * f.chunk).min(f.chunk);
            assert_eq!(c.len(), expect, "chunk {i} length");
        }
    }

    #[test]
    fn append_and_read_across_chunks() {
        let mut f = FileContent::new(512);
        let data: Vec<u8> = (0..1500u32).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &data);
        invariants(&f);
        assert_eq!(f.len(), 1500);
        assert_eq!(f.chunk_count(), 3);
        assert_eq!(f.to_vec(), data);
        let buf = f.extents(400, 700).to_vec();
        assert_eq!(buf.len(), 700);
        assert_eq!(&buf[..], &data[400..1100]);
    }

    #[test]
    fn gap_write_zero_fills() {
        let mut f = FileContent::new(512);
        f.write_at(1000, b"xyz");
        invariants(&f);
        assert_eq!(f.len(), 1003);
        let v = f.to_vec();
        assert!(v[..1000].iter().all(|&b| b == 0));
        assert_eq!(&v[1000..], b"xyz");
    }

    #[test]
    fn overwrite_is_cow_against_held_extents() {
        let mut f = FileContent::new(512);
        f.write_at(0, &vec![7u8; 1024]);
        let snapshot = f.extents(0, 1024);
        f.write_at(200, &vec![9u8; 700]);
        invariants(&f);
        // The reader's snapshot is untouched.
        assert!(snapshot.to_vec().iter().all(|&b| b == 7));
        let now = f.to_vec();
        assert!(now[200..900].iter().all(|&b| b == 9));
        assert!(now[..200].iter().all(|&b| b == 7));
        assert!(now[900..].iter().all(|&b| b == 7));
    }

    #[test]
    fn unshared_overwrite_patches_in_place() {
        let mut f = FileContent::new(512);
        f.write_at(0, &vec![1u8; 512]);
        let before = Arc::as_ptr(&f.chunks[0].data);
        f.write_at(10, b"abc");
        assert_eq!(Arc::as_ptr(&f.chunks[0].data), before, "uniquely owned chunk rebuilt");
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut f = FileContent::new(512);
        f.write_at(0, &vec![5u8; 1300]);
        f.resize(600);
        invariants(&f);
        assert_eq!(f.len(), 600);
        assert_eq!(f.chunk_count(), 2);
        f.resize(2000);
        invariants(&f);
        let v = f.to_vec();
        assert!(v[..600].iter().all(|&b| b == 5));
        assert!(v[600..].iter().all(|&b| b == 0));
        f.resize(0);
        invariants(&f);
        assert_eq!(f.chunk_count(), 0);
    }

    #[test]
    fn extents_window_first_and_last() {
        let mut f = FileContent::new(512);
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        f.write_at(0, &data);
        let x = f.extents(100, 1000);
        assert_eq!(x.total, 1000);
        assert_eq!(x.to_vec(), &data[100..1100]);
        // Reads past EOF clamp; reads at EOF are empty.
        assert_eq!(f.extents(1990, 100).total, 10);
        assert!(f.extents(2000, 10).is_empty());
        assert!(f.extents(0, 0).is_empty());
    }

    #[test]
    fn extent_equality_ignores_chunking() {
        let a = ExtentList::single(b"hello world".to_vec());
        let mut f = FileContent::new(512);
        f.write_at(0, b"hello world");
        let b = f.extents(0, 11);
        assert_eq!(a.to_vec(), b.to_vec());
        // Split across two chunks, the same bytes still compare equal.
        let mut g = FileContent::new(512);
        g.write_at(0, &[7; 600]);
        let split = g.extents(0, 600);
        assert_eq!(split.parts().count(), 2);
        assert_eq!(split, ExtentList::single(vec![7; 600]));
        assert_ne!(split, ExtentList::single(vec![7; 599]));
    }

    fn buffer(n: usize) -> Arc<[u8]> {
        (0..n).map(|i| (i % 253) as u8).collect()
    }

    /// True when every byte of `part` lies inside `buf`.
    fn inside(part: &ByteExtent, buf: &Arc<[u8]>) -> bool {
        let (p, b) = (part.as_slice().as_ptr_range(), buf.as_ptr_range());
        b.start <= p.start && p.end <= b.end
    }

    #[test]
    fn append_adopts_the_buffer_and_copies_only_a_partial_top_up() {
        let mut f = FileContent::new(512);
        let data = buffer(512 * 3 + 100);
        f.write_owned(0, &data);
        invariants(&f);
        assert_eq!(f.to_vec(), &data[..]);
        assert!(f.extents(0, usize::MAX).parts().all(|p| inside(p, &data)));
        assert_eq!(f.pinned_bytes(), data.len());
        // A second append tops up the 100-byte tail by copying, and
        // adopts the rest of its buffer.
        let more = buffer(1000);
        f.write_owned(f.len(), &more);
        invariants(&f);
        let parts: Vec<ByteExtent> = f.extents(0, usize::MAX).into_iter().collect();
        assert!(parts[..3].iter().all(|p| inside(p, &data)));
        assert!(!inside(&parts[3], &data) && !inside(&parts[3], &more));
        assert!(parts[4..].iter().all(|p| inside(p, &more)));
        let mut want = data.to_vec();
        want.extend_from_slice(&more);
        assert_eq!(f.to_vec(), want);
        // A write that overlaps the contents copies.
        let patch = buffer(600);
        f.write_owned(1000, &patch);
        want[1000..1600].copy_from_slice(&patch);
        assert_eq!(f.to_vec(), want);
        assert!(f.extents(0, usize::MAX).parts().all(|p| !inside(p, &patch)));
    }

    #[test]
    fn overwrite_of_an_adopted_window_copies_that_chunk_only() {
        let mut f = FileContent::new(512);
        let data = buffer(512 * 4);
        f.write_owned(0, &data);
        f.write_at(700, b"xy");
        invariants(&f);
        let parts: Vec<ByteExtent> = f.extents(0, usize::MAX).into_iter().collect();
        assert!(!inside(&parts[1], &data));
        assert!([0, 2, 3].iter().all(|&i| inside(&parts[i], &data)));
        // The caller's buffer itself is never written.
        assert_eq!(&data[..], &(0..2048).map(|i| (i % 253) as u8).collect::<Vec<_>>()[..]);
        assert_eq!(&f.to_vec()[700..702], b"xy");
    }

    #[test]
    fn truncating_an_adopted_file_releases_its_buffer() {
        let mut f = FileContent::new(512);
        let data = buffer(512 * 16);
        f.write_owned(0, &data);
        assert_eq!(f.pinned_bytes(), 512 * 16);
        f.resize(512);
        invariants(&f);
        assert!(f.pinned_bytes() <= 512, "pinned {} bytes", f.pinned_bytes());
        assert_eq!(f.to_vec(), &data[..512]);
        // A cut inside a chunk copies out the kept part, exact.
        let mut g = FileContent::new(512);
        g.write_owned(0, &data);
        g.resize(700);
        invariants(&g);
        assert_eq!(g.pinned_bytes(), 700);
        assert_eq!(g.to_vec(), &data[..700]);
        // A cut that keeps every byte of each buffer copies nothing.
        let mut h = FileContent::new(512);
        h.write_owned(0, &buffer(1024));
        h.write_owned(1024, &data);
        h.resize(1024);
        assert!(h.extents(0, usize::MAX).parts().all(|p| p.data.len() == 1024));
    }
}
