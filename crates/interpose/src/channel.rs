//! The I/O channel: the shared buffer used for bulk data movement.
//!
//! Recent Linux kernels refused writes to `/proc/x/mem`, so Parrot moves
//! bulk data through a small in-memory file shared between the supervisor
//! and all of its children: the supervisor copies data into the channel,
//! rewrites the application's `read` into a `pread` on the channel fd,
//! and the application itself pulls the data in (paper, Section 5 and
//! Figure 4b). The cost that matters — and that this type reproduces —
//! is the **extra copy**: channel transfers always move each byte twice.

/// Default channel capacity (8 MiB, enough for any single transfer the
/// workloads make; grows on demand like a memory-backed file).
pub const DEFAULT_CHANNEL: usize = 8 << 20;

/// The shared bulk-transfer buffer.
#[derive(Debug, Clone)]
pub struct IoChannel {
    buf: Vec<u8>,
    /// Bytes staged by the most recent transfer.
    staged: usize,
    /// Lifetime counter of bytes moved through the channel.
    total_bytes: u64,
    /// Lifetime counter of transfers.
    transfers: u64,
}

impl Default for IoChannel {
    fn default() -> Self {
        IoChannel::new()
    }
}

impl IoChannel {
    /// A channel with the default capacity.
    pub fn new() -> Self {
        IoChannel::with_capacity(DEFAULT_CHANNEL)
    }

    /// A channel with a specific initial capacity.
    pub fn with_capacity(cap: usize) -> Self {
        IoChannel {
            buf: vec![0; cap],
            staged: 0,
            total_bytes: 0,
            transfers: 0,
        }
    }

    /// Supervisor side: copy consecutive `parts` (a read's extents, or
    /// one buffer) into the channel as one transfer (copy #1 of the bulk
    /// path). Returns the in-channel offset (always 0: transfers are
    /// serialized per supervisor, like Parrot's per-child channel slots).
    pub fn stage<'p>(&mut self, parts: impl IntoIterator<Item = &'p [u8]>) -> u64 {
        let mut n = 0;
        for part in parts {
            if n + part.len() > self.buf.len() {
                self.buf.resize(n + part.len(), 0);
            }
            self.buf[n..n + part.len()].copy_from_slice(part);
            n += part.len();
        }
        self.staged = n;
        self.total_bytes += n as u64;
        self.transfers += 1;
        0
    }

    /// Application side: pull the staged bytes out of the channel into a
    /// destination buffer (copy #2 — the `pread` the application was
    /// coerced into).
    pub fn fetch(&self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.staged);
        out[..n].copy_from_slice(&self.buf[..n]);
        n
    }

    /// Application side: copy outgoing data into the channel (the
    /// `pwrite` direction), making it visible to the supervisor.
    pub fn submit(&mut self, data: &[u8]) {
        self.stage([data]);
    }

    /// Supervisor side: borrow the staged bytes (the supervisor maps the
    /// channel, so its access is zero-copy).
    pub fn staged_bytes(&self) -> &[u8] {
        &self.buf[..self.staged]
    }

    /// Lifetime bytes moved through the channel.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Lifetime number of transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_then_fetch() {
        let mut ch = IoChannel::with_capacity(16);
        ch.stage([&b"hello world"[..]]);
        let mut out = [0u8; 11];
        assert_eq!(ch.fetch(&mut out), 11);
        assert_eq!(&out, b"hello world");
    }

    #[test]
    fn fetch_respects_out_len() {
        let mut ch = IoChannel::with_capacity(16);
        ch.stage([&b"abcdef"[..]]);
        let mut out = [0u8; 3];
        assert_eq!(ch.fetch(&mut out), 3);
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn grows_beyond_capacity() {
        let mut ch = IoChannel::with_capacity(4);
        let big = vec![7u8; 1000];
        ch.stage([&big[..]]);
        let mut out = vec![0u8; 1000];
        assert_eq!(ch.fetch(&mut out), 1000);
        assert_eq!(out, big);
    }

    #[test]
    fn parts_stage_as_one_transfer() {
        let mut ch = IoChannel::with_capacity(4);
        ch.stage([&b"hello "[..], b"world"]);
        assert_eq!(ch.staged_bytes(), b"hello world");
        assert_eq!((ch.total_bytes(), ch.transfers()), (11, 1));
    }

    #[test]
    fn counters_accumulate() {
        let mut ch = IoChannel::new();
        ch.stage([&b"xxxx"[..]]);
        ch.submit(b"yy");
        assert_eq!(ch.total_bytes(), 6);
        assert_eq!(ch.transfers(), 2);
    }

    #[test]
    fn staged_bytes_view() {
        let mut ch = IoChannel::new();
        ch.submit(b"payload");
        assert_eq!(ch.staged_bytes(), b"payload");
    }
}
