//! Extent-equivalence property suite: the chunked, `Arc`-backed file
//! representation must be observationally identical to a flat
//! `Vec<u8>` model under random data-op sequences.
//!
//! Every sequence mixes `write_at` / `file_extents` / `truncate` /
//! `append` with offsets and lengths chosen to straddle chunk
//! boundaries (the Vfs under test uses a deliberately tiny chunk so a
//! few hundred bytes cross several), and after every op the model and
//! the real file must agree on size, on every probed byte range, and
//! on the whole contents via both the flat (`file_data`) and
//! zero-copy (`file_extents`) read paths. Honors `IDBOX_PROP_SEED`
//! via the testkit proptest shim, like the rest of the suite.
//!
//! The adoption property does the same for writes that hand the file
//! their buffer (`write_owned`), and checks the retention bound: the
//! buffers a file's chunks are windows of never total more than twice
//! its length plus one chunk, whatever mix of adopted appends,
//! overwrites, truncates and held extents came before.

use idbox_vfs::{Cred, ExtentList, Vfs};
use proptest::prelude::*;
use std::sync::Arc;

const ROOT: Cred = Cred::ROOT;

/// Tiny chunk so ordinary op sizes cross chunk boundaries constantly.
const TEST_CHUNK: usize = 512;

/// A random data-plane operation on one file.
#[derive(Debug, Clone)]
enum DataOp {
    Write { off: u64, data: Vec<u8> },
    Truncate { len: u64 },
    Append { data: Vec<u8> },
    Read { off: u64, len: usize },
}

fn data_op() -> impl Strategy<Value = DataOp> {
    // Offsets/lengths up to a few chunks, biased around the 512-byte
    // chunk edges by sheer density of cases.
    prop_oneof![
        (0u64..2048, proptest::collection::vec(any::<u8>(), 0..1600))
            .prop_map(|(off, data)| DataOp::Write { off, data }),
        (0u64..2600).prop_map(|len| DataOp::Truncate { len }),
        proptest::collection::vec(any::<u8>(), 0..1100).prop_map(|data| DataOp::Append { data }),
        (0u64..2600, 0usize..1600).prop_map(|(off, len)| DataOp::Read { off, len }),
    ]
}

/// A random write that hands over its buffer, or an op that stresses
/// what such buffers leave behind.
#[derive(Debug, Clone)]
enum OwnedOp {
    /// An adopted write at EOF, or `gap` bytes past it.
    Append { gap: u64, data: Vec<u8> },
    /// An owned write at `off`, which may overlap the contents (copied)
    /// or lie past them (adopted).
    Write { off: u64, data: Vec<u8> },
    Truncate { len: u64 },
    /// Borrow the whole file and hold the extents to the case's end.
    Hold,
}

fn owned_op() -> impl Strategy<Value = OwnedOp> {
    prop_oneof![
        (0u64..1200, proptest::collection::vec(any::<u8>(), 1..2600)).prop_map(|(gap, data)| {
            OwnedOp::Append {
                gap: gap.saturating_sub(900),
                data,
            }
        }),
        (0u64..3000, proptest::collection::vec(any::<u8>(), 1..1600))
            .prop_map(|(off, data)| OwnedOp::Write { off, data }),
        (0u64..3000).prop_map(|len| OwnedOp::Truncate { len }),
        (0u64..1).prop_map(|_| OwnedOp::Hold),
    ]
}

/// The reference implementation: the flat `Vec<u8>` semantics the old
/// `Payload::File(Vec<u8>)` representation had.
#[derive(Default)]
struct FlatModel {
    data: Vec<u8>,
}

impl FlatModel {
    fn write_at(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        self.data[off..end].copy_from_slice(data);
    }

    fn truncate(&mut self, len: usize) {
        self.data.resize(len, 0);
    }

    fn read(&self, off: usize, len: usize) -> Vec<u8> {
        if off >= self.data.len() {
            return Vec::new();
        }
        let n = len.min(self.data.len() - off);
        self.data[off..off + n].to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked extents ≡ flat Vec over random op sequences.
    #[test]
    fn chunked_file_matches_flat_model(
        ops in proptest::collection::vec(data_op(), 1..40),
    ) {
        let mut v = Vfs::new();
        v.set_chunk_size(TEST_CHUNK);
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        let mut model = FlatModel::default();

        for op in &ops {
            match op {
                DataOp::Write { off, data } => {
                    prop_assert_eq!(v.write_at(ino, *off, data).unwrap(), data.len());
                    model.write_at(*off as usize, data);
                }
                DataOp::Truncate { len } => {
                    v.truncate(ino, *len).unwrap();
                    model.truncate(*len as usize);
                }
                DataOp::Append { data } => {
                    let at = v.fstat(ino).unwrap().size;
                    prop_assert_eq!(v.write_at(ino, at, data).unwrap(), data.len());
                    model.write_at(at as usize, data);
                }
                DataOp::Read { off, len } => {
                    let x = v.file_extents(ino, *off, *len).unwrap();
                    let buf = x.to_vec();
                    prop_assert_eq!(x.total, buf.len());
                    prop_assert_eq!(&buf[..], &model.read(*off as usize, *len)[..]);
                }
            }
            // After every op: size and full contents agree on both
            // read paths.
            prop_assert_eq!(v.fstat(ino).unwrap().size as usize, model.data.len());
            prop_assert_eq!(v.file_data(ino).unwrap(), model.data.clone());
            let whole = v.file_extents(ino, 0, usize::MAX).unwrap();
            prop_assert_eq!(whole.total, model.data.len());
            prop_assert_eq!(whole.to_vec(), model.data.clone());
        }
    }

    /// Extents snapshot: bytes borrowed before a write never change,
    /// even as the file is rewritten/truncated under them (CoW).
    #[test]
    fn held_extents_are_immutable_snapshots(
        initial in proptest::collection::vec(any::<u8>(), 1..2000),
        ops in proptest::collection::vec(data_op(), 1..12),
    ) {
        let mut v = Vfs::new();
        v.set_chunk_size(TEST_CHUNK);
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        v.write_at(ino, 0, &initial).unwrap();
        let snapshot = v.file_extents(ino, 0, usize::MAX).unwrap();
        for op in &ops {
            match op {
                DataOp::Write { off, data } => { v.write_at(ino, *off, data).unwrap(); }
                DataOp::Truncate { len } => { v.truncate(ino, *len).unwrap(); }
                DataOp::Append { data } => {
                    let at = v.fstat(ino).unwrap().size;
                    v.write_at(ino, at, data).unwrap();
                }
                DataOp::Read { .. } => {}
            }
        }
        prop_assert_eq!(snapshot.to_vec(), initial);
    }

    /// Adopted buffers ≡ flat Vec, and the memory they pin stays
    /// within twice the file's length plus one chunk. Extents held
    /// across the ops keep their bytes.
    #[test]
    fn adopted_buffers_match_flat_model_and_stay_bounded(
        ops in proptest::collection::vec(owned_op(), 1..40),
    ) {
        let mut v = Vfs::new();
        v.set_chunk_size(TEST_CHUNK);
        let ino = v.create(v.root(), "/f", 0o644, &ROOT).unwrap();
        let mut model = FlatModel::default();
        let mut held: Vec<(ExtentList, Vec<u8>)> = Vec::new();

        for op in &ops {
            match op {
                OwnedOp::Append { gap, data } => {
                    let at = v.fstat(ino).unwrap().size + gap;
                    let buf: Arc<[u8]> = data[..].into();
                    prop_assert_eq!(v.write_owned(ino, at, &buf).unwrap(), data.len());
                    model.write_at(at as usize, data);
                }
                OwnedOp::Write { off, data } => {
                    let buf: Arc<[u8]> = data[..].into();
                    prop_assert_eq!(v.write_owned(ino, *off, &buf).unwrap(), data.len());
                    model.write_at(*off as usize, data);
                }
                OwnedOp::Truncate { len } => {
                    v.truncate(ino, *len).unwrap();
                    model.truncate(*len as usize);
                }
                OwnedOp::Hold => {
                    held.push((v.file_extents(ino, 0, usize::MAX).unwrap(), model.data.clone()));
                }
            }
            prop_assert_eq!(v.file_data(ino).unwrap(), model.data.clone());
            let whole = v.file_extents(ino, 0, usize::MAX).unwrap();
            prop_assert_eq!(whole.to_vec(), model.data.clone());
            let pinned = v.pinned_bytes(ino).unwrap();
            prop_assert!(
                pinned <= 2 * model.data.len() + TEST_CHUNK,
                "{} bytes of buffers pinned by a {}-byte file",
                pinned,
                model.data.len()
            );
            for (x, bytes) in &held {
                prop_assert_eq!(&x.to_vec(), bytes);
            }
        }
    }
}
