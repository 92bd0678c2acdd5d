//! A fast hash for the integer keys the filesystem assigns itself.
//!
//! Inode numbers come from the vfs's own allocator; no client chooses
//! one, so no client can steer them into colliding buckets, and
//! SipHash's flooding resistance buys nothing for them. A map keyed by
//! one uses [`IntMap`]: one multiply-rotate round per word, the hash
//! rustc uses for its own interned integers. Entry *names* are the
//! opposite case: clients choose them, and a weak hash would let a
//! client flood one directory's bucket, so maps keyed by a name keep
//! the standard library's SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hasher: `h = (h.rotl(5) ^ word) * K` per 8-byte word, with
/// the product's well-mixed high half folded into its low half.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

const K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        // A product's low bits mix only the word's low bits, and the
        // table indexes buckets by the hash's low bits: each vfs shard
        // holds the inode numbers of one residue mod the shard count,
        // so unfolded, every key of a 16-shard map would share its low
        // four bits and crowd a sixteenth of the buckets.
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds [`FxHasher`]s; stateless, so every map hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by a vfs-assigned integer (an inode number).
pub type IntMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// One shard's inode numbers (a stride of the shard count) spread
    /// over the low bits a table indexes buckets by.
    #[test]
    fn one_shards_inode_numbers_spread_over_the_low_bits() {
        let b = FxBuildHasher::default();
        for stride in [1u64, 16] {
            let buckets: std::collections::HashSet<u64> =
                (0..64u64).map(|k| b.hash_one(3 + stride * k) & 63).collect();
            let n = buckets.len();
            assert!(n >= 32, "stride {stride}: {n} of 64 buckets");
        }
        assert_eq!(b.hash_one(7u64), b.hash_one(7u64));
    }
}
