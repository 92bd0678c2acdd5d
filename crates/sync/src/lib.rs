//! In-tree lock primitives with the `parking_lot` API shape.
//!
//! The build environment is fully offline, so the external `parking_lot`
//! crate cannot be fetched; the workspace instead aliases `parking_lot`
//! to this crate (see the root `Cargo.toml`). The surface mirrors the
//! subset the codebase uses: guards come back directly from
//! `lock()`/`read()`/`write()` with no `Result`, and poisoning is
//! transparent — a panic while holding a lock does not wedge every
//! later caller, matching `parking_lot` semantics closely enough for
//! our supervisors, servers, and benches.
//!
//! Being the lowest crate, it also hosts what every layer above shares
//! for measuring itself: the lock profiler and the one log2 histogram
//! ([`histogram`]) behind the kernel's, the profiler's and the event
//! loop's latency distributions.

use std::sync::TryLockError;

pub mod histogram;
mod profile;

pub use histogram::Log2Histogram;
pub use profile::{
    lock_profiling_enabled, lock_snapshot, lock_wait_percentile_us, set_contention_hook,
    set_lock_profiling, ContentionHook, DomainLockSnapshot, DomainProfile, ProfiledMutex,
    ProfiledRwLock, ShardLockSnapshot, LOCK_WAIT_BUCKETS,
};

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Poison-transparent.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A reader-writer lock whose guards come back without a `Result`.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard. Poison-transparent.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard. Poison-transparent.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Compatibility alias for call sites written against the old
    /// `Mutex`-shaped `SharedKernel`: an exclusive guard. Setup and
    /// test code uses this freely; hot paths should pick `read()` or
    /// `write()` explicitly.
    pub fn lock(&self) -> RwLockWriteGuard<'_, T> {
        self.write()
    }

    /// Try to acquire a read guard without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Try to acquire a write guard without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// A fixed array of independently locked shards: the building block for
/// the kernel's sharded domains (inode space, process table).
///
/// Keys are mapped to shards by `key % len`, so two keys in different
/// shards never contend. The danger in any sharded design is lock
/// ordering, and `ShardSet` centralizes the discipline:
///
/// 1. **One shard → one lock.** Operations touching a single shard use
///    [`ShardSet::read`] / [`ShardSet::write`] and hold nothing else.
/// 2. **Multiple shards → ascending index order.** Operations that must
///    hold several shards at once ([`ShardSet::write_keys`],
///    [`ShardSet::write_all`], [`ShardSet::read_all`]) always acquire
///    in ascending shard index, which makes a deadlock cycle between
///    them impossible.
/// 3. **Never hold shard guards from two different `ShardSet`s** (or
///    other domain locks) at once; cross-domain work is sequenced as
///    acquire → release → acquire.
///
/// Violating rule 2 by hand (e.g. taking `write(5)` and then `write(2)`)
/// can deadlock against any multi-shard writer; that is why the batch
/// acquisition helpers exist.
pub struct ShardSet<T> {
    shards: Box<[RwLock<T>]>,
    profile: Option<std::sync::Arc<DomainProfile>>,
}

impl<T> ShardSet<T> {
    /// Build `n` shards (at least 1), each initialized by `init(i)`.
    pub fn from_fn(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        let n = n.max(1);
        let shards: Vec<RwLock<T>> = (0..n).map(|i| RwLock::new(init(i))).collect();
        ShardSet {
            shards: shards.into_boxed_slice(),
            profile: None,
        }
    }

    /// Like [`ShardSet::from_fn`], but registered under `name` in the
    /// process-wide lock profile (see [`lock_snapshot`]): every
    /// acquisition is counted per shard and contended waits are
    /// histogrammed, unless [`set_lock_profiling`] turned profiling off.
    pub fn from_fn_named(name: &'static str, n: usize, init: impl FnMut(usize) -> T) -> Self {
        let mut s = Self::from_fn(n, init);
        s.profile = Some(DomainProfile::register(name, s.shards.len()));
        s
    }

    fn lock_read(&self, idx: usize) -> RwLockReadGuard<'_, T> {
        match &self.profile {
            Some(p) => p.acquire(
                idx,
                || self.shards[idx].try_read(),
                || self.shards[idx].read(),
            ),
            None => self.shards[idx].read(),
        }
    }

    fn lock_write(&self, idx: usize) -> RwLockWriteGuard<'_, T> {
        match &self.profile {
            Some(p) => p.acquire(
                idx,
                || self.shards[idx].try_write(),
                || self.shards[idx].write(),
            ),
            None => self.shards[idx].write(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false: a `ShardSet` has at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard index a key hashes to.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Shared guard for one shard (rule 1: hold nothing else).
    pub fn read(&self, idx: usize) -> RwLockReadGuard<'_, T> {
        self.lock_read(idx)
    }

    /// Exclusive guard for one shard (rule 1: hold nothing else).
    pub fn write(&self, idx: usize) -> RwLockWriteGuard<'_, T> {
        self.lock_write(idx)
    }

    /// Exclusive guards for the shards of up to four keys, acquired in
    /// ascending shard order, each shard once however many keys map to
    /// it. The guards are held inline: taking them allocates nothing.
    /// The result is addressed by key via [`ShardGuards::get_mut`].
    ///
    /// # Panics
    /// Panics when given more than four keys.
    pub fn write_keys(&self, keys: &[u64]) -> ShardGuards<'_, T> {
        assert!(keys.len() <= 4, "write_keys locks at most four keys");
        let mut idx = [0; 4];
        for (slot, &key) in idx.iter_mut().zip(keys) {
            *slot = self.shard_of(key);
        }
        idx[..keys.len()].sort_unstable();
        let mut n = 0;
        for i in 0..keys.len() {
            if n == 0 || idx[n - 1] != idx[i] {
                idx[n] = idx[i];
                n += 1;
            }
        }
        let mut guards = [None, None, None, None];
        for (guard, &i) in guards.iter_mut().zip(&idx[..n]) {
            *guard = Some(self.lock_write(i));
        }
        ShardGuards {
            set: self,
            idx,
            n,
            guards,
        }
    }

    /// Exclusive guards for every shard, ascending.
    pub fn write_all(&self) -> Vec<RwLockWriteGuard<'_, T>> {
        (0..self.shards.len()).map(|i| self.lock_write(i)).collect()
    }

    /// Shared guards for every shard, ascending. Used for consistent
    /// whole-structure snapshots (e.g. `Clone`).
    pub fn read_all(&self) -> Vec<RwLockReadGuard<'_, T>> {
        (0..self.shards.len()).map(|i| self.lock_read(i)).collect()
    }

    /// Lock-free access to every shard (requires exclusive ownership).
    pub fn get_mut_all(&mut self) -> Vec<&mut T> {
        self.shards.iter_mut().map(|s| s.get_mut()).collect()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ShardSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardSet({} shards)", self.shards.len())
    }
}

/// Guards held by [`ShardSet::write_keys`], addressable by key.
pub struct ShardGuards<'a, T> {
    set: &'a ShardSet<T>,
    idx: [usize; 4],
    n: usize,
    guards: [Option<RwLockWriteGuard<'a, T>>; 4],
}

impl<T> ShardGuards<'_, T> {
    /// The locked shard indices, in the ascending order they were
    /// acquired.
    pub fn indices(&self) -> &[usize] {
        &self.idx[..self.n]
    }

    fn slot(&self, key: u64) -> usize {
        let shard = self.set.shard_of(key);
        self.indices()
            .iter()
            .position(|&i| i == shard)
            .expect("key's shard not covered by write_keys")
    }

    /// Shared access to the shard holding `key`.
    ///
    /// # Panics
    /// Panics if no key of the `write_keys` request maps to that shard.
    pub fn get(&self, key: u64) -> &T {
        self.guards[self.slot(key)].as_deref().expect("locked")
    }

    /// Exclusive access to the shard holding `key`.
    ///
    /// # Panics
    /// Panics if no key of the `write_keys` request maps to that shard.
    pub fn get_mut(&mut self, key: u64) -> &mut T {
        let slot = self.slot(key);
        self.guards[slot].as_deref_mut().expect("locked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = Arc::new(RwLock::new(0u64));
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 0);
            assert!(l.try_write().is_none());
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
        // The Mutex-compat alias takes the exclusive guard.
        *l.lock() += 1;
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn poison_is_transparent() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn shard_set_routes_keys() {
        let s: ShardSet<u64> = ShardSet::from_fn(4, |i| i as u64);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(7), 3);
        assert_eq!(*s.read(s.shard_of(6)), 2);
        *s.write(1) += 10;
        assert_eq!(*s.read(1), 11);
    }

    #[test]
    fn shard_set_clamps_to_one() {
        let s: ShardSet<u32> = ShardSet::from_fn(0, |_| 9);
        assert_eq!(s.len(), 1);
        assert_eq!(s.shard_of(12345), 0);
    }

    #[test]
    fn write_keys_locks_ascending_once_and_addresses_by_key() {
        let s: ShardSet<u32> = ShardSet::from_fn(8, |_| 0);
        // One key; no keys.
        assert_eq!(s.write_keys(&[13]).indices(), &[5]);
        assert!(s.write_keys(&[]).indices().is_empty());
        // Descending keys lock ascending; keys sharing a shard (13 and
        // 5, 10 and 2) lock it once and alias the same guard.
        let mut g = s.write_keys(&[13, 10, 5, 2]);
        assert_eq!(g.indices(), &[2, 5]);
        *g.get_mut(13) += 1;
        *g.get_mut(5) += 1;
        *g.get_mut(10) += 2;
        assert_eq!(*g.get(2), 2);
        assert_eq!(*g.get(21), 2);
        drop(g);
        assert_eq!(*s.read(5), 2);
        // Three keys, two of them sharing shard 6.
        assert_eq!(s.write_keys(&[6, 14, 3]).indices(), &[3, 6]);
        // Four distinct shards, any order.
        let mut g = s.write_keys(&[7, 1, 6, 3]);
        assert_eq!(g.indices(), &[1, 3, 6, 7]);
        *g.get_mut(7) += 7;
        drop(g);
        assert_eq!(*s.read(7), 7);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn write_keys_refuses_an_unlocked_shard() {
        let s: ShardSet<u32> = ShardSet::from_fn(8, |_| 0);
        let g = s.write_keys(&[1, 2]);
        g.get(3);
    }

    #[test]
    fn concurrent_key_writers_do_not_deadlock() {
        // Overlapping four-key requests in opposite orders: ascending
        // acquisition must prevent a lock-order cycle.
        let s: Arc<ShardSet<u64>> = Arc::new(ShardSet::from_fn(4, |_| 0));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let keys = if t % 2 == 0 {
                            [0, 1, 2, 3]
                        } else {
                            [3, 2, 1, 0]
                        };
                        let mut g = s.write_keys(&keys);
                        for k in keys {
                            *g.get_mut(k) += 1;
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!((0..4).map(|i| *s.read(i)).sum::<u64>(), 4 * 8 * 200);
    }
}
