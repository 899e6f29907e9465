//! Epoch-swapped immutable snapshots: the lock-free serve-path handle.
//!
//! The always-on broker loop (DESIGN.md §14) needs ingest threads to
//! read the current [`DispatchPlan`](crate::DispatchPlan) on every
//! event while a background rebalancer occasionally publishes a new
//! one. A mutex around the plan would put every event behind a lock; a
//! true pointer-swapping `ArcSwap` needs `unsafe`. [`SnapshotCell`] is
//! the dependency-free, `forbid(unsafe_code)` middle ground:
//!
//! * the cell holds an `Arc<T>` behind a mutex **plus** a monotone
//!   epoch counter ([`AtomicU64`]);
//! * publishing stores the new `Arc` and bumps the epoch (release);
//! * readers keep a thread-local cached `(epoch, Arc<T>)` pair and
//!   check the epoch with one atomic acquire load per read — the mutex
//!   is touched **only when the epoch moved**, i.e. once per swap per
//!   reader, never per event.
//!
//! In steady state the hot path is exactly one `load(Acquire)` —
//! wait-free — and swaps cost each reader one short, uncontended lock
//! (the publisher holds it for a pointer store). Snapshots are
//! immutable `Arc`s, so a reader that refreshed mid-stream keeps
//! serving its old plan until *it* decides to refresh: every event is
//! decided by exactly one published snapshot, never a torn mix.
//!
//! The epoch is bumped *while holding the slot lock* and readers
//! re-read it under the same lock, so a refreshed cache always pairs
//! the value with the exact epoch it was published under.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// An atomically versioned, hot-swappable immutable value.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pubsub_core::SnapshotCell;
///
/// let cell = SnapshotCell::new(Arc::new(1u32));
/// let mut reader = cell.reader();
/// assert_eq!(**reader.current(), 1);
/// cell.publish(Arc::new(2u32));
/// assert_eq!(**reader.current(), 2);
/// assert_eq!(cell.epoch(), 1);
/// ```
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// Published-swap counter; `0` is the initial value's epoch.
    epoch: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Creates the cell holding `value` at epoch 0.
    pub fn new(value: Arc<T>) -> Self {
        SnapshotCell {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(value),
        }
    }

    /// A poisoned slot mutex only means a publisher panicked *between*
    /// two pointer stores — the `Arc` inside is always intact, so the
    /// cell keeps serving the last good snapshot instead of spreading
    /// the panic to every ingest thread.
    fn lock_slot(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current epoch: the number of [`publish`](Self::publish)
    /// calls so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current snapshot together with the epoch it was
    /// published under (locks briefly; prefer a [`SnapshotReader`] on
    /// hot paths). The pair is consistent: the epoch is read
    /// under the same lock the publisher bumps it under.
    pub fn load_with_epoch(&self) -> (Arc<T>, u64) {
        let guard = self.lock_slot();
        let value = Arc::clone(&guard);
        let epoch = self.epoch.load(Ordering::Acquire);
        (value, epoch)
    }

    /// Atomically replaces the snapshot and returns the new epoch.
    /// Readers observe the swap on their next epoch check; in-flight
    /// reads keep their old `Arc` untouched.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let mut guard = self.lock_slot();
        *guard = value;
        // Bumped inside the lock so `load_with_epoch` can never pair
        // the new epoch with the old value or vice versa.
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Creates a caching reader positioned at the current snapshot.
    pub fn reader(&self) -> SnapshotReader<'_, T> {
        let (cached, epoch) = self.load_with_epoch();
        SnapshotReader {
            cell: self,
            epoch,
            cached,
        }
    }
}

/// A per-thread caching handle over a [`SnapshotCell`].
///
/// [`current`](SnapshotReader::current) costs one atomic load while the
/// epoch is unchanged and refreshes (one short lock) only after a
/// publish — the epoch-style read path of the broker service loop.
#[derive(Debug)]
pub struct SnapshotReader<'a, T> {
    cell: &'a SnapshotCell<T>,
    epoch: u64,
    cached: Arc<T>,
}

impl<'a, T> SnapshotReader<'a, T> {
    /// The freshest snapshot: refreshes the cache iff the cell's epoch
    /// moved since the last call.
    pub fn current(&mut self) -> &Arc<T> {
        if self.cell.epoch.load(Ordering::Acquire) != self.epoch {
            let (value, epoch) = self.cell.load_with_epoch();
            self.cached = value;
            self.epoch = epoch;
        }
        &self.cached
    }

    /// The epoch of the cached snapshot (what
    /// [`current`](SnapshotReader::current) would serve before any
    /// refresh).
    pub fn cached_epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn publish_bumps_epoch_and_readers_refresh() {
        let cell = SnapshotCell::new(Arc::new(10u64));
        assert_eq!(cell.epoch(), 0);
        let mut r = cell.reader();
        assert_eq!(**r.current(), 10);
        assert_eq!(r.cached_epoch(), 0);

        assert_eq!(cell.publish(Arc::new(20)), 1);
        assert_eq!(cell.epoch(), 1);
        // The reader still holds the old Arc until it asks again.
        assert_eq!(r.cached_epoch(), 0);
        assert_eq!(**r.current(), 20);
        assert_eq!(r.cached_epoch(), 1);
        assert_eq!(*cell.load_with_epoch().0, 20);
    }

    #[test]
    fn load_with_epoch_is_consistent() {
        let cell = SnapshotCell::new(Arc::new(0u64));
        for i in 1..=5 {
            cell.publish(Arc::new(i));
            let (v, e) = cell.load_with_epoch();
            assert_eq!(*v, i);
            assert_eq!(e, i);
        }
    }

    /// Concurrent readers vs a publisher: every observed `(epoch,
    /// value)` pair must be one that was actually published — a torn
    /// pair would mean the lock/epoch protocol is broken. Small
    /// constants: `crates/core/tests/snapshot.rs` runs the same
    /// invariant at stress counts.
    #[test]
    fn concurrent_swaps_never_tear() {
        const SWAPS: u64 = 16;
        let cell = SnapshotCell::new(Arc::new(0u64));
        let seen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut reader = cell.reader();
                    let mut last_epoch = 0;
                    for _ in 0..200 {
                        let value = **reader.current();
                        let epoch = reader.cached_epoch();
                        // Published pairs are exactly value == epoch.
                        assert_eq!(value, epoch, "torn snapshot");
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        last_epoch = epoch;
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            scope.spawn(|| {
                for i in 1..=SWAPS {
                    cell.publish(Arc::new(i));
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(seen.load(Ordering::Relaxed), 400);
        assert_eq!(cell.epoch(), SWAPS);
        assert_eq!(*cell.load_with_epoch().0, SWAPS);
    }

    /// An in-flight Arc keeps the old snapshot alive across swaps.
    #[test]
    fn old_snapshots_survive_until_dropped() {
        let cell = SnapshotCell::new(Arc::new(String::from("v0")));
        let held = cell.load_with_epoch().0;
        cell.publish(Arc::new(String::from("v1")));
        assert_eq!(*held, "v0");
        assert_eq!(*cell.load_with_epoch().0, "v1");
        drop(held);
    }
}
