//! Real-thread stress of the epoch-swapped snapshot cell.
//!
//! The `snapshot::` unit tests use tiny constants; these suites turn
//! the same invariants loose on native threads at stress counts.
//!
//! Invariant under test: every `(epoch, value)` pair a reader observes
//! was actually published — the publisher only ever publishes
//! `Arc::new(i)` at epoch `i`, so a mismatch means a torn swap.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pubsub_core::SnapshotCell;

#[test]
fn reader_storm_never_observes_torn_pairs() {
    const READERS: usize = 6;
    const SWAPS: u64 = 2_000;
    const READS_PER_READER: u64 = 20_000;

    let cell = SnapshotCell::new(Arc::new(0u64));
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut reader = cell.reader();
                let mut last_epoch = 0;
                for _ in 0..READS_PER_READER {
                    let value = **reader.current();
                    let epoch = reader.cached_epoch();
                    assert_eq!(value, epoch, "torn snapshot");
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                }
            });
        }
        scope.spawn(|| {
            for i in 1..=SWAPS {
                cell.publish(Arc::new(i));
            }
        });
    });
    assert_eq!(cell.epoch(), SWAPS);
    assert_eq!(*cell.load_with_epoch().0, SWAPS);
}

#[test]
fn uncached_loads_race_the_publisher_consistently() {
    const SWAPS: u64 = 4_000;

    let cell = SnapshotCell::new(Arc::new(0u64));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let (value, epoch) = cell.load_with_epoch();
                    assert_eq!(*value, epoch, "load_with_epoch paired a stale value");
                    assert!(epoch >= last, "epoch went backwards");
                    last = epoch;
                }
            });
        }
        scope.spawn(|| {
            for i in 1..=SWAPS {
                cell.publish(Arc::new(i));
            }
            done.store(true, Ordering::Release);
        });
    });
    assert_eq!(cell.epoch(), SWAPS);
}

#[test]
fn concurrent_publishers_account_for_every_swap() {
    const PUBLISHERS: u64 = 4;
    const SWAPS_EACH: u64 = 1_000;

    // Publishers race each other and a pool of readers; epochs must
    // still count every publish exactly once and readers must never
    // see the epoch move backwards.
    let cell = SnapshotCell::new(Arc::new(0u64));
    let max_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for p in 0..PUBLISHERS {
            let cell = &cell;
            scope.spawn(move || {
                for i in 0..SWAPS_EACH {
                    cell.publish(Arc::new(p * SWAPS_EACH + i));
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                let mut reader = cell.reader();
                let mut last = 0;
                for _ in 0..10_000 {
                    let _value = **reader.current();
                    let epoch = reader.cached_epoch();
                    assert!(epoch >= last, "epoch went backwards");
                    last = epoch;
                    max_seen.fetch_max(epoch, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(cell.epoch(), PUBLISHERS * SWAPS_EACH);
    assert!(max_seen.load(Ordering::Relaxed) <= PUBLISHERS * SWAPS_EACH);
    // The final value is whichever publisher's store landed last; it
    // must be one that was actually submitted.
    assert!(*cell.load_with_epoch().0 < PUBLISHERS * SWAPS_EACH);
}

#[test]
fn in_flight_snapshots_outlive_heavy_churn() {
    let cell = SnapshotCell::new(Arc::new(vec![0u64; 512]));
    let held = cell.load_with_epoch().0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 1..=500u64 {
                cell.publish(Arc::new(vec![i; 512]));
            }
        });
        scope.spawn(|| {
            for _ in 0..500 {
                // Dropping freshly loaded Arcs races the publisher's
                // store of the replacement — the refcount traffic is
                // what is under stress here.
                drop(cell.load_with_epoch().0);
            }
        });
    });
    assert!(held.iter().all(|&x| x == 0), "held snapshot mutated");
    assert!(cell.load_with_epoch().0.iter().all(|&x| x == 500));
}
