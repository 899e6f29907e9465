//! End-to-end swap semantics of the always-on broker service:
//!
//! * a plan-swap storm (one rebalance + hot swap per phase) is
//!   bit-identical to a serial replay of the same op/event interleaving
//!   with no concurrency at all, each event decided by the oracle
//!   (`oracle::decide`: brute-force scan plus the paper-literal
//!   matcher) over the replay's slots, at 1 and 8 ingest threads —
//!   every event decided by exactly one validated plan;
//! * `delivered + shed` exactly partitions offered load under each
//!   shed policy, with the shed id sets the policies promise;
//! * a rejected rebalance aborts, rolls back, keeps serving the old
//!   plan and keeps its churn out of the clustering, and the swap
//!   after it equals one from a service that never aborted;
//! * the windowed ingest protocol (parked-thread counts, one lock per
//!   window) loses no wake-up under pause/resume/drain contention,
//!   never serves an event offered after a swap with the plan from
//!   before it, decides hostile coordinates as the oracle does, and
//!   rejects a wrong-dimension event in the offering thread;
//! * a service over zero subscriptions unicasts every event to nobody,
//!   and an unsubscribe of a gone or never-issued id is one rejected op;
//! * `start` over churn no rebalance has folded in is an error, not a
//!   panic or a service that misses deliveries.
//!
//! These thread-heavy suites sit outside the crate (`tests/`); the
//! `--lib` unit tests cover the pure logic at small constants.

mod oracle;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use geometry::{Grid, Interval, Point, Rect};
use pubsub_core::{
    BrokerService, CellProbability, Delivery, DynamicClustering, KMeans, KMeansVariant,
    RebalanceAbort, ServiceConfig, ShedPolicy, SubscriptionId,
};
use rand::prelude::*;

const CELLS: usize = 64;
const GROUPS: usize = 8;
const THRESHOLD: f64 = 0.15;

/// A rectangle of the unit `dim`-cube covering 2–10 % of it before
/// clipping, so a random event interests a few of 20–60 subscribers in
/// any dimension.
fn random_rect(rng: &mut StdRng, dim: usize) -> Rect {
    Rect::new(
        (0..dim)
            .map(|_| {
                let lo = rng.gen_range(0.0..0.9);
                let width = rng.gen_range(0.02f64..0.1).powf(1.0 / dim as f64);
                Interval::new(lo, (lo + width).min(1.0)).expect("valid interval")
            })
            .collect(),
    )
}

fn random_point(rng: &mut StdRng, dim: usize) -> Point {
    Point::new((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
}

fn seed_dynamic(dim: usize, n: usize, seed: u64) -> (DynamicClustering, Vec<SubscriptionId>) {
    let grid = Grid::cube(0.0, 1.0, dim, CELLS).expect("grid");
    let probs = CellProbability::uniform(&grid);
    let mut dynamic =
        DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), GROUPS);
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = (0..n)
        .map(|_| dynamic.subscribe(random_rect(&mut rng, dim)))
        .collect();
    dynamic.try_rebalance().expect("seed population rebalances");
    (dynamic, ids)
}

/// The oracle's `(decision, interested count)` for `p` over the
/// clustering's current slots.
fn oracle_record(dynamic: &DynamicClustering, p: &Point) -> (Delivery, u32) {
    let (decision, set) = oracle::decide(
        dynamic.framework(),
        dynamic.clustering(),
        THRESHOLD,
        dynamic.subscription_slots(),
        p,
    );
    (decision, set.count() as u32)
}

/// One deterministically generated storm phase.
struct Phase {
    unsubscribe: SubscriptionId,
    subscribe: Rect,
    resubscribe: (SubscriptionId, Rect),
    events: Vec<Point>,
}

fn make_phases(
    dim: usize,
    ids: &[SubscriptionId],
    phases: usize,
    events_per_phase: usize,
) -> Vec<Phase> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..phases)
        .map(|p| Phase {
            unsubscribe: ids[p],
            subscribe: random_rect(&mut rng, dim),
            resubscribe: (ids[ids.len() - 1 - p], random_rect(&mut rng, dim)),
            events: (0..events_per_phase)
                .map(|_| random_point(&mut rng, dim))
                .collect(),
        })
        .collect()
}

/// Every event is decided by exactly one validated plan, bit-identical
/// to a serial oracle replay, regardless of ingest thread count. The
/// grid is 2-D and every event distinct, so a queue that misaligned
/// one event's coordinates with another's would decide wrong points.
#[test]
fn swap_storm_is_bit_identical_to_serial_oracle() {
    const DIM: usize = 2;
    const N: usize = 60;
    const PHASES: usize = 10;
    const EVENTS_PER_PHASE: usize = 40;

    // --- Serial oracle: replay churn + rebalance + serve with no
    // service, no threads, no queue.
    let (mut oracle, ids) = seed_dynamic(DIM, N, 7);
    let phases = make_phases(DIM, &ids, PHASES, EVENTS_PER_PHASE);
    // (event id, plan version, decision, interested) in offer order.
    let mut expected: Vec<(u64, u64, Delivery, u32)> = Vec::new();
    let mut next_event = 0u64;
    for (p, phase) in phases.iter().enumerate() {
        oracle.unsubscribe(phase.unsubscribe).expect("oracle unsub");
        oracle.subscribe(phase.subscribe.clone());
        let (rid, rect) = &phase.resubscribe;
        oracle
            .resubscribe(*rid, rect.clone())
            .expect("oracle resub");
        oracle.try_rebalance().expect("oracle rebalance");
        for point in &phase.events {
            let (decision, interested) = oracle_record(&oracle, point);
            expected.push((next_event, (p + 1) as u64, decision, interested));
            next_event += 1;
        }
    }

    for threads in [1usize, 8] {
        let (dynamic, _) = seed_dynamic(DIM, N, 7);
        let service = BrokerService::start(
            dynamic,
            ServiceConfig {
                ingest_threads: threads,
                threshold: THRESHOLD,
                ..ServiceConfig::default()
            },
        )
        .expect("service starts");
        for phase in &phases {
            service.unsubscribe(phase.unsubscribe);
            service.subscribe(phase.subscribe.clone());
            let (rid, rect) = &phase.resubscribe;
            service.resubscribe(*rid, rect.clone());
            let swap = service.rebalance().expect("storm swap");
            assert_eq!(swap.rejected_ops, 0);
            for point in &phase.events {
                service.offer(point.clone());
            }
            // Quiesce between phases: with the queue drained, every
            // event of this phase was decided by this phase's plan.
            service.drain();
        }
        let (report, final_dynamic) = service.shutdown();

        assert_eq!(report.swaps, PHASES as u64);
        assert_eq!(report.aborts, 0);
        assert!(report.partitions_offered());
        assert_eq!(report.shed, 0);
        assert_eq!(report.delivered, (PHASES * EVENTS_PER_PHASE) as u64);
        assert_eq!(
            report.published_versions,
            (0..=PHASES as u64).collect::<Vec<_>>()
        );

        let got: Vec<(u64, u64, Delivery, u32)> = report
            .records
            .iter()
            .map(|r| (r.id, r.plan_version, r.decision, r.interested))
            .collect();
        assert_eq!(got, expected, "diverged from oracle at {threads} thread(s)");

        // The service's final clustering state matches the oracle's.
        assert_eq!(
            final_dynamic.num_subscriptions(),
            oracle.num_subscriptions()
        );
        assert_eq!(
            final_dynamic.subscription_slots(),
            oracle.subscription_slots()
        );
    }
}

/// A two-worker service over 40 random subscriptions in `dim`
/// dimensions.
fn shed_service(dim: usize, policy: ShedPolicy, depth: usize) -> BrokerService {
    let (dynamic, _) = seed_dynamic(dim, 40, 3);
    BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 2,
            queue_depth: depth,
            shed: policy,
            threshold: THRESHOLD,
        },
    )
    .expect("service starts")
}

#[test]
fn drop_newest_sheds_the_overflow_and_partitions_load() {
    let service = shed_service(1, ShedPolicy::DropNewest, 4);
    service.pause_ingest();
    for i in 0..10u64 {
        assert_eq!(service.offer(Point::new(vec![0.5])), i);
    }
    // Queue held the first 4; the 6 newest were shed at offer time.
    assert_eq!(service.shed(), 6);
    service.resume_ingest();
    service.drain();
    let (report, _) = service.shutdown();
    assert!(report.partitions_offered());
    assert_eq!(report.offered, 10);
    assert_eq!(report.delivered, 4);
    assert_eq!(report.shed, 6);
    assert_eq!(
        report.records.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert_eq!(report.shed_events, vec![4, 5, 6, 7, 8, 9]);
    assert_eq!(report.shed_policy, ShedPolicy::DropNewest);
}

/// The grid is 2-D and every event distinct, so each survivor must be
/// decided on its own coordinates, not on a shed victim's.
#[test]
fn drop_oldest_keeps_the_freshest_window() {
    const DIM: usize = 2;
    let service = shed_service(DIM, ShedPolicy::DropOldest, 4);
    let mut rng = StdRng::seed_from_u64(41);
    let points: Vec<Point> = (0..10).map(|_| random_point(&mut rng, DIM)).collect();
    service.pause_ingest();
    for p in &points {
        service.offer(p.clone());
    }
    service.resume_ingest();
    service.drain();
    // No churn reached the clustering: it is the one the plan that
    // served every event was compiled from.
    let (report, dynamic) = service.shutdown();
    assert!(report.partitions_offered());
    assert_eq!(report.delivered, 4);
    assert_eq!(report.shed, 6);
    // The queue always holds the freshest window.
    assert_eq!(
        report.records.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![6, 7, 8, 9]
    );
    assert_eq!(report.shed_events, vec![0, 1, 2, 3, 4, 5]);
    for r in &report.records {
        let p = &points[r.id as usize];
        assert_eq!(
            (r.decision, r.interested),
            oracle_record(&dynamic, p),
            "event {} at {p}",
            r.id
        );
    }
}

#[test]
fn block_policy_is_lossless_backpressure() {
    let service = shed_service(1, ShedPolicy::Block, 4);
    service.pause_ingest();
    for _ in 0..4 {
        service.offer(Point::new(vec![0.5]));
    }
    // The queue is full: further offers must block until a worker
    // frees a slot, never shed.
    std::thread::scope(|scope| {
        let svc = &service;
        let blocked = scope.spawn(move || {
            for _ in 0..6 {
                svc.offer(Point::new(vec![0.25]));
            }
        });
        // Give the offerer a chance to hit the full queue, then open
        // the drain; it must finish without shedding.
        std::thread::sleep(Duration::from_millis(50));
        service.resume_ingest();
        blocked.join().expect("blocked offerer finishes");
    });
    service.drain();
    let (report, _) = service.shutdown();
    assert!(report.partitions_offered());
    assert_eq!(report.offered, 10);
    assert_eq!(report.delivered, 10);
    assert_eq!(report.shed, 0);
    assert!(report.shed_events.is_empty());
    // No swap was asked for: the version-0 plan decided every event.
    assert_eq!((report.swaps, report.aborts), (0, 0));
    assert!(report.records.iter().all(|r| r.plan_version == 0));
}

/// A rejected rebalance aborts and rolls back: no plan is published,
/// the old plan keeps serving every event, and the churn never reaches
/// the clustering the service hands back. A 2-D subscription on the
/// 1-D grid makes every rebalance panic while it stays queued. That
/// the churn stays queued for the next swap that commits is checked by
/// `service.rs`'s unit test
/// `churn_queued_before_an_abort_reaches_the_next_swap`.
#[test]
fn a_rejected_rebalance_rolls_back_and_keeps_serving() {
    let (dynamic, _) = seed_dynamic(1, 30, 5);
    let before = 30;
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 2,
            threshold: THRESHOLD,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");

    let mut rng = StdRng::seed_from_u64(17);
    let added = service.subscribe(random_rect(&mut rng, 1));
    assert_eq!(added, SubscriptionId(before));
    service.subscribe(random_rect(&mut rng, 2));

    // Every attempt replays the queued churn, wrong subscription
    // included, so each one is rejected: three aborts in a row.
    for _ in 0..3 {
        match service.rebalance() {
            Err(RebalanceAbort::Rejected(_)) => {}
            other => panic!("expected a rejected rebalance, got {other:?}"),
        }
    }
    assert_eq!(service.plan_epoch(), 0, "no plan published on abort");

    // The old plan still serves while every rebalance is rejected.
    for _ in 0..20 {
        service.offer(Point::new(vec![rng.gen_range(0.0..1.0)]));
    }
    service.drain();
    let (report, final_dynamic) = service.shutdown();

    assert_eq!(report.aborts, 3);
    assert_eq!(report.swaps, 0);
    assert!(report.partitions_offered());
    assert_eq!(report.delivered, 20);
    assert_eq!(report.published_versions, vec![0]);
    assert!(report.records.iter().all(|r| r.plan_version == 0));
    // The queued subscribes stayed churn: the clustering is the seed's.
    assert_eq!(final_dynamic.num_subscriptions(), before);
}

/// The parked-thread counts gate every notify, so a protocol slip shows
/// up as a lost wake-up: some thread parked forever. A two-slot queue
/// keeps offerers parking on `space`, eight workers keep parking on
/// `ready`, and for the first half of the load a fifth thread pauses,
/// resumes and drains throughout. `resume_ingest` broadcasts whatever
/// the counts say and would rescue a worker the protocol had lost, so
/// the second half runs with nobody toggling. A lost wake-up is a
/// probability-per-run bug: CI repeats this test in the release profile.
#[test]
fn no_wakeup_is_lost_under_pause_resume_and_drain_contention() {
    const OFFERERS: usize = 4;
    const EVENTS_PER_OFFERER: usize = 5_000;
    const TOTAL: usize = OFFERERS * EVENTS_PER_OFFERER;

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    // Detached on purpose: if a wake-up is lost this thread hangs, and
    // the watchdog below fails the test instead of hanging with it.
    std::thread::spawn(move || {
        let (dynamic, _) = seed_dynamic(1, 20, 3);
        let service = BrokerService::start(
            dynamic,
            ServiceConfig {
                ingest_threads: 8,
                queue_depth: 2,
                shed: ShedPolicy::Block,
                threshold: THRESHOLD,
            },
        )
        .expect("service starts");
        // Progress gauge only; it publishes no data (the joins do).
        let offered = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..OFFERERS {
                let (service, offered) = (&service, &offered);
                scope.spawn(move || {
                    for i in 0..EVENTS_PER_OFFERER {
                        let x = ((t * EVENTS_PER_OFFERER + i) % 97) as f64 / 97.0;
                        service.offer(Point::new(vec![x]));
                        offered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            scope.spawn(|| {
                while offered.load(Ordering::Relaxed) < TOTAL / 2 {
                    service.pause_ingest();
                    // Long enough for the offerers to fill both slots
                    // and park behind the paused workers.
                    std::thread::sleep(Duration::from_micros(50));
                    service.resume_ingest();
                    service.drain();
                }
            });
        });
        service.drain();
        let (report, _) = service.shutdown();
        // The watchdog may already have given up on us.
        let _ = done_tx.send(report);
    });

    let report = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a thread is parked forever: lost wake-up");
    assert_eq!(report.offered, TOTAL as u64);
    assert_eq!(report.delivered, TOTAL as u64);
    assert_eq!(report.shed, 0);
    assert!(report.partitions_offered());
}

/// A worker refreshes its plan snapshot once per window, after taking
/// the window: an event offered after `rebalance()` returned is never
/// decided by the plan from before it, even when the worker sat parked
/// (snapshot long since checked) across the swap. Events from before
/// the swap may share a window with later ones and get either plan.
#[test]
fn events_offered_after_a_swap_never_see_the_plan_before_it() {
    const BEFORE: u64 = 200;
    const AFTER: u64 = 200;
    for threads in [1usize, 8] {
        let (dynamic, _) = seed_dynamic(1, 30, 5);
        let service = BrokerService::start(
            dynamic,
            ServiceConfig {
                ingest_threads: threads,
                threshold: THRESHOLD,
                ..ServiceConfig::default()
            },
        )
        .expect("service starts");
        let mut rng = StdRng::seed_from_u64(23);
        let mut offer = |n: u64| {
            for _ in 0..n {
                service.offer(Point::new(vec![rng.gen_range(0.0..1.0)]));
            }
        };
        offer(BEFORE);
        service.subscribe(Rect::new(vec![Interval::new(0.2, 0.7).expect("interval")]));
        // No drain: the swap lands wherever the workers happen to be.
        assert_eq!(service.rebalance().expect("swap").version, 1);
        offer(AFTER);
        service.drain();
        let (report, _) = service.shutdown();

        assert!(report.partitions_offered());
        assert_eq!(report.delivered, BEFORE + AFTER);
        assert_eq!(report.published_versions, vec![0, 1]);
        for r in &report.records {
            assert!(report.published_versions.contains(&r.plan_version));
            if r.id >= BEFORE {
                assert_eq!(
                    r.plan_version, 1,
                    "event {} offered after the swap, {threads} thread(s)",
                    r.id
                );
            }
        }
    }
}

/// Hostile coordinates have a defined outcome through the service: ±∞
/// and off-grid points are decided exactly as the oracle decides them
/// (unicast to whoever matches, usually nobody), and NaN cannot be
/// offered at all — `Point::new` rejects it in the caller's thread
/// before `offer` is reached.
#[test]
fn hostile_coordinates_are_decided_as_scalar_serve_decides_them() {
    let (dynamic, _) = seed_dynamic(1, 40, 11);
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 2,
            threshold: THRESHOLD,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");

    assert!(
        std::panic::catch_unwind(|| Point::new(vec![f64::NAN])).is_err(),
        "a NaN event is unrepresentable"
    );
    let hostile = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        -0.5,
        1.5,
        0.0, // the grid is open at its lower edge
        1.0,
        -0.0,
        f64::MIN_POSITIVE,
        1.0 + f64::EPSILON,
    ];
    let mut rng = StdRng::seed_from_u64(31);
    let mut points = Vec::new();
    for &x in &hostile {
        points.push(Point::new(vec![x]));
        // Ordinary events beside each hostile one, so they share
        // ingest windows.
        for _ in 0..5 {
            points.push(Point::new(vec![rng.gen_range(0.0..1.0)]));
        }
    }
    for p in &points {
        service.offer(p.clone());
    }
    service.drain();
    // No churn reached the clustering: it is the one the plan that
    // served every event was compiled from.
    let (report, dynamic) = service.shutdown();

    assert!(report.partitions_offered());
    assert_eq!(report.delivered, points.len() as u64);
    for (r, p) in report.records.iter().zip(&points) {
        assert_eq!(
            (r.decision, r.interested),
            oracle_record(&dynamic, p),
            "event {} at {p}",
            r.id
        );
    }
}

/// A service started over no subscription at all serves: every event,
/// on the grid or off it, is unicast to nobody, and the load partitions.
#[test]
fn a_service_over_zero_subscriptions_unicasts_every_event_to_nobody() {
    let (dynamic, ids) = seed_dynamic(2, 0, 1);
    assert!(ids.is_empty());
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 2,
            threshold: THRESHOLD,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..200 {
        service.offer(random_point(&mut rng, 2));
    }
    service.offer(Point::new(vec![-1.0, 2.0]));
    service.drain();
    let (report, _) = service.shutdown();
    assert!(report.partitions_offered());
    assert_eq!(report.delivered, 201);
    for r in &report.records {
        assert_eq!(
            (r.decision, r.interested),
            (Delivery::Unicast, 0),
            "event {}",
            r.id
        );
    }
}

/// `start` refuses a state holding churn no rebalance has folded in —
/// a subscribe, a resubscribe or an unsubscribe — with an error in the
/// caller's thread, before it spawns a thread: not a panic (a new slot
/// has no column in the framework), nor a service that misses
/// deliveries (a moved rectangle's bounds sit in its old cells'
/// candidate blocks). The same state, rebalanced, starts.
#[test]
fn start_rejects_churn_no_rebalance_has_folded_in() {
    let config = ServiceConfig {
        ingest_threads: 1,
        threshold: THRESHOLD,
        ..ServiceConfig::default()
    };
    let far = Rect::new(vec![Interval::new(0.7, 0.9).expect("valid interval")]);
    for kind in ["subscribe", "resubscribe", "unsubscribe"] {
        let (mut dynamic, ids) = seed_dynamic(1, 5, 4);
        match kind {
            "subscribe" => drop(dynamic.subscribe(far.clone())),
            "resubscribe" => dynamic.resubscribe(ids[0], far.clone()).expect("a live id"),
            _ => dynamic.unsubscribe(ids[0]).expect("a live id"),
        }
        let pending = dynamic.clone();
        let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BrokerService::start(pending, config.clone())
        }));
        match started {
            Ok(Err(RebalanceAbort::PlanRejected(e))) => {
                assert!(e.contains("1 subscription slot"), "{kind}: {e}");
            }
            Ok(Err(e)) => panic!("{kind}: the wrong error: {e}"),
            Ok(Ok(_)) => panic!("{kind}: a service started over pending churn"),
            Err(_) => panic!("{kind}: start panicked in the caller's thread"),
        }
        dynamic.try_rebalance().expect("the churn rebalances");
        let service =
            BrokerService::start(dynamic, config.clone()).expect("rebalanced state starts");
        let (report, _) = service.shutdown();
        assert!(report.partitions_offered(), "{kind}");
    }
}

/// An aborted swap drops the K-means group state the service carries
/// from swap to swap (DESIGN.md §14.2), so the next swap rebuilds it
/// from scratch. Two services start from the same population and swap
/// the same churn; one of them first takes a rejected rebalance — a
/// wrong-dimension subscription makes the rebalance panic, and the
/// service unsubscribes it again. Each later swap must report the same
/// stats and leave the same framework and clustering on both, and the
/// events offered after it must be decided alike: the plan compiled
/// from them is the same.
#[test]
fn the_swap_after_a_rejected_rebalance_matches_one_that_never_aborted() {
    const DIM: usize = 2;
    let config = ServiceConfig {
        ingest_threads: 1,
        threshold: THRESHOLD,
        ..ServiceConfig::default()
    };
    let start = || {
        let (dynamic, ids) = seed_dynamic(DIM, 60, 23);
        let service = BrokerService::start(dynamic, config.clone()).expect("service starts");
        (service, ids)
    };
    let (aborted, ids) = start();
    let (steady, _) = start();
    let phases = make_phases(DIM, &ids, 3, 200);
    let churn = |service: &BrokerService, phase: &Phase| {
        service.unsubscribe(phase.unsubscribe);
        service.subscribe(phase.subscribe.clone());
        let (id, rect) = &phase.resubscribe;
        service.resubscribe(*id, rect.clone());
    };
    let wrong = Rect::new(vec![Interval::new(0.1, 0.2).expect("interval")]);

    // Both carry the group state of a first swap; then one aborts.
    for service in [&aborted, &steady] {
        churn(service, &phases[0]);
        service.rebalance().expect("first swap");
    }
    let bad = aborted.subscribe(wrong.clone());
    match aborted.rebalance() {
        Err(RebalanceAbort::Rejected(_)) => {}
        other => panic!("expected a rejected rebalance, got {other:?}"),
    }
    aborted.unsubscribe(bad);
    let twin = steady.subscribe(wrong);
    steady.unsubscribe(twin);
    assert_eq!(bad, twin);

    for phase in &phases[1..] {
        let swaps: Vec<_> = [&aborted, &steady]
            .into_iter()
            .map(|service| {
                churn(service, phase);
                let swap = service.rebalance().expect("swap after the abort");
                for point in &phase.events {
                    service.offer(point.clone());
                }
                service.drain();
                swap
            })
            .collect();
        assert_eq!(swaps[0].stats, swaps[1].stats, "moves and deltas diverge");
        assert_eq!(swaps[0].subscriptions, swaps[1].subscriptions);
    }
    let (aborted_report, aborted_dynamic) = aborted.shutdown();
    let (steady_report, steady_dynamic) = steady.shutdown();
    assert_eq!((aborted_report.aborts, steady_report.aborts), (1, 0));
    let decisions = |report: &pubsub_core::ServiceReport| {
        let records = report.records.iter();
        records
            .map(|r| (r.id, r.decision, r.interested))
            .collect::<Vec<_>>()
    };
    assert_eq!(decisions(&aborted_report), decisions(&steady_report));
    assert_eq!(aborted_report.records.len(), 400);
    let observe = |d: &DynamicClustering| {
        let hypercells = d.framework().hypercells().iter();
        let hypercells: Vec<_> = hypercells
            .map(|h| (h.cells.clone(), h.members.clone(), h.prob.to_bits()))
            .collect();
        let groups: Vec<_> = d
            .clustering()
            .groups()
            .iter()
            .map(|g| (g.hypercells.clone(), g.members.clone(), g.prob.to_bits()))
            .collect();
        (d.subscription_slots().to_vec(), hypercells, groups)
    };
    assert_eq!(observe(&aborted_dynamic), observe(&steady_dynamic));
}

/// An unsubscribe the clustering cannot apply — of an id already gone,
/// or of one never issued — is one rejected op, in the swap that met it
/// and in the run's total; the swap itself goes through.
#[test]
fn duplicate_and_unknown_unsubscribes_are_each_one_rejected_op() {
    let (dynamic, ids) = seed_dynamic(1, 10, 4);
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 1,
            threshold: THRESHOLD,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    service.unsubscribe(ids[0]);
    let swap = service.rebalance().expect("first unsubscribe applies");
    assert_eq!((swap.rejected_ops, swap.subscriptions), (0, 9));

    service.unsubscribe(ids[0]);
    let swap = service.rebalance().expect("a duplicate aborts nothing");
    assert_eq!((swap.rejected_ops, swap.subscriptions), (1, 9));

    service.unsubscribe(SubscriptionId(1_000));
    let swap = service.rebalance().expect("an unknown id aborts nothing");
    assert_eq!((swap.rejected_ops, swap.subscriptions), (1, 9));

    let (report, final_dynamic) = service.shutdown();
    assert_eq!(report.rejected_ops, 2);
    assert_eq!((report.swaps, report.aborts), (3, 0));
    assert_eq!(final_dynamic.num_subscriptions(), 9);
}

/// A wrong-dimension event is the caller's bug and surfaces in the
/// caller's thread, before an id is allocated: no ingest worker sees
/// it, nothing is left in flight, and the service keeps serving.
#[test]
fn wrong_dimension_offer_panics_in_the_caller_and_wedges_nothing() {
    let (dynamic, _) = seed_dynamic(1, 10, 2);
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 1,
            threshold: THRESHOLD,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    assert_eq!(service.offer(Point::new(vec![0.5])), 0);

    let rejected = std::thread::scope(|scope| {
        scope
            .spawn(|| service.offer(Point::new(vec![0.5, 0.5])))
            .join()
    });
    assert!(rejected.is_err(), "a 2-D event into a 1-D service panics");

    // The rejected event took no id and left nothing undecided.
    assert_eq!(service.offer(Point::new(vec![0.25])), 1);
    service.drain();
    let (report, _) = service.shutdown();
    assert_eq!(report.offered, 2);
    assert_eq!(report.delivered, 2);
    assert!(report.partitions_offered());
}
