//! The always-on broker service loop: concurrent ingest over an
//! atomically hot-swapped [`DispatchPlan`], with bounded queues,
//! explicit overload shedding, and a background rebalancer
//! (DESIGN.md §14).
//!
//! Everything before this module is batch: build framework → cluster →
//! compile plan → replay events. [`BrokerService`] turns the same
//! pipeline into a long-running loop:
//!
//! * **N ingest threads** each take a *window* of up to
//!   `INGEST_WINDOW` events from a bounded queue under one lock
//!   acquisition, serve it through the batched kernel of
//!   [`DispatchPlan::serve_batch`] against an epoch-cached
//!   [`SnapshotCell`](crate::SnapshotCell) snapshot — its count-only
//!   tail, since a record keeps the interested count and never the ids —
//!   and record the decisions in a worker-local buffer — one lock, one
//!   atomic load and one clock read per window in steady state, none
//!   per event, no `futex_wake` unless a thread is actually parked, and
//!   no parking for a wait shorter than a wake-up (the ingest protocol,
//!   DESIGN.md §14.3). The offering side pays per event: one lock, one
//!   clock read and a copy of the event's `dim` coordinates into a ring
//!   preallocated at start (`queue_depth × (24 + 8·dim)` bytes with the
//!   event's id and offer instant); the caller's [`Point`] is freed on
//!   the caller's thread after the lock is released;
//! * a **rebalancer thread** consumes churn ops, folds them into a
//!   *clone* of the [`DynamicClustering`] (the one state copy a swap
//!   makes), runs the audited incremental pipeline on it, compiles the
//!   next plan and publishes it **only after** the structural
//!   [`Validator`] passes. A panicking attempt, or one that fails
//!   an audit, rolls back to the last good state (the clone is simply
//!   dropped) and surfaces a [`RebalanceAbort`] — the serve path is
//!   never poisoned. The rebalancer never retries on its own: the
//!   queued churn waits for the caller's next [`BrokerService::rebalance`];
//! * **backpressure is explicit**: the ingest queue holds at most
//!   [`ServiceConfig::queue_depth`] events and overload follows
//!   [`ServiceConfig::shed`], a [`ShedPolicy`].
//!   Every shed event is counted with its id, so
//!   `delivered + shed == offered` exactly partitions the offered load
//!   — nothing is ever dropped on the floor silently.
//!
//! Determinism: an event's decision depends only on `(event, plan
//! snapshot)`, and each published snapshot is a pure function of the
//! op stream. Drivers that quiesce between phases
//! ([`BrokerService::drain`] + the synchronous
//! [`BrokerService::rebalance`]) therefore get decisions bit-identical
//! to a serial replay at any ingest thread count — pinned by the
//! swap-storm suite in `crates/core/tests/service.rs`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use geometry::{Point, Rect};

use crate::batch::BatchScratch;
use crate::dispatch::DispatchPlan;
use crate::dynamic::{DynamicClustering, RebalanceError, RebalanceStats, SubscriptionId};
use crate::matching::Delivery;
use crate::snapshot::SnapshotCell;
use crate::validate::Validator;

/// Most events an ingest worker takes per lock acquisition. Measured
/// throughput is flat from 16 to 1024; 64 is the smallest size on the
/// flat part, so eight workers still share a 1024-deep queue and a
/// window adds at most 63 kernel calls to its first event's latency.
/// It is a cap, not the usual size: a worker takes whatever is queued.
/// Behind the benchmark's one offering thread the mean window per
/// round read 2.7–17.7 events on `serve-sparse` and 50–55 on
/// `serve-dense` and `swap-trickle` while the queue carried `Point`s,
/// and 4–54 on `serve-sparse` since it carries coordinates (DESIGN.md
/// §14.3).
const INGEST_WINDOW: usize = 64;

/// How long an ingest worker that found the queue empty keeps looking
/// before it parks, and how long [`BrokerService::drain`] does before
/// it parks (see [`IngestQueue::poll_while`]). A park is paid for
/// twice — the sleeper's wake-up latency and the waker's `futex_wake`
/// — and on a virtual CPU that latency is the host's to set: measured
/// 26 to 90 µs per closed-loop window of 1024 events from one quarter
/// of an hour to the next, against 250 to 470 µs of serving. A worker's
/// wait for the publisher that it has just released is a few
/// microseconds, so one wake-up's worth of looking covers it; a drain
/// waits for whatever the bounded queue still holds, which at the
/// default depth is under half a millisecond of serving.
const WORKER_POLL: Duration = Duration::from_micros(50);
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// What [`BrokerService::offer`] does when the ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Block the offering thread until a slot frees up — lossless
    /// backpressure, latency absorbed by the publisher.
    Block,
    /// Shed the incoming event (classic tail drop).
    DropNewest,
    /// Shed the oldest queued event to admit the new one (the queue
    /// always holds the freshest window).
    DropOldest,
}

/// Configuration of a [`BrokerService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ingest worker threads (at least 1).
    pub ingest_threads: usize,
    /// Bounded ingest-queue capacity (at least 1), allocated in full
    /// when the service starts.
    pub queue_depth: usize,
    /// Overload behavior when the queue is full.
    pub shed: ShedPolicy,
    /// Multicast threshold compiled into every published plan.
    pub threshold: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            ingest_threads: crate::parallel::num_threads(),
            queue_depth: 1024,
            shed: ShedPolicy::Block,
            threshold: 0.0,
        }
    }
}

/// A churn operation queued for the next rebalance.
#[derive(Debug, Clone)]
enum ServiceOp {
    Subscribe { id: SubscriptionId, rect: Rect },
    Unsubscribe { id: SubscriptionId },
    Resubscribe { id: SubscriptionId, rect: Rect },
}

/// An immutable published plan: the snapshot unit of the hot swap.
#[derive(Debug)]
struct VersionedPlan {
    /// Publication epoch of this plan (0 = the plan the service
    /// started with; equals the [`SnapshotCell`] epoch it was
    /// published under).
    version: u64,
    plan: DispatchPlan,
}

/// One decided event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The id [`BrokerService::offer`] returned.
    pub id: u64,
    /// Version of the (validated, published) plan that decided it.
    pub plan_version: u64,
    /// The delivery decision.
    pub decision: Delivery,
    /// Exact number of interested subscribers (the ids are never
    /// materialized on this path).
    pub interested: u32,
    /// offer → decision latency in nanoseconds (includes queue wait).
    /// "Decided" is the end of the window that served the event: a
    /// worker reads the clock once after serving a whole window, so
    /// every event of a window shares one decision instant.
    pub latency_ns: u64,
}

/// Why a rebalance attempt was aborted. The previous plan keeps
/// serving in every case.
#[derive(Debug, Clone)]
pub enum RebalanceAbort {
    /// The maintenance pipeline itself failed (panic or structural
    /// audit violation) and rolled back.
    Rejected(RebalanceError),
    /// The compiled plan failed the dispatch-plan audit.
    PlanRejected(String),
}

impl std::fmt::Display for RebalanceAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceAbort::Rejected(e) => write!(f, "rebalance rejected: {e}"),
            RebalanceAbort::PlanRejected(e) => write!(f, "compiled plan rejected: {e}"),
        }
    }
}

impl std::error::Error for RebalanceAbort {}

/// Outcome of one successful rebalance + hot swap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapReport {
    /// Version of the newly published plan.
    pub version: u64,
    /// Diagnostics of the underlying [`DynamicClustering`] rebalance.
    pub stats: RebalanceStats,
    /// Churn ops skipped: an unsubscribe or resubscribe of an id that
    /// was never issued or is already gone.
    pub rejected_ops: usize,
    /// Live subscriptions after the swap.
    pub subscriptions: usize,
}

/// Final accounting of a service run ([`BrokerService::shutdown`]).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Events offered (every id in `0..offered` was issued).
    pub offered: u64,
    /// Events decided by a published plan (`records.len()`).
    pub delivered: u64,
    /// Events shed by the overload policy (`shed_events.len()`).
    pub shed: u64,
    /// Plans published after validation (excluding the initial plan).
    pub swaps: u64,
    /// Rebalance attempts aborted (a panic, or a failed clustering or
    /// plan audit).
    pub aborts: u64,
    /// Total churn ops skipped across all swaps.
    pub rejected_ops: u64,
    /// The shed policy in force.
    pub shed_policy: ShedPolicy,
    /// Every decision, sorted by event id.
    pub records: Vec<EventRecord>,
    /// Ids of shed events, sorted.
    pub shed_events: Vec<u64>,
    /// Versions published over the run, in order (starts with 0, the
    /// initial plan; all of them passed the validator before publish).
    pub published_versions: Vec<u64>,
}

impl ServiceReport {
    /// The load-partition invariant: every offered event is counted
    /// exactly once as delivered or shed, with matching id sets.
    pub fn partitions_offered(&self) -> bool {
        if self.delivered + self.shed != self.offered {
            return false;
        }
        if self.records.len() as u64 != self.delivered || self.shed_events.len() as u64 != self.shed
        {
            return false;
        }
        // Merge the two sorted id sequences; together they must be
        // exactly 0..offered.
        let mut ri = self.records.iter().map(|r| r.id).peekable();
        let mut si = self.shed_events.iter().copied().peekable();
        for expect in 0..self.offered {
            let took = match (ri.peek().copied(), si.peek().copied()) {
                (Some(a), _) if a == expect => ri.next(),
                (_, Some(b)) if b == expect => si.next(),
                _ => None,
            };
            if took != Some(expect) {
                return false;
            }
        }
        ri.next().is_none() && si.next().is_none()
    }
}

/// An event waiting in the ingest queue; its coordinates wait beside it
/// in [`QueueState::coords`].
struct PendingEvent {
    id: u64,
    enqueued: Instant,
}

struct QueueState {
    buf: VecDeque<PendingEvent>,
    /// The coordinates of the events in `buf`, `dim` per event in the
    /// same order. Both rings are allocated for `queue_depth` events
    /// when the service starts and never grow, so an offer copies its
    /// coordinates in and keeps its [`Point`] to free on its own thread.
    coords: VecDeque<f64>,
    /// Events taken by a worker whose window has not been settled yet.
    in_flight: usize,
    paused: bool,
    closed: bool,
    /// Threads parked on [`IngestQueue::space`] / `ready` / `idle`, so
    /// that nobody pays a `futex_wake` when nobody is parked (std's
    /// `Condvar` keeps no waiter count: every notify is a syscall).
    ///
    /// A thread adds itself under the queue lock immediately before
    /// `wait`. Whoever makes the waiters' condition true does so under
    /// the same lock, notifies only if the count is non-zero and
    /// *retires what it wakes*: −1 with `notify_one`, 0 with
    /// `notify_all`. A woken thread re-checks its condition and adds
    /// itself again if it must keep waiting. The notifier retires
    /// because a waiter that subtracted itself would leave the count up
    /// between the wake and the moment it actually runs, and every
    /// offer in that gap would pay the syscall again.
    ///
    /// A spurious wake-up adds itself a second time without having
    /// been retired, so a count can read one too high. That costs one
    /// needless `futex_wake` later and can never lose one: a count is
    /// never below the number of threads actually parked.
    space_parked: usize,
    ready_parked: usize,
    idle_parked: usize,
}

/// Bounded MPMC ingest queue (mutex + condvars; the serve path itself
/// never touches it while deciding an event).
struct IngestQueue {
    state: Mutex<QueueState>,
    /// Coordinates per queued event: the grid's dimension, fixed for
    /// the service's lifetime.
    dim: usize,
    /// Signalled when slots free up (block-policy producers wait).
    space: Condvar,
    /// Signalled when an event arrives or the queue closes/resumes.
    ready: Condvar,
    /// Signalled when the queue is empty with nothing in flight.
    idle: Condvar,
}

impl IngestQueue {
    fn new(depth: usize, dim: usize) -> Self {
        IngestQueue {
            state: Mutex::new(QueueState {
                buf: VecDeque::with_capacity(depth),
                coords: VecDeque::with_capacity(depth * dim),
                in_flight: 0,
                paused: false,
                closed: false,
                space_parked: 0,
                ready_parked: 0,
                idle_parked: 0,
            }),
            dim,
            space: Condvar::new(),
            ready: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // A worker panic while holding the lock (impossible in the
        // current loop body, which only moves plain data) must not
        // wedge every other thread.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks at `waiting` under the lock again and again, giving the
    /// CPU to any other runnable thread between looks, until it turns
    /// false or `budget` is spent; the caller parks on its condvar if
    /// it is still true. The lock is free while this thread yields, so
    /// whoever must make the condition false is never kept out, and a
    /// thread that only ever polls is never counted as parked, so
    /// nobody pays a `futex_wake` for it.
    fn poll_while<'a>(
        &'a self,
        mut state: MutexGuard<'a, QueueState>,
        budget: Duration,
        waiting: impl Fn(&QueueState) -> bool,
    ) -> MutexGuard<'a, QueueState> {
        let start = Instant::now();
        while waiting(&state) && start.elapsed() < budget {
            drop(state);
            std::thread::yield_now();
            state = self.lock();
        }
        state
    }
}

/// Shared state between the service handle, the ingest workers and the
/// rebalancer.
struct Shared {
    plan: SnapshotCell<VersionedPlan>,
    queue: IngestQueue,
    shed_events: Mutex<Vec<u64>>,
    published: Mutex<Vec<u64>>,
    offered: AtomicU64,
    shed: AtomicU64,
    swaps: AtomicU64,
    aborts: AtomicU64,
    rejected_ops: AtomicU64,
}

/// Control messages consumed by the rebalancer thread.
enum ControlMsg {
    Ops(Vec<ServiceOp>),
    Rebalance(Sender<Result<SwapReport, RebalanceAbort>>),
    Shutdown,
}

/// Serialized control-plane side of the handle: op submission order
/// must equal id pre-assignment order.
struct Control {
    tx: Sender<ControlMsg>,
    next_slot: usize,
}

/// The running broker service. See the module docs for the thread
/// layout; construct with [`BrokerService::start`], stop with
/// [`BrokerService::shutdown`].
pub struct BrokerService {
    shared: Arc<Shared>,
    control: Mutex<Control>,
    workers: Vec<JoinHandle<Vec<EventRecord>>>,
    rebalancer: Option<JoinHandle<DynamicClustering>>,
    shed_policy: ShedPolicy,
    queue_depth: usize,
}

/// Compiles and audits a plan for the given clustering state.
fn compile_plan(
    dynamic: &DynamicClustering,
    threshold: f64,
) -> Result<DispatchPlan, RebalanceAbort> {
    let slots = dynamic.subscription_slots();
    let slot = |id: usize| slots[id].as_ref();
    let plan = DispatchPlan::compile(dynamic.framework(), dynamic.clustering())
        .with_threshold(threshold)
        .attach(slots.len(), slot);
    let mut v = Validator::new();
    v.check_dispatch_plan(dynamic.framework(), dynamic.clustering(), &plan)
        .check_serve_state(&plan, slots.len(), slot);
    match v.finish() {
        Ok(()) => Ok(plan),
        Err(e) => Err(RebalanceAbort::PlanRejected(e.to_string())),
    }
}

/// State owned by the rebalancer thread.
struct Rebalancer {
    dynamic: DynamicClustering,
    pending: Vec<ServiceOp>,
    threshold: f64,
    shared: Arc<Shared>,
}

impl Rebalancer {
    fn run(mut self, rx: Receiver<ControlMsg>) -> DynamicClustering {
        while let Ok(msg) = rx.recv() {
            match msg {
                ControlMsg::Ops(mut ops) => self.pending.append(&mut ops),
                ControlMsg::Rebalance(reply) => {
                    let (outcome, previous) = match self.attempt() {
                        Ok((report, previous)) => (Ok(report), Some(previous)),
                        Err(abort) => (Err(abort), None),
                    };
                    match &outcome {
                        Ok(report) => {
                            // lint: allow(atomic-order): statistics
                            // counter; exact totals are read only after
                            // shutdown() joins this thread, and the
                            // join supplies the happens-before edge.
                            self.shared.swaps.fetch_add(1, Ordering::Relaxed);
                            self.shared
                                .rejected_ops
                                // lint: allow(atomic-order): statistics
                                // counter, exact only after the
                                // shutdown join (same as `swaps`).
                                .fetch_add(report.rejected_ops as u64, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // lint: allow(atomic-order): statistics
                            // counter, exact only after the shutdown
                            // join (same as `swaps`).
                            self.shared.aborts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The requester may have gone away; the swap (or
                    // abort accounting) above stands either way.
                    let _ = reply.send(outcome);
                    // The replaced state is freed only after the plan is
                    // published and the swap answered: neither waits.
                    drop(previous);
                }
                ControlMsg::Shutdown => break,
            }
        }
        self.dynamic
    }

    /// One audited rebalance attempt: churn → rebalance → compile +
    /// validate → publish. All work happens on a clone that takes the
    /// carried K-means group state along ([`DynamicClustering::fork`]);
    /// an abort drops the clone, leaving the last good state (and plan)
    /// and every queued op in force, and the next attempt to rebuild the
    /// group state from scratch. A committed swap hands back the state
    /// it replaced, for the caller to drop after answering.
    fn attempt(&mut self) -> Result<(SwapReport, DynamicClustering), RebalanceAbort> {
        let mut work = self.dynamic.fork();
        let mut rejected = 0usize;
        for op in &self.pending {
            match op {
                ServiceOp::Subscribe { id, rect } => {
                    let got = work.subscribe(rect.clone());
                    debug_assert_eq!(got, *id, "pre-assigned subscription id drifted");
                }
                ServiceOp::Unsubscribe { id } => {
                    if work.unsubscribe(*id).is_err() {
                        rejected += 1;
                    }
                }
                ServiceOp::Resubscribe { id, rect } => {
                    if work.resubscribe(*id, rect.clone()).is_err() {
                        rejected += 1;
                    }
                }
            }
        }

        // `work` is the rollback: an error drops it half-updated.
        let stats = work.rebalance_audited().map_err(RebalanceAbort::Rejected)?;
        let plan = compile_plan(&work, self.threshold)?;

        // Commit: the clone becomes the truth and the plan goes live.
        let version = self.shared.plan.epoch() + 1;
        let subscriptions = work.num_subscriptions();
        let previous = std::mem::replace(&mut self.dynamic, work);
        self.pending.clear();
        let published = self
            .shared
            .plan
            .publish(Arc::new(VersionedPlan { version, plan }));
        debug_assert_eq!(published, version);
        self.shared
            .published
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(version);
        Ok((
            SwapReport {
                version,
                stats,
                rejected_ops: rejected,
                subscriptions,
            },
            previous,
        ))
    }
}

/// Ingest worker: take a window, refresh the plan snapshot (one atomic
/// load when unchanged), serve the window through the batched kernel,
/// record locally. Returns every record it made.
fn worker_loop(shared: &Shared) -> Vec<EventRecord> {
    let queue = &shared.queue;
    let dim = queue.dim;
    let mut plan = shared.plan.reader();
    let mut scratch = BatchScratch::new();
    let mut window: Vec<PendingEvent> = Vec::with_capacity(INGEST_WINDOW);
    let mut coords: Vec<f64> = Vec::with_capacity(INGEST_WINDOW * dim);
    // The window's events, overwritten in place window after window.
    let mut points: Vec<Point> = (0..INGEST_WINDOW)
        .map(|_| Point::new(vec![0.0; dim]))
        .collect();
    let mut decisions: Vec<Delivery> = Vec::with_capacity(INGEST_WINDOW);
    let mut records = Vec::new();
    loop {
        {
            let mut state = queue.lock();
            state.in_flight -= window.len();
            if state.idle_parked > 0 && state.in_flight == 0 && state.buf.is_empty() {
                state.idle_parked = 0;
                queue.idle.notify_all();
            }
            state = queue.poll_while(state, WORKER_POLL, |s| {
                s.buf.is_empty() && !s.paused && !s.closed
            });
            while state.paused || state.buf.is_empty() {
                if state.closed && !state.paused {
                    return records;
                }
                state.ready_parked += 1;
                state = queue.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            let take = state.buf.len().min(INGEST_WINDOW);
            window.clear();
            window.extend(state.buf.drain(..take));
            coords.clear();
            coords.extend(state.coords.drain(..take * dim));
            state.in_flight += take;
            if state.space_parked > 0 {
                state.space_parked = 0;
                queue.space.notify_all();
            }
        }
        // `dim >= 1`: `start` cannot compile a plan over a 0-D grid.
        for (point, c) in points.iter_mut().zip(coords.chunks_exact(dim)) {
            point.set_coords(c);
        }

        // After the take, not before: an event offered after
        // `rebalance()` returned was enqueued after the publish, so it
        // is taken after it and `current()` sees the new epoch.
        let cached = plan.current();
        decisions.clear();
        cached.plan.serve_batch_counts(
            0..window.len(),
            |e| &points[e],
            &mut scratch,
            &mut decisions,
        );
        let decided = Instant::now();
        for (local, (ev, &decision)) in window.iter().zip(&decisions).enumerate() {
            let waited = decided.saturating_duration_since(ev.enqueued);
            records.push(EventRecord {
                id: ev.id,
                plan_version: cached.version,
                decision,
                interested: scratch.interested_count(local),
                latency_ns: u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }
}

impl BrokerService {
    /// Starts the service over an initial clustering state: compiles,
    /// audits and publishes the version-0 plan, then spawns the ingest
    /// workers and the rebalancer.
    ///
    /// # Errors
    ///
    /// Returns [`RebalanceAbort::PlanRejected`] if the *initial* state
    /// holds subscription changes no rebalance has folded in yet, or
    /// does not compile to a valid plan. Nothing is spawned in that case.
    pub fn start(
        dynamic: DynamicClustering,
        config: ServiceConfig,
    ) -> Result<BrokerService, RebalanceAbort> {
        let pending = dynamic.pending_changes();
        if pending > 0 {
            return Err(RebalanceAbort::PlanRejected(format!(
                "{pending} subscription slot(s) changed since the last rebalance; \
                 rebalance before starting the service"
            )));
        }
        let plan = compile_plan(&dynamic, config.threshold)?;
        let next_slot = dynamic.subscription_slots().len();
        let dim = dynamic.framework().grid().dim();
        let queue_depth = config.queue_depth.max(1);
        let shared = Arc::new(Shared {
            plan: SnapshotCell::new(Arc::new(VersionedPlan { version: 0, plan })),
            queue: IngestQueue::new(queue_depth, dim),
            shed_events: Mutex::new(Vec::new()),
            published: Mutex::new(vec![0]),
            offered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            rejected_ops: AtomicU64::new(0),
        });

        let workers = (0..config.ingest_threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                // lint: allow(thread-panic): worker_loop only moves
                // plain data under a poison-recovering lock, and the
                // kernel's two panics are excluded before it runs
                // (`offer` checks the dimension, `compile_plan` always
                // attaches subscriptions); if a panic does escape, it
                // is re-raised by the join in shutdown() rather than
                // wedging the other workers.
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let (tx, rx) = mpsc::channel();
        let rebalancer = Rebalancer {
            dynamic,
            pending: Vec::new(),
            threshold: config.threshold,
            shared: Arc::clone(&shared),
        };
        let rebalancer = std::thread::spawn(move || rebalancer.run(rx));

        Ok(BrokerService {
            shared,
            control: Mutex::new(Control { tx, next_slot }),
            workers,
            rebalancer: Some(rebalancer),
            shed_policy: config.shed,
            queue_depth,
        })
    }

    fn control(&self) -> MutexGuard<'_, Control> {
        self.control.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn send(&self, msg: ControlMsg) {
        // The rebalancer only exits on Shutdown, which consumes `self`;
        // a dead receiver here is a bug worth surfacing loudly.
        self.control()
            .tx
            .send(msg)
            .expect("rebalancer thread is alive");
    }

    /// Offers one event, returning its id. Depending on the
    /// [`ShedPolicy`] this may block (lossless backpressure), shed the
    /// event itself, or shed the oldest queued event; every shed is
    /// counted against the returned ids, so
    /// `delivered + shed == offered` always holds at shutdown.
    ///
    /// # Panics
    ///
    /// Panics if `point`'s dimension differs from the grid's the
    /// service was started over. The check runs in the caller's thread
    /// before an id is allocated, so a rejected event is never part of
    /// the offered load and cannot take an ingest worker down with it.
    pub fn offer(&self, point: Point) -> u64 {
        let queue = &self.shared.queue;
        assert_eq!(
            point.dim(),
            queue.dim,
            "offered event's dimension differs from the service's grid"
        );
        // lint: allow(atomic-order): unique-id allocator; the RMW's
        // atomicity alone guarantees distinct ids, and the total is
        // read exactly only after shutdown() joins every worker.
        let id = self.shared.offered.fetch_add(1, Ordering::Relaxed);
        let mut state = queue.lock();
        debug_assert!(!state.closed, "offer after shutdown");
        match self.shed_policy {
            ShedPolicy::Block => {
                while state.buf.len() >= self.queue_depth {
                    state.space_parked += 1;
                    state = queue.space.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
            ShedPolicy::DropNewest => {
                if state.buf.len() >= self.queue_depth {
                    drop(state);
                    self.record_shed(id);
                    return id;
                }
            }
            ShedPolicy::DropOldest => {
                if state.buf.len() >= self.queue_depth {
                    if let Some(victim) = state.buf.pop_front() {
                        state.coords.drain(..queue.dim);
                        self.record_shed(victim.id);
                    }
                }
            }
        }
        state.buf.push_back(PendingEvent {
            id,
            enqueued: Instant::now(),
        });
        state.coords.extend(point.coords());
        // A paused worker cannot take the event: waking it would only
        // make it park again (`resume_ingest` wakes every worker).
        if state.ready_parked > 0 && !state.paused {
            state.ready_parked -= 1;
            queue.ready.notify_one();
        }
        drop(state);
        // `point` is dropped on return: its buffer is freed on the
        // thread that allocated it, after the lock is released.
        id
    }

    fn record_shed(&self, id: u64) {
        // lint: allow(atomic-order): statistics counter; the paired
        // shed_events mutex already orders the shed ids themselves,
        // and the total is exact after the shutdown joins.
        self.shared.shed.fetch_add(1, Ordering::Relaxed);
        self.shared
            .shed_events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(id);
    }

    /// Registers a subscription, returning its stable id immediately;
    /// the clustering picks it up at the next rebalance.
    pub fn subscribe(&self, rect: Rect) -> SubscriptionId {
        let mut control = self.control();
        let id = SubscriptionId(control.next_slot);
        control.next_slot += 1;
        control
            .tx
            .send(ControlMsg::Ops(vec![ServiceOp::Subscribe { id, rect }]))
            .expect("rebalancer thread is alive");
        id
    }

    /// Queues an unsubscribe for the next rebalance. An id that was
    /// never issued or is already gone is counted as a rejected op, not
    /// an error.
    pub fn unsubscribe(&self, id: SubscriptionId) {
        self.send(ControlMsg::Ops(vec![ServiceOp::Unsubscribe { id }]));
    }

    /// Queues a rectangle change for the next rebalance.
    pub fn resubscribe(&self, id: SubscriptionId, rect: Rect) {
        self.send(ControlMsg::Ops(vec![ServiceOp::Resubscribe { id, rect }]));
    }

    /// Runs one rebalance + hot swap on the background thread and
    /// waits for the outcome. On success, events offered after this
    /// returns are decided by the new plan; on abort, the previous
    /// plan (and every queued churn op) stays in force for a later
    /// retry. Ingest never stops either way.
    pub fn rebalance(&self) -> Result<SwapReport, RebalanceAbort> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.send(ControlMsg::Rebalance(reply_tx));
        reply_rx.recv().expect("rebalancer thread replies")
    }

    /// Pauses the ingest workers after their current window (at most
    /// `INGEST_WINDOW` events already taken from the queue are still
    /// decided; events keep queueing / shedding per policy). Used to
    /// build controlled overload in tests and maintenance windows.
    pub fn pause_ingest(&self) {
        self.shared.queue.lock().paused = true;
    }

    /// Resumes paused ingest workers.
    pub fn resume_ingest(&self) {
        let mut state = self.shared.queue.lock();
        state.paused = false;
        state.ready_parked = 0;
        self.shared.queue.ready.notify_all();
    }

    /// Blocks until the queue is empty and no event is in flight: polls
    /// for up to `DRAIN_POLL`, yielding the CPU between looks, then
    /// parks. Ingest must not be paused, or this never returns.
    pub fn drain(&self) {
        let queue = &self.shared.queue;
        let busy = |s: &QueueState| !s.buf.is_empty() || s.in_flight > 0;
        let mut state = queue.poll_while(queue.lock(), DRAIN_POLL, busy);
        while busy(&state) {
            state.idle_parked += 1;
            state = queue.idle.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Current published-plan epoch (0 until the first swap).
    pub fn plan_epoch(&self) -> u64 {
        self.shared.plan.epoch()
    }

    /// Events shed so far.
    pub fn shed(&self) -> u64 {
        // lint: allow(atomic-order): monitoring getter of a monotonic
        // counter; a momentarily stale value is fine, exact totals
        // come from shutdown() after the joins.
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Stops the service: drains the queue (resuming ingest if
    /// paused), joins every thread, and returns the final accounting
    /// together with the final clustering state (for oracle replay and
    /// state hand-off).
    pub fn shutdown(mut self) -> (ServiceReport, DynamicClustering) {
        {
            let mut state = self.shared.queue.lock();
            state.paused = false;
            state.closed = true;
            state.ready_parked = 0;
            state.space_parked = 0;
            self.shared.queue.ready.notify_all();
            self.shared.queue.space.notify_all();
        }
        // The first worker's buffer *becomes* the report's; only the
        // others' are copied (a copying merge of all of them holds
        // every record twice at the peak).
        let mut records = Vec::new();
        for w in self.workers.drain(..) {
            // A worker panic is not caught: this `expect` re-raises it
            // in the caller. A panic mid-window also leaves the
            // window's `in_flight` unsettled, so `drain()` blocks.
            let mut local = w.join().expect("ingest worker exited cleanly");
            if records.is_empty() {
                records = local;
            } else {
                records.append(&mut local);
            }
        }
        self.send(ControlMsg::Shutdown);
        let dynamic = self
            .rebalancer
            .take()
            .expect("rebalancer joined once")
            .join()
            .expect("rebalancer exited cleanly");

        records.sort_unstable_by_key(|r| r.id);
        let mut shed_events = std::mem::take(
            &mut *self
                .shared
                .shed_events
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        shed_events.sort_unstable();
        let published = std::mem::take(
            &mut *self
                .shared
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        let report = ServiceReport {
            // lint: allow(atomic-order): every worker and the
            // rebalancer are joined above; the joins supply the
            // happens-before edges that make these totals exact.
            offered: self.shared.offered.load(Ordering::Relaxed),
            delivered: records.len() as u64,
            shed: shed_events.len() as u64,
            // lint: allow(atomic-order): exact after the joins above.
            swaps: self.shared.swaps.load(Ordering::Relaxed),
            // lint: allow(atomic-order): exact after the joins above.
            aborts: self.shared.aborts.load(Ordering::Relaxed),
            // lint: allow(atomic-order): exact after the joins above.
            rejected_ops: self.shared.rejected_ops.load(Ordering::Relaxed),
            shed_policy: self.shed_policy,
            records,
            shed_events,
            published_versions: published,
        };
        (report, dynamic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;

    // Threaded end-to-end coverage (swap storms, shed accounting,
    // rejected rebalances) lives in `crates/core/tests/service.rs`; these
    // tests cover the pure logic only.

    #[test]
    fn config_defaults_are_sane() {
        let d = ServiceConfig::default();
        assert!(d.ingest_threads >= 1);
        assert!(d.queue_depth >= 1);
        assert_eq!(d.shed, ShedPolicy::Block);
    }

    #[test]
    fn partition_check_rejects_gaps_and_overlaps() {
        let record = |id| EventRecord {
            id,
            plan_version: 0,
            decision: Delivery::Unicast,
            interested: 0,
            latency_ns: 1,
        };
        let base = ServiceReport {
            offered: 3,
            delivered: 2,
            shed: 1,
            swaps: 0,
            aborts: 0,
            rejected_ops: 0,
            shed_policy: ShedPolicy::DropNewest,
            records: vec![record(0), record(2)],
            shed_events: vec![1],
            published_versions: vec![0],
        };
        assert!(base.partitions_offered());
        let mut gap = base.clone();
        gap.shed_events = vec![2]; // id 1 missing, id 2 double-counted
        assert!(!gap.partitions_offered());
        let mut wrong_count = base.clone();
        wrong_count.shed = 0;
        assert!(!wrong_count.partitions_offered());
        let mut extra = base.clone();
        extra.offered = 2;
        assert!(!extra.partitions_offered());
    }

    #[test]
    fn poll_while_stops_on_the_condition_or_the_budget_and_frees_the_lock() {
        let queue = IngestQueue::new(1, 1);
        let busy = |s: &QueueState| s.in_flight > 0;
        // Condition already false: not one yield, whatever the budget.
        let state = queue.poll_while(queue.lock(), Duration::MAX, busy);
        assert_eq!(state.in_flight, 0);
        drop(state);
        // Condition never clears: gives up once the budget is spent and
        // hands back a guard over the unchanged state, for the caller
        // to park on.
        queue.lock().in_flight = 1;
        let budget = Duration::from_millis(2);
        let t = Instant::now();
        let state = queue.poll_while(queue.lock(), budget, busy);
        assert!(t.elapsed() >= budget);
        assert_eq!(state.in_flight, 1);
        drop(state);
        // Another thread clears it meanwhile: it must get the lock from
        // under the poller, and the poller must see the change long
        // before an hour is up.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(1));
                queue.lock().in_flight = 0;
            });
            let state = queue.poll_while(queue.lock(), Duration::from_secs(3600), busy);
            assert_eq!(state.in_flight, 0);
        });
    }

    /// Eight overlapping 1-D subscriptions on a 16-cell line, rebalanced.
    fn small_population() -> DynamicClustering {
        let grid = geometry::Grid::cube(0.0, 1.0, 1, 16).expect("grid");
        let probs = crate::CellProbability::uniform(&grid);
        let kmeans = crate::KMeans::new(crate::KMeansVariant::MacQueen);
        let mut dynamic = DynamicClustering::new(grid, probs, kmeans, 2);
        for i in 0..8 {
            let lo = f64::from(i) / 10.0;
            dynamic.subscribe(Rect::new(vec![
                Interval::new(lo, lo + 0.2).expect("interval")
            ]));
        }
        dynamic.try_rebalance().expect("population rebalances");
        dynamic
    }

    /// Churn queued before an aborted rebalance is kept, not dropped:
    /// the next attempt that commits applies it. The abort also dropped
    /// the carried K-means group state with the work copy, so that
    /// attempt rebuilds it from scratch — and must publish the plan, and
    /// report the moves, of the same attempt by a rebalancer that never
    /// aborted. A 2-D subscription on the 1-D grid makes the first
    /// attempt's rebalance panic; it is unsubscribed before the second.
    #[test]
    fn churn_queued_before_an_abort_reaches_the_next_swap() {
        let dynamic = small_population();
        let before = dynamic.num_subscriptions();
        let slots = dynamic.subscription_slots().len();
        let service = BrokerService::start(small_population(), ServiceConfig::default())
            .expect("service starts");
        let steady_service = BrokerService::start(small_population(), ServiceConfig::default())
            .expect("service starts");
        let interval = |lo, hi| Interval::new(lo, hi).expect("interval");
        let (good, bad) = (SubscriptionId(slots), SubscriptionId(slots + 1));
        let churn = [
            ServiceOp::Subscribe {
                id: good,
                rect: Rect::new(vec![interval(0.3, 0.6)]),
            },
            ServiceOp::Subscribe {
                id: bad,
                rect: Rect::new(vec![interval(0.1, 0.2), interval(0.1, 0.2)]),
            },
        ];
        let rebalancer = |dynamic, service: &BrokerService| Rebalancer {
            dynamic,
            pending: churn.to_vec(),
            threshold: ServiceConfig::default().threshold,
            shared: Arc::clone(&service.shared),
        };
        let mut steady = rebalancer(small_population(), &steady_service);
        let mut rebalancer = rebalancer(dynamic, &service);
        let aborted = rebalancer.attempt();
        assert!(
            matches!(aborted, Err(RebalanceAbort::Rejected(_))),
            "{aborted:?}"
        );
        assert_eq!(
            rebalancer.pending.len(),
            churn.len(),
            "the abort dropped queued churn"
        );
        assert_eq!(rebalancer.dynamic.num_subscriptions(), before);

        for r in [&mut rebalancer, &mut steady] {
            r.pending.push(ServiceOp::Unsubscribe { id: bad });
        }
        let (report, _previous) = rebalancer.attempt().expect("the next attempt commits");
        assert_eq!(report.version, 1);
        assert_eq!(report.subscriptions, before + 1);
        assert!(rebalancer.pending.is_empty());

        let (want, _previous) = steady.attempt().expect("the steady attempt commits");
        assert_eq!(report.stats, want.stats);
        let plan =
            |service: &BrokerService| format!("{:?}", service.shared.plan.load_with_epoch().0.plan);
        assert_eq!(plan(&service), plan(&steady_service));
        let _ = (service.shutdown(), steady_service.shutdown());
    }

    /// A paused worker cannot take an event, so an offer must leave its
    /// wait registered instead of paying a `futex_wake` that only makes
    /// it park again. The real worker re-registers too fast after such
    /// a wake for the count to show it, so a second waiter that parks
    /// exactly as a worker does, but reports why it woke instead of
    /// parking again, stands beside it.
    #[test]
    fn offers_to_a_paused_service_wake_no_parked_worker() {
        let service = BrokerService::start(
            small_population(),
            ServiceConfig {
                ingest_threads: 1,
                ..ServiceConfig::default()
            },
        )
        .expect("service starts");
        service.pause_ingest();
        let queue = &service.shared.queue;
        let parked = || queue.lock().ready_parked;
        while parked() != 1 {
            std::thread::yield_now();
        }
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut state = queue.lock();
                state.ready_parked += 1;
                let state = queue.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                state.paused
            });
            while parked() != 2 {
                std::thread::yield_now();
            }
            for i in 0..100 {
                service.offer(Point::new(vec![f64::from(i % 10) / 10.0 + 0.05]));
            }
            let after = parked();
            // Release the waiter before asserting: the scope joins it.
            service.resume_ingest();
            let woke_paused = waiter.join().expect("waiter returns");
            assert_eq!(after, 2, "an offer retired a paused wait");
            assert!(!woke_paused, "an offer woke a worker while paused");
        });
        let (report, _) = service.shutdown();
        assert_eq!(report.delivered, 100);
        assert!(report.partitions_offered());
    }
}
