//! Seeded chaos scenarios: subscription churn composed with network
//! fault storms, epoch-aligned, for driving the always-on broker loop.
//!
//! A [`ChaosScenario`] glues together the two independent stress axes
//! the repo already models — user churn (subscribe / unsubscribe /
//! resubscribe streams, as replayed by `DynamicClustering`) and
//! network faults ([`FaultSchedule`] epochs of link failures and node
//! crashes) — into one deterministic, epoch-structured storm. Each
//! epoch carries a batch of [`ChurnOp`]s, a burst of publication
//! events, and (implicitly, via the shared schedule) whatever the
//! fault model does to the network in that epoch. Drivers replay the
//! epochs in order: apply churn, translate the epoch's node crashes
//! into forced unsubscribes, rebalance, then publish the events.
//!
//! Everything is derived from one `u64` seed: the same seed always
//! yields the same ops, events and faults, so a concurrent service run
//! can be checked bit-for-bit against a serial oracle replay.

use geometry::{Interval, Point, Rect};
use netsim::{FaultModel, FaultSchedule, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::types::{Event, Subscription, Workload};

/// One subscription-churn operation.
///
/// Targets are *birth ordinals*: index `i` refers to the `i`-th
/// subscription ever created (initial population first, then chaos
/// subscribes in stream order). Ordinals are stable across the whole
/// scenario, matching the slot-id discipline of the dynamic clustering
/// — a driver can map ordinal `i` straight to the id returned by the
/// `i`-th subscribe.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    /// Register a new subscription (gets the next birth ordinal).
    Subscribe {
        /// Node hosting the new subscription.
        node: NodeId,
        /// Its interest rectangle.
        rect: Rect,
    },
    /// Remove the subscription with this birth ordinal.
    Unsubscribe {
        /// Birth ordinal of the victim.
        target: usize,
    },
    /// Replace the rectangle of the subscription with this ordinal.
    Resubscribe {
        /// Birth ordinal of the subscription changing interest.
        target: usize,
        /// Its new rectangle.
        rect: Rect,
    },
}

/// One epoch of the storm: churn first, then events, under whatever
/// network state the epoch's faults produce.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEpoch {
    /// Churn ops to apply before this epoch's rebalance.
    pub churn: Vec<ChurnOp>,
    /// Events published during the epoch.
    pub events: Vec<Event>,
}

/// Shape parameters of a generated [`ChaosScenario`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of epochs (also forced onto the fault model).
    pub epochs: usize,
    /// Churn ops drawn per epoch.
    pub churn_per_epoch: usize,
    /// Events drawn per epoch.
    pub events_per_epoch: usize,
    /// Among churn ops: probability a given op is a fresh subscribe
    /// (the remainder splits evenly between unsubscribe and
    /// resubscribe of a live subscription).
    pub subscribe_fraction: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            epochs: 6,
            churn_per_epoch: 12,
            events_per_epoch: 40,
            subscribe_fraction: 0.4,
        }
    }
}

/// A fully materialized, seed-deterministic chaos storm.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// The initial (pre-storm) subscription population.
    pub initial: Vec<Subscription>,
    /// Event-space bounds every rectangle and event point lies in.
    pub bounds: Rect,
    /// The epoch stream.
    pub epochs: Vec<ChaosEpoch>,
    /// The fault storm, with exactly `epochs.len()` epochs.
    pub faults: FaultSchedule,
    /// The seed everything was derived from.
    pub seed: u64,
}

/// A random sub-rectangle of `bounds` (positive volume in every
/// dimension).
fn random_rect(bounds: &Rect, rng: &mut StdRng) -> Rect {
    Rect::new(
        bounds
            .intervals()
            .iter()
            .map(|iv| {
                let a = rng.gen_range(iv.lo()..iv.hi());
                let b = rng.gen_range(iv.lo()..iv.hi());
                Interval::from_unordered(a, b)
            })
            .collect(),
    )
}

/// A uniform random point inside `bounds`.
fn random_point(bounds: &Rect, rng: &mut StdRng) -> Point {
    Point::new(
        bounds
            .intervals()
            .iter()
            .map(|iv| rng.gen_range(iv.lo()..iv.hi()))
            .collect(),
    )
}

impl ChaosScenario {
    /// Generates a scenario over `base`'s event space and `topo`'s
    /// nodes: the base workload's subscriptions form the initial
    /// population, churn and events are drawn uniformly from the base
    /// bounds, and `model` (with its epoch count overridden to
    /// `config.epochs`) drives the fault schedule. Deterministic in
    /// `seed`.
    ///
    /// Unsubscribe/resubscribe ops only ever target ordinals that are
    /// still live *by user churn* at that point in the stream; a
    /// driver layering crash-forced unsubscribes on top must therefore
    /// tolerate already-gone targets (the service counts them as
    /// rejected ops).
    pub fn generate(
        topo: &Topology,
        base: &Workload,
        model: &FaultModel,
        config: &ChaosConfig,
        seed: u64,
    ) -> ChaosScenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = topo.graph().nodes().collect();
        let mut model = model.clone();
        model.epochs = config.epochs.max(1);
        let faults = FaultSchedule::random(topo.graph(), &model, seed);

        // Live-by-churn tracking over birth ordinals.
        let mut alive: Vec<usize> = (0..base.subscriptions.len()).collect();
        let mut born = base.subscriptions.len();

        let epochs = (0..model.epochs)
            .map(|_| {
                let mut churn = Vec::with_capacity(config.churn_per_epoch);
                for _ in 0..config.churn_per_epoch {
                    let fresh =
                        alive.len() < 2 || rng.gen_bool(config.subscribe_fraction.clamp(0.0, 1.0));
                    if fresh {
                        let node = nodes[rng.gen_range(0..nodes.len())];
                        churn.push(ChurnOp::Subscribe {
                            node,
                            rect: random_rect(&base.bounds, &mut rng),
                        });
                        alive.push(born);
                        born += 1;
                    } else if rng.gen_bool(0.5) {
                        let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
                        churn.push(ChurnOp::Unsubscribe { target: victim });
                    } else {
                        let target = alive[rng.gen_range(0..alive.len())];
                        churn.push(ChurnOp::Resubscribe {
                            target,
                            rect: random_rect(&base.bounds, &mut rng),
                        });
                    }
                }
                let events = (0..config.events_per_epoch)
                    .map(|_| Event {
                        publisher: nodes[rng.gen_range(0..nodes.len())],
                        point: random_point(&base.bounds, &mut rng),
                    })
                    .collect();
                ChaosEpoch { churn, events }
            })
            .collect();

        ChaosScenario {
            initial: base.subscriptions.clone(),
            bounds: base.bounds.clone(),
            epochs,
            faults,
            seed,
        }
    }

    /// Total events across all epochs.
    pub fn total_events(&self) -> usize {
        self.epochs.iter().map(|e| e.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TransitStubParams;

    fn base() -> (Topology, Workload) {
        let mut rng = StdRng::seed_from_u64(77);
        let topo = Topology::generate(
            &TransitStubParams {
                transit_blocks: 2,
                transit_nodes_per_block: 2,
                stubs_per_transit: 2,
                nodes_per_stub: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let model = crate::Section3Model {
            regionalism: 0.4,
            dist: crate::PredicateDist::Uniform,
            num_subscriptions: 40,
            num_events: 10,
        };
        let w = model.generate(&topo, &mut rng);
        (topo, w)
    }

    #[test]
    fn same_seed_same_storm() {
        let (topo, w) = base();
        let model = FaultModel {
            node_crash: 0.2,
            ..FaultModel::default()
        };
        let cfg = ChaosConfig::default();
        let a = ChaosScenario::generate(&topo, &w, &model, &cfg, 123);
        let b = ChaosScenario::generate(&topo, &w, &model, &cfg, 123);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.faults.num_epochs(), b.faults.num_epochs());
        for e in 0..a.faults.num_epochs() {
            assert_eq!(a.faults.faults_at(e), b.faults.faults_at(e));
        }
        let c = ChaosScenario::generate(&topo, &w, &model, &cfg, 124);
        assert_ne!(a.epochs, c.epochs, "different seeds should differ");
    }

    #[test]
    fn storm_shape_matches_config() {
        let (topo, w) = base();
        let cfg = ChaosConfig {
            epochs: 4,
            churn_per_epoch: 7,
            events_per_epoch: 9,
            subscribe_fraction: 0.5,
        };
        let s = ChaosScenario::generate(&topo, &w, &FaultModel::default(), &cfg, 9);
        assert_eq!(s.epochs.len(), 4);
        assert_eq!(s.faults.num_epochs(), 4);
        assert!(s.epochs.iter().all(|e| e.churn.len() == 7));
        assert_eq!(s.total_events(), 36);
        assert_eq!(s.initial.len(), w.subscriptions.len());
        for e in &s.epochs {
            for ev in &e.events {
                assert!(s.bounds.contains(&ev.point));
            }
        }
    }

    /// Churn is self-consistent: no op targets an ordinal that user
    /// churn already removed, and every target was actually born.
    #[test]
    fn churn_targets_are_live_ordinals() {
        let (topo, w) = base();
        let cfg = ChaosConfig {
            epochs: 8,
            churn_per_epoch: 20,
            events_per_epoch: 1,
            subscribe_fraction: 0.3,
        };
        let s = ChaosScenario::generate(&topo, &w, &FaultModel::default(), &cfg, 5);
        let mut born = s.initial.len();
        let mut live: Vec<bool> = vec![true; born];
        for epoch in &s.epochs {
            for op in &epoch.churn {
                match op {
                    ChurnOp::Subscribe { .. } => {
                        live.push(true);
                        born += 1;
                    }
                    ChurnOp::Unsubscribe { target } => {
                        assert!(live[*target], "unsubscribe of dead ordinal");
                        live[*target] = false;
                    }
                    ChurnOp::Resubscribe { target, .. } => {
                        assert!(live[*target], "resubscribe of dead ordinal");
                    }
                }
            }
        }
        assert_eq!(live.len(), born);
    }
}
