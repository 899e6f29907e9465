//! Zipf-head near-duplicate subscription populations.
//!
//! At million-subscriber scale real content-based systems see heavy
//! repetition: most subscribers pick from a catalogue of popular
//! interest specifications ("all tech stocks", "quotes above 50"),
//! with a long tail of bespoke rectangles. [`NearDupModel`] reproduces
//! that shape: a pool of `distinct` template rectangles is drawn once,
//! then each of `population` subscribers picks a template with
//! Zipf(1.1) popularity — so the realized population contains many
//! *bit-identical* copies of the head templates, which is exactly what
//! subscription aggregation exploits.

use geometry::{Interval, Point, Rect};
use netsim::NodeId;
use rand::prelude::*;

use crate::dist::{DistError, Pareto, Zipf};
use crate::types::{Event, Subscription, Workload};

/// Extent of every attribute domain: `[0, DOMAIN]`.
const DOMAIN: f64 = 100.0;
/// Zipf exponent over template popularity.
const ALPHA: f64 = 1.1;

/// A near-duplicate population generator (see the module docs).
///
/// # Examples
///
/// ```
/// use workload::NearDupModel;
///
/// let model = NearDupModel::new(10_000, 200, 2, 42)?;
/// let w = model.generate(1_000);
/// assert_eq!(w.subscriptions.len(), 10_000);
/// assert_eq!(w.events.len(), 1_000);
/// # Ok::<(), workload::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NearDupModel {
    population: usize,
    distinct: usize,
    dim: usize,
    zipf: Zipf,
    lengths: Pareto,
    seed: u64,
}

impl NearDupModel {
    /// Creates a model producing `population` subscriptions drawn from
    /// a pool of `distinct` template rectangles in `dim` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptySupport`] when `distinct == 0`.
    pub fn new(
        population: usize,
        distinct: usize,
        dim: usize,
        seed: u64,
    ) -> Result<Self, DistError> {
        assert!(dim > 0, "event space needs at least one dimension");
        Ok(NearDupModel {
            population,
            distinct,
            dim,
            zipf: Zipf::new(distinct, ALPHA)?,
            // Mean half-length 5 on a 0..100 domain: selective rects.
            lengths: Pareto::with_mean(5.0)?,
            seed,
        })
    }

    /// The finite event-space bounds (`[0, 100]` per dimension).
    pub fn bounds(&self) -> Rect {
        Rect::new(
            (0..self.dim)
                .map(|_| Interval::new(0.0, DOMAIN).expect("static bounds"))
                .collect(),
        )
    }

    /// One template rectangle: uniform center, Pareto-capped
    /// half-length per dimension, clipped to the domain.
    fn template(&self, rng: &mut StdRng) -> Rect {
        Rect::new(
            (0..self.dim)
                .map(|_| {
                    let center: f64 = rng.gen_range(1.0..DOMAIN - 1.0);
                    let half = self.lengths.sample_capped(rng, DOMAIN / 2.0).max(0.5);
                    let lo = (center - half).max(0.0);
                    let hi = (center + half).min(DOMAIN);
                    Interval::new(lo, hi).expect("half >= 0.5 keeps lo < hi")
                })
                .collect(),
        )
    }

    /// Generates the population and a uniform event stream.
    ///
    /// Subscribers picking the same template share its rectangle
    /// bit-for-bit. Nodes are assigned round-robin over
    /// `population.isqrt().max(1)` stubs so several subscribers share
    /// each node, as in the paper's stub-level placement.
    pub fn generate(&self, num_events: usize) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let templates: Vec<Rect> = (0..self.distinct)
            .map(|_| self.template(&mut rng))
            .collect();
        let num_nodes = (self.population as f64).sqrt() as usize;
        let num_nodes = num_nodes.max(1);
        let subscriptions: Vec<Subscription> = (0..self.population)
            .map(|i| {
                let rank = self.zipf.sample(&mut rng);
                Subscription {
                    node: NodeId(i % num_nodes),
                    rect: templates[rank - 1].clone(),
                }
            })
            .collect();
        let events: Vec<Event> = (0..num_events)
            .map(|i| Event {
                publisher: NodeId(i % num_nodes),
                point: Point::new((0..self.dim).map(|_| rng.gen_range(0.0..DOMAIN)).collect()),
            })
            .collect();
        Workload {
            bounds: self.bounds(),
            suggested_bins: vec![32; self.dim],
            subscriptions,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn key(r: &Rect) -> Vec<(u64, u64)> {
        r.intervals()
            .iter()
            .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
            .collect()
    }

    #[test]
    fn population_and_events_have_requested_sizes() {
        let w = NearDupModel::new(5_000, 100, 2, 1).unwrap().generate(500);
        assert_eq!(w.subscriptions.len(), 5_000);
        assert_eq!(w.events.len(), 500);
        assert_eq!(w.dim(), 2);
    }

    #[test]
    fn realized_distinct_count_is_bounded_by_pool() {
        let w = NearDupModel::new(20_000, 250, 2, 2).unwrap().generate(0);
        let mut counts: HashMap<Vec<(u64, u64)>, usize> = HashMap::new();
        for s in &w.subscriptions {
            *counts.entry(key(&s.rect)).or_insert(0) += 1;
        }
        assert!(counts.len() <= 250, "realized {} distinct", counts.len());
        // Zipf head: the most popular template dominates — it should
        // hold far more than the uniform share of 20000/250 = 80.
        let max = counts.values().copied().max().unwrap();
        assert!(max > 800, "head template only has {max} copies");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = NearDupModel::new(1_000, 50, 3, 9).unwrap();
        let a = m.generate(100);
        let b = m.generate(100);
        assert_eq!(a.subscriptions, b.subscriptions);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn rects_and_events_stay_inside_bounds() {
        let w = NearDupModel::new(2_000, 64, 2, 3).unwrap().generate(2_000);
        for s in &w.subscriptions {
            for iv in s.rect.intervals() {
                assert!(iv.lo() >= 0.0 && iv.hi() <= DOMAIN && iv.lo() < iv.hi());
            }
        }
        for e in &w.events {
            assert!(w.bounds.contains(&e.point));
        }
    }

    #[test]
    fn empty_pool_is_rejected() {
        assert!(NearDupModel::new(10, 0, 2, 1).is_err());
    }
}
