//! The preliminary-analysis workload of Section 3 of the paper.
//!
//! Events live in 4 dimensions. Dimension 0 is the *regional attribute*:
//! every publication carries the identifier of its originating stub, and
//! a subscription constrains it to the subscriber's own stub with
//! probability equal to the *degree of regionalism* (0.4 in Table 1,
//! 0 in Table 2). The other three attributes take integer values in
//! 0..=20 with either uniform or gaussian predicates per the parameter
//! table in Section 3.

use geometry::{Interval, Point, Rect};
use netsim::Topology;
use rand::Rng;

use crate::dist::{Normal, Pareto};
use crate::placement::uniform_stub_placement;
use crate::types::{Event, Subscription, Workload};

/// Shape of the value predicates on dimensions 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateDist {
    /// Predicate present with probability `0.98 · 0.78^(d-1)`, interval
    /// ends drawn uniformly from `[0, 20]`.
    Uniform,
    /// Per-dimension `(q1, q2, q3, one-sided, center, length)` parameters
    /// from the Section 3 table (simulating stock name / price / volume).
    Gaussian,
}

/// One row of the Section 3 gaussian parameter table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GaussianRow {
    /// Probability of a `*` (don't-care) predicate.
    q1: f64,
    /// Probability of a left-ended interval `(n, +inf)`.
    q2: f64,
    /// Probability of a right-ended interval `(-inf, n]`.
    q3: f64,
    /// End of a left-ended interval.
    left_end: Normal,
    /// End of a right-ended interval.
    right_end: Normal,
    /// Center of a two-sided interval.
    center: Normal,
    /// Scale `c` of the Pareto-like length of a two-sided interval.
    ///
    /// The paper's table labels this column "mean"; its Section 5.1
    /// counterpart uses `(c, α) = (4, 1)`, and a shape-1 Pareto has no
    /// finite mean — so we read the column as the scale of a shape-1
    /// Pareto (capped at the domain width), which also reproduces the
    /// paper's observation that gaussian workloads match *more* events
    /// than uniform ones.
    length_scale: f64,
}

/// The three gaussian rows of the paper's table (dimensions 1, 2, 3).
fn gaussian_rows() -> [GaussianRow; 3] {
    [
        GaussianRow {
            q1: 0.1,
            q2: 0.0,
            q3: 0.0,
            left_end: Normal::new(8.0, 2.0),
            right_end: Normal::new(10.0, 2.0),
            center: Normal::new(9.0, 6.0),
            length_scale: 1.0,
        },
        GaussianRow {
            q1: 0.15,
            q2: 0.1,
            q3: 0.1,
            left_end: Normal::new(8.0, 1.0),
            right_end: Normal::new(10.0, 1.0),
            center: Normal::new(9.0, 2.0),
            length_scale: 4.0,
        },
        GaussianRow {
            q1: 0.35,
            q2: 0.1,
            q3: 0.1,
            left_end: Normal::new(8.0, 1.0),
            right_end: Normal::new(10.0, 1.0),
            center: Normal::new(9.0, 2.0),
            length_scale: 4.0,
        },
    ]
}

/// The Section 3 workload model.
///
/// # Examples
///
/// ```
/// use netsim::{Topology, TransitStubParams};
/// use rand::{rngs::StdRng, SeedableRng};
/// use workload::{PredicateDist, Section3Model};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
/// let model = Section3Model {
///     regionalism: 0.4,
///     dist: PredicateDist::Uniform,
///     num_subscriptions: 100,
///     num_events: 50,
/// };
/// let w = model.generate(&topo, &mut rng);
/// assert_eq!(w.subscriptions.len(), 100);
/// assert_eq!(w.events.len(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Section3Model {
    /// Degree of regionalism: the probability that a subscription pins
    /// the regional attribute to the subscriber's own stub.
    pub regionalism: f64,
    /// Shape of the value predicates.
    pub dist: PredicateDist,
    /// Number of subscriptions to generate.
    pub num_subscriptions: usize,
    /// Number of publication events to generate.
    pub num_events: usize,
}

/// Value attributes take integer values 0..=20.
const VALUE_MAX: f64 = 20.0;

impl Section3Model {
    /// Generates the workload on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if `regionalism` is outside `[0, 1]` or the topology has
    /// no stub nodes.
    pub fn generate(&self, topo: &Topology, rng: &mut impl Rng) -> Workload {
        assert!(
            (0.0..=1.0).contains(&self.regionalism),
            "regionalism must be a probability"
        );
        let num_stubs = topo.stubs().len();
        let rows = gaussian_rows();

        // Subscribers placed uniformly on stub nodes.
        let nodes = uniform_stub_placement(topo, self.num_subscriptions, rng);
        let mut subscriptions = Vec::with_capacity(self.num_subscriptions);
        for node in nodes {
            let own_stub = topo.stub_of(node).expect("placement returns stub nodes");
            let mut ivs = Vec::with_capacity(4);
            // Dimension 0: regional attribute.
            if rng.gen_bool(self.regionalism) {
                ivs.push(Interval::equals_int(own_stub.index() as i64));
            } else {
                ivs.push(Interval::all());
            }
            // Dimensions 1..=3: value predicates.
            for (d, row) in rows.iter().enumerate().take(3) {
                let iv = match self.dist {
                    PredicateDist::Uniform => {
                        // Present with probability 0.98 · 0.78^d.
                        let p = 0.98 * 0.78f64.powi(d as i32);
                        if rng.gen_bool(p) {
                            let a = rng.gen_range(0.0..=VALUE_MAX);
                            let b = rng.gen_range(0.0..=VALUE_MAX);
                            Interval::from_unordered(a, b)
                        } else {
                            Interval::all()
                        }
                    }
                    PredicateDist::Gaussian => {
                        let u: f64 = rng.gen();
                        if u < row.q1 {
                            Interval::all()
                        } else if u < row.q1 + row.q2 {
                            Interval::greater_than(row.left_end.sample(rng))
                        } else if u < row.q1 + row.q2 + row.q3 {
                            Interval::at_most(row.right_end.sample(rng))
                        } else {
                            let c = row.center.sample(rng);
                            let len = Pareto::new(row.length_scale, 1.0)
                                .expect("positive scale")
                                .sample_capped(rng, VALUE_MAX);
                            Interval::from_unordered(c - len / 2.0, c + len / 2.0)
                        }
                    }
                };
                ivs.push(iv);
            }
            subscriptions.push(Subscription {
                node,
                rect: Rect::new(ivs),
            });
        }

        // Events: published from a uniform random stub node; dimension 0
        // is the originating stub id; value dimensions are integers,
        // uniform or gaussian to match the subscription peaks (the
        // paper's stated assumption that publication density follows
        // subscription density).
        let publishers = uniform_stub_placement(topo, self.num_events, rng);
        let value_normal = Normal::new(9.0, 3.0);
        let events = publishers
            .into_iter()
            .map(|publisher| {
                let stub = topo.stub_of(publisher).expect("publisher is a stub node");
                let mut coords = Vec::with_capacity(4);
                coords.push(stub.index() as f64);
                for _ in 0..3 {
                    let v = match self.dist {
                        PredicateDist::Uniform => rng.gen_range(0..=VALUE_MAX as i64) as f64,
                        PredicateDist::Gaussian => {
                            value_normal.sample_clamped(rng, 0.0, VALUE_MAX).round()
                        }
                    };
                    coords.push(v);
                }
                Event {
                    publisher,
                    point: Point::new(coords),
                }
            })
            .collect();

        // Grid bounds: one bin per stub id on dimension 0 (half-open
        // (-1, num_stubs-1] covers ids 0..num_stubs), one bin per integer
        // value on dimensions 1..=3 ((-1, 20] covers 0..=20).
        let bounds = Rect::new(vec![
            Interval::new(-1.0, num_stubs as f64 - 1.0).expect("valid bounds"),
            Interval::new(-1.0, VALUE_MAX).expect("valid bounds"),
            Interval::new(-1.0, VALUE_MAX).expect("valid bounds"),
            Interval::new(-1.0, VALUE_MAX).expect("valid bounds"),
        ]);
        let suggested_bins = vec![num_stubs, 21, 21, 21];

        Workload {
            bounds,
            suggested_bins,
            subscriptions,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TransitStubParams;
    use rand::prelude::*;

    fn topo() -> Topology {
        Topology::generate(
            &TransitStubParams::paper_100_nodes(),
            &mut StdRng::seed_from_u64(1),
        )
    }

    fn model(regionalism: f64, dist: PredicateDist) -> Section3Model {
        Section3Model {
            regionalism,
            dist,
            num_subscriptions: 400,
            num_events: 100,
        }
    }

    #[test]
    fn sizes_and_dims() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(2);
        let w = model(0.4, PredicateDist::Uniform).generate(&t, &mut rng);
        assert_eq!(w.subscriptions.len(), 400);
        assert_eq!(w.events.len(), 100);
        assert_eq!(w.bounds.dim(), 4);
        for s in &w.subscriptions {
            assert_eq!(s.rect.dim(), 4);
        }
        for e in &w.events {
            assert_eq!(e.point.dim(), 4);
        }
    }

    #[test]
    fn zero_regionalism_leaves_dim0_unconstrained() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(3);
        let w = model(0.0, PredicateDist::Uniform).generate(&t, &mut rng);
        for s in &w.subscriptions {
            assert_eq!(*s.rect.interval(0), Interval::all());
        }
    }

    #[test]
    fn regionalism_pins_dim0_to_own_stub() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(4);
        let w = model(1.0, PredicateDist::Uniform).generate(&t, &mut rng);
        for s in &w.subscriptions {
            let stub = t.stub_of(s.node).unwrap();
            let iv = s.rect.interval(0);
            assert!(iv.contains(stub.index() as f64));
            assert_eq!(iv.length(), 1.0);
        }
    }

    #[test]
    fn regionalism_fraction_close_to_parameter() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(5);
        let m = Section3Model {
            num_subscriptions: 5000,
            ..model(0.4, PredicateDist::Uniform)
        };
        let w = m.generate(&t, &mut rng);
        let regional = w
            .subscriptions
            .iter()
            .filter(|s| s.rect.interval(0).is_bounded())
            .count();
        let frac = regional as f64 / 5000.0;
        assert!((frac - 0.4).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    fn uniform_predicate_presence_rates() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(6);
        let m = Section3Model {
            num_subscriptions: 5000,
            ..model(0.0, PredicateDist::Uniform)
        };
        let w = m.generate(&t, &mut rng);
        // Dimension 1 specified with p = 0.98, dimension 3 with
        // p = 0.98·0.78² ≈ 0.596.
        let frac_d = |d: usize| {
            w.subscriptions
                .iter()
                .filter(|s| *s.rect.interval(d) != Interval::all())
                .count() as f64
                / 5000.0
        };
        assert!((frac_d(1) - 0.98).abs() < 0.02, "dim1 {}", frac_d(1));
        assert!((frac_d(3) - 0.596).abs() < 0.03, "dim3 {}", frac_d(3));
    }

    #[test]
    fn gaussian_predicates_have_expected_shapes() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(7);
        let m = Section3Model {
            num_subscriptions: 5000,
            ..model(0.0, PredicateDist::Gaussian)
        };
        let w = m.generate(&t, &mut rng);
        // Dimension 1 has q2 = q3 = 0: no one-sided intervals.
        for s in &w.subscriptions {
            let iv = s.rect.interval(1);
            let one_sided = (iv.lo().is_infinite() && iv.hi().is_finite())
                || (iv.lo().is_finite() && iv.hi().is_infinite());
            assert!(!one_sided, "dim1 must be * or two-sided, got {iv}");
        }
        // Dimension 3 has q1 = 0.35 don't-cares.
        let stars = w
            .subscriptions
            .iter()
            .filter(|s| *s.rect.interval(3) == Interval::all())
            .count() as f64
            / 5000.0;
        assert!((stars - 0.35).abs() < 0.03, "dim3 stars {stars}");
    }

    #[test]
    fn events_carry_origin_stub_and_fall_in_bounds() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(8);
        let w = model(0.4, PredicateDist::Gaussian).generate(&t, &mut rng);
        for e in &w.events {
            let stub = t.stub_of(e.publisher).unwrap();
            assert_eq!(e.point[0], stub.index() as f64);
            assert!(
                w.bounds.contains(&e.point),
                "event {} out of bounds",
                e.point
            );
        }
    }

    #[test]
    fn regional_events_match_regional_subscribers_in_same_stub() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(9);
        // Full regionalism + always-present dim0 predicate: an event can
        // only interest subscribers in its own stub.
        let w = model(1.0, PredicateDist::Uniform).generate(&t, &mut rng);
        let mut matched = Vec::new();
        for e in &w.events {
            let origin = t.stub_of(e.publisher).unwrap();
            w.matching_into(&e.point, &mut matched);
            for &i in &matched {
                let node = w.subscriptions[i].node;
                assert_eq!(t.stub_of(node), Some(origin));
            }
        }
    }
}
