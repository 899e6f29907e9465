//! The one test oracle every serve path answers to: a brute-force
//! `Rect::contains` scan over the subscription slots, fed to the
//! paper-literal Figure 5 matcher ([`GridMatcher::match_event`]) — plus
//! the No-Loss reference selection and the generators the equivalence
//! suites share.
//!
//! A directory module, so cargo builds no test target of its own: each
//! suite pulls it in with `mod oracle;` (`tests/parallel_determinism.rs`
//! through `#[path]`) and uses only part of it.

#![allow(dead_code)]

use geometry::{Grid, Interval, Point, Rect};
use proptest::prelude::*;
use pubsub_core::{
    BitSet, CellProbability, Clustering, ClusteringAlgorithm, Delivery, GridFramework, GridMatcher,
    KMeans, KMeansVariant, MstClustering, NoLossClustering, PairsStrategy, PairwiseGrouping,
};

/// Random interval inside (0, 20], sometimes unbounded.
pub fn interval_strategy() -> impl Strategy<Value = Interval> {
    prop_oneof![
        3 => (0.0..20.0f64, 0.0..20.0f64).prop_map(|(a, b)| Interval::from_unordered(a, b)),
        1 => (0.0..20.0f64).prop_map(Interval::greater_than),
        1 => (0.0..20.0f64).prop_map(Interval::at_most),
        1 => Just(Interval::all()),
    ]
}

pub fn rect_strategy() -> impl Strategy<Value = Rect> {
    prop::collection::vec(interval_strategy(), 2).prop_map(Rect::new)
}

/// Points both on- and off-grid (the grid covers (0, 20]).
pub fn point_strategy() -> impl Strategy<Value = Point> {
    prop::collection::vec(-1.0..22.0f64, 2).prop_map(Point::new)
}

/// All five grid clustering algorithms of the paper.
pub fn algorithms() -> Vec<Box<dyn ClusteringAlgorithm>> {
    vec![
        Box::new(KMeans::new(KMeansVariant::MacQueen)),
        Box::new(KMeans::new(KMeansVariant::Forgy)),
        Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
        Box::new(PairwiseGrouping::new(PairsStrategy::Approximate {
            seed: 9,
        })),
        Box::new(MstClustering::new()),
    ]
}

/// The framework over the 10 × 10 grid of (0, 20]² the generators
/// above draw for, with uniform cell probabilities.
pub fn build_framework(subs: &[Rect], max_cells: Option<usize>) -> GridFramework {
    let grid = Grid::cube(0.0, 20.0, 2, 10).unwrap();
    let probs = CellProbability::uniform(&grid);
    GridFramework::build(grid, subs, &probs, max_cells)
}

/// A subscription slot: a live rectangle, or a tombstone that never
/// matches (what [`pubsub_core::DynamicClustering::subscription_slots`]
/// holds for an unsubscribed id).
pub trait Slot {
    fn rect(&self) -> Option<&Rect>;
}

impl Slot for Rect {
    fn rect(&self) -> Option<&Rect> {
        Some(self)
    }
}

impl Slot for Option<Rect> {
    fn rect(&self) -> Option<&Rect> {
        self.as_ref()
    }
}

/// The interested set of `p`: every slot whose rectangle contains it.
pub fn interested<S: Slot>(slots: &[S], p: &Point) -> BitSet {
    BitSet::from_members(
        slots.len(),
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rect().is_some_and(|r| r.contains(p)))
            .map(|(i, _)| i),
    )
}

/// The decision of §4.6 (Figure 5) for `p`, and the interested set it
/// was made over: the brute-force scan fed to the paper-literal matcher.
pub fn decide<S: Slot>(
    fw: &GridFramework,
    clustering: &Clustering,
    threshold: f64,
    slots: &[S],
    p: &Point,
) -> (Delivery, BitSet) {
    let set = interested(slots, p);
    let decision = GridMatcher::new(fw, clustering)
        .with_threshold(threshold)
        .match_event(p, &set);
    (decision, set)
}

/// The No-Loss selection for `p`: among the regions containing it, the
/// one with the most members, then the most weight, then the lowest
/// index.
pub fn noloss_reference(nl: &NoLossClustering, p: &Point) -> Option<usize> {
    nl.regions()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.rect.contains(p))
        .max_by(|(a, ra), (b, rb)| {
            ra.subscribers
                .count()
                .cmp(&rb.subscribers.count())
                .then_with(|| {
                    ra.weight
                        .partial_cmp(&rb.weight)
                        .expect("weight is never NaN")
                })
                .then(b.cmp(a))
        })
        .map(|(i, _)| i)
}

/// Candidate counts either side of every power of two a sweep could be
/// unrolled by, plus the benchmark's dense slot (175).
pub const SLOT_SIZES: [usize; 18] = [
    0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 175,
];

/// The grid of the edge population: 4 cells per dimension over (-2, 2].
pub fn edge_grid(dim: usize) -> Grid {
    Grid::cube(-2.0, 2.0, dim, 4).unwrap()
}

/// Candidate `j`'s interval on dimension `d`: bounded, `greater_than`,
/// `at_most` and `all` in turn, every one of them meeting the
/// target cell `(-1, 0]` and every bound exactly representable.
fn edge_interval(j: usize, d: usize) -> Interval {
    const LO: [f64; 4] = [-0.75, -1.0, -0.5, -1.5];
    const HI: [f64; 4] = [-0.25, 0.0, 0.5, -0.375];
    let pick = j / 4 + d;
    match (j + d) % 4 {
        0 => Interval::new(LO[pick % 4], HI[(pick / 4) % 4]).unwrap(),
        1 => Interval::greater_than(LO[pick % 4]),
        2 => Interval::at_most(HI[pick % 4]),
        _ => Interval::all(),
    }
}

/// `n` candidates of the target cell `(-1, 0]^dim`. An empty target
/// cell is not kept (the R-tree fallback serves it), so for `n == 0`
/// the population lives in another cell.
pub fn edge_population(dim: usize, n: usize) -> Vec<Rect> {
    if n == 0 {
        vec![Rect::new(vec![Interval::new(1.25, 1.75).unwrap(); dim]); 3]
    } else {
        (0..n)
            .map(|j| Rect::new((0..dim).map(|d| edge_interval(j, d)).collect()))
            .collect()
    }
}

/// Events around everything a candidate bound or the grid can be
/// compared with: each value, moved along one dimension at a time
/// while the others sit inside or on the upper edge of the target cell;
/// then the same value on every dimension at once.
pub fn edge_events(dim: usize) -> Vec<Point> {
    let mut values = vec![
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0,
        0.0,
        // off-grid, and interior points of each cell
        -3.0,
        2.5,
        -1.3,
        -0.6,
        -0.3,
        0.7,
        1.9,
    ];
    // Every candidate bound and every cell edge of the grid over
    // (-2, 2], each with its two neighbouring floats.
    for on in [
        -2.0, -1.5, -1.0, -0.75, -0.5, -0.375, -0.25, 0.0, 0.5, 1.0, 2.0,
    ] {
        values.extend([on, f64::next_up(on), f64::next_down(on)]);
    }
    let others = [-0.5, 0.0, -0.875, -0.25];
    let mut events = Vec::new();
    for &v in &values {
        for d in 0..dim {
            for shift in 0..others.len() {
                let coords = (0..dim)
                    .map(|e| {
                        if e == d {
                            v
                        } else {
                            others[(shift + e) % others.len()]
                        }
                    })
                    .collect();
                events.push(Point::new(coords));
            }
        }
        events.push(Point::new(vec![v; dim]));
    }
    events
}
