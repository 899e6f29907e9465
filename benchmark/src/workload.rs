//! The four workloads and their seeded inputs.
//!
//! Every workload is a 2-D population on `[0,1]²` with 30 % of the
//! rectangle corners and event points in the hot corner `[0,0.2]²`.
//! Inputs are a pure function of `(seed, spec, scale)`: the program
//! under test only ever sees the generated rectangles, points and
//! churn ops.

use geometry::{Grid, Interval, Point, Rect};
use pubsub_core::CellProbability;
use rand::prelude::*;

/// Outstanding events of the closed-loop publisher; equals the
/// service's `queue_depth`, so `offer` never blocks on a full queue.
pub const WINDOW: usize = 1024;
/// Side of the hot corner and the share of corners/points drawn in it.
const HOT_SIDE: f64 = 0.2;
const HOT_SHARE: f64 = 0.3;

/// One workload: the parameters of its three phases.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One sentence: what this workload stresses and what it bypasses.
    pub why: &'static str,
    /// Grid bins per dimension.
    pub grid: usize,
    /// Initial subscriptions.
    pub n: usize,
    /// Rectangle side-length range (per dimension).
    pub side: (f64, f64),
    /// `Some(t)`: half the population is drawn Zipf(0.5) from `t`
    /// shared templates (bit-identical duplicates).
    pub templates: Option<usize>,
    /// Multicast groups.
    pub k: usize,
    /// Figure 5 multicast threshold.
    pub threshold: f64,
    /// Events in the pool every phase cycles through; event `id` of a
    /// serve round is pool event `id % pool`.
    pub pool: usize,
    /// Timed windows per serve round.
    pub windows_per_round: usize,
    /// Swaps per block.
    pub swaps_per_block: usize,
    /// Churn ops per swap, as a share of `n`.
    pub batch_share: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "serve-sparse",
        why: "~5 interested/event on a 32x32 grid: queue hand-off and record push dominate per-event time, the kernel is small; a service-loop change shows here, a kernel change does not",
        grid: 32,
        n: 2000,
        side: (0.01, 0.05),
        templates: None,
        k: 128,
        threshold: 0.05,
        pool: 1 << 16,
        windows_per_round: 512,
        swaps_per_block: 16,
        batch_share: 0.01,
    },
    Spec {
        name: "serve-dense",
        why: "~120 interested/event, half the population Zipf duplicates: DispatchPlan::serve dominates per-event time, the queue is small; aggregation does real work here and none on serve-sparse",
        grid: 16,
        n: 1000,
        side: (0.25, 0.65),
        templates: Some(64),
        k: 16,
        threshold: 0.15,
        pool: 1 << 16,
        windows_per_round: 320,
        swaps_per_block: 50,
        batch_share: 0.01,
    },
    Spec {
        name: "swap-trickle",
        why: "1 % churn per swap, below the incremental dirty threshold: every swap takes the apply_delta path; incremental plan patching should show here",
        grid: 24,
        n: 3000,
        side: (0.02, 0.15),
        templates: None,
        k: 48,
        threshold: 0.10,
        pool: 1 << 16,
        windows_per_round: 512,
        swaps_per_block: 10,
        batch_share: 0.01,
    },
    Spec {
        name: "swap-bulk",
        why: "same population as swap-trickle with 50 % churn per swap: every swap falls back to the full rebuild, bypassing the incremental path; its serve phase is an A/A twin of swap-trickle's",
        grid: 24,
        n: 3000,
        side: (0.02, 0.15),
        templates: None,
        k: 48,
        threshold: 0.10,
        pool: 1 << 16,
        windows_per_round: 512,
        swaps_per_block: 8,
        batch_share: 0.50,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The `--quick` variant: a tenth of the population and a few
    /// swaps, so the self-tests finish in seconds in a debug build.
    pub fn quick(mut self) -> Spec {
        self.n /= 10;
        self.k = (self.k / 4).max(4);
        self.templates = self.templates.map(|t| t / 4);
        self.pool = 1 << 12;
        self.windows_per_round = 8;
        self.swaps_per_block = 3;
        self
    }

    pub fn batch(&self) -> usize {
        ((self.n as f64 * self.batch_share).round() as usize).max(2)
    }

    pub fn grid(&self) -> Grid {
        Grid::cube(0.0, 1.0, 2, self.grid).expect("unit square grid is valid")
    }

    /// The analytic publication density of the event generator: 70 %
    /// uniform on the unit square, 30 % uniform on the hot corner.
    pub fn probs(&self, grid: &Grid) -> CellProbability {
        let hot = Rect::new(vec![
            Interval::new(0.0, HOT_SIDE)
                .expect("hot corner is a valid interval");
            2
        ]);
        CellProbability::from_mass_fn(grid, |cell| {
            let in_hot = cell.intersection(&hot).map_or(0.0, |r| r.volume());
            (1.0 - HOT_SHARE) * cell.volume() + HOT_SHARE * in_hot / (HOT_SIDE * HOT_SIDE)
        })
    }
}

/// One churn operation with its pre-computed subscription id (slot ids
/// are assigned sequentially, so the generator knows them in advance).
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    Subscribe(Rect),
    Unsubscribe(usize),
    Resubscribe(usize, Rect),
}

/// Everything a workload feeds the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub rects: Vec<Rect>,
    pub pool: Vec<Point>,
    /// The swap-phase sequence; every block replays it from the cold
    /// state. The last op of every batch is a `Resubscribe`, so the
    /// batch always has a "last new rectangle" to probe.
    pub batches: Vec<Vec<ChurnOp>>,
}

impl Inputs {
    /// The benchmark's own copy of the population, slot by slot, for the
    /// brute-force checks.
    pub fn mirror(&self) -> Vec<Option<Rect>> {
        self.rects.iter().cloned().map(Some).collect()
    }
}

/// Independent generator streams per input kind, so `swap-bulk` (which
/// only differs in batch size) gets `swap-trickle`'s population.
fn stream(seed: u64, kind: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind)
}

fn hot_or_uniform(rng: &mut StdRng) -> (f64, f64) {
    let hi = if rng.gen_bool(HOT_SHARE) {
        HOT_SIDE
    } else {
        1.0
    };
    (rng.gen_range(0.0..hi), rng.gen_range(0.0..hi))
}

fn random_rect(rng: &mut StdRng, side: (f64, f64)) -> Rect {
    let (x, y) = hot_or_uniform(rng);
    let iv = |lo: f64, rng: &mut StdRng| {
        let hi = (lo + rng.gen_range(side.0..side.1)).min(1.0);
        Interval::new(lo, hi).expect("lo <= hi by construction")
    };
    Rect::new(vec![iv(x, rng), iv(y, rng)])
}

/// Draws rank `r` (0-based) with probability ∝ `1 / (r + 1)^0.5`.
fn zipf_rank(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u = rng.gen::<f64>() * cdf[cdf.len() - 1];
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = stream(seed, 1);
    let rects: Vec<Rect> = match spec.templates {
        None => (0..spec.n)
            .map(|_| random_rect(&mut rng, spec.side))
            .collect(),
        Some(t) => {
            let templates: Vec<Rect> = (0..t).map(|_| random_rect(&mut rng, spec.side)).collect();
            let mut acc = 0.0;
            let cdf: Vec<f64> = (1..=t)
                .map(|r| {
                    acc += (r as f64).powf(-0.5);
                    acc
                })
                .collect();
            (0..spec.n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        templates[zipf_rank(&mut rng, &cdf)].clone()
                    } else {
                        random_rect(&mut rng, spec.side)
                    }
                })
                .collect()
        }
    };

    let mut rng = stream(seed, 2);
    let pool: Vec<Point> = (0..spec.pool)
        .map(|_| {
            let (x, y) = hot_or_uniform(&mut rng);
            Point::new(vec![x, y])
        })
        .collect();

    // 50 % resubscribe, 25 % subscribe, 25 % unsubscribe of a live id.
    let mut rng = stream(seed, 3);
    let mut live: Vec<usize> = (0..spec.n).collect();
    let mut next_id = spec.n;
    let batch = spec.batch();
    let batches = (0..spec.swaps_per_block)
        .map(|_| {
            (0..batch)
                .map(|i| {
                    let kind = if i + 1 == batch {
                        0
                    } else {
                        rng.gen_range(0..4u32)
                    };
                    match kind {
                        0 | 1 => {
                            let id = live[rng.gen_range(0..live.len())];
                            ChurnOp::Resubscribe(id, random_rect(&mut rng, spec.side))
                        }
                        2 => {
                            live.push(next_id);
                            next_id += 1;
                            ChurnOp::Subscribe(random_rect(&mut rng, spec.side))
                        }
                        _ => {
                            let at = rng.gen_range(0..live.len());
                            ChurnOp::Unsubscribe(live.swap_remove(at))
                        }
                    }
                })
                .collect()
        })
        .collect();

    Inputs {
        rects,
        pool,
        batches,
    }
}

/// The benchmark's own mirror of the population: applies one batch the
/// way the service must, for the brute-force probe check.
pub fn apply_batch(mirror: &mut Vec<Option<Rect>>, batch: &[ChurnOp]) {
    for op in batch {
        match op {
            ChurnOp::Subscribe(r) => mirror.push(Some(r.clone())),
            ChurnOp::Unsubscribe(id) => mirror[*id] = None,
            ChurnOp::Resubscribe(id, r) => mirror[*id] = Some(r.clone()),
        }
    }
}

/// The probe event of a batch: the centre of its last new rectangle.
pub fn probe_of(batch: &[ChurnOp]) -> Point {
    match batch.last() {
        Some(ChurnOp::Resubscribe(_, r)) => Point::new(
            r.intervals()
                .iter()
                .map(|iv| 0.5 * (iv.lo() + iv.hi()))
                .collect(),
        ),
        _ => unreachable!("every generated batch ends with a resubscribe"),
    }
}
