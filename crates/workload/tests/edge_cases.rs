//! Edge-case coverage for the workload generators and utilities.

use netsim::{NodeId, Topology, TransitStubParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{
    prune_covered, NormalMixture, Pareto, PredicateDist, PublicationModes, Section3Model,
    StockModel, Subscription, Zipf,
};

fn topo() -> Topology {
    Topology::generate(
        &TransitStubParams::paper_100_nodes(),
        &mut StdRng::seed_from_u64(1),
    )
}

#[test]
fn zero_sized_workloads() {
    let t = topo();
    let mut rng = StdRng::seed_from_u64(2);
    let w = Section3Model {
        regionalism: 0.4,
        dist: PredicateDist::Uniform,
        num_subscriptions: 0,
        num_events: 0,
    }
    .generate(&t, &mut rng);
    assert!(w.subscriptions.is_empty());
    assert!(w.events.is_empty());
    let w = StockModel::default()
        .with_sizes(0, 0)
        .generate(&t, &mut rng);
    assert!(w.subscriptions.is_empty());
    assert!(w.events.is_empty());
}

#[test]
fn single_subscription_single_event() {
    let t = topo();
    let mut rng = StdRng::seed_from_u64(3);
    let w = StockModel::default()
        .with_sizes(1, 1)
        .generate(&t, &mut rng);
    assert_eq!(w.subscriptions.len(), 1);
    assert_eq!(w.events.len(), 1);
    // Matching either finds the one subscription or nothing.
    let mut m = Vec::new();
    w.matching_into(&w.events[0].point, &mut m);
    assert!(m.len() <= 1);
}

#[test]
fn zipf_support_one_always_returns_rank_one() {
    let z = Zipf::new(1, 1.0).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..100 {
        assert_eq!(z.sample(&mut rng), 1);
    }
}

#[test]
fn zipf_extreme_alpha_concentrates_on_rank_one() {
    let z = Zipf::new(100, 8.0).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let ones = (0..1000).filter(|_| z.sample(&mut rng) == 1).count();
    assert!(ones > 980, "alpha=8 should pin rank 1, got {ones}/1000");
}

#[test]
fn pareto_heavy_tail_still_capped() {
    let p = Pareto::new(1.0, 0.2).unwrap(); // extremely heavy tail
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..1000 {
        let x = p.sample_capped(&mut rng, 20.0);
        assert!((1.0..=20.0).contains(&x));
    }
}

#[test]
fn mixture_single_component_equals_normal() {
    let m = NormalMixture::single(5.0, 2.0);
    // Mass over (3, 7] = CDF band of N(5,2).
    let mass = m.mass(3.0, 7.0);
    assert!((mass - 0.6827).abs() < 1e-3, "mass {mass}");
}

#[test]
#[should_panic(expected = "components")]
fn mixture_rejects_empty() {
    let _ = NormalMixture::new(vec![]);
}

#[test]
fn name_sd_zero_pins_centers_to_block_means() {
    let t = Topology::generate(
        &TransitStubParams::paper_section51(),
        &mut StdRng::seed_from_u64(7),
    );
    let mut rng = StdRng::seed_from_u64(8);
    let w = StockModel::default()
        .with_sizes(300, 1)
        .with_name_sd(0.0)
        .generate(&t, &mut rng);
    for s in &w.subscriptions {
        let iv = s.rect.interval(1);
        let center = (iv.lo() + iv.hi()) / 2.0;
        let block = t.block_of(s.node);
        let expect = [3.0, 10.0, 17.0][block];
        assert!(
            (center - expect).abs() < 1e-9,
            "block {block}: center {center}"
        );
    }
}

#[test]
fn stock_nine_mode_density_mass_is_valid() {
    let d = StockModel::default()
        .with_modes(PublicationModes::Nine)
        .publication_density();
    assert_eq!(d.dim(), 4);
    // Total mass over a huge box approaches 1.
    let big = geometry::Rect::new(vec![
        geometry::Interval::new(-1e6, 1e6).unwrap(),
        geometry::Interval::new(-1e6, 1e6).unwrap(),
        geometry::Interval::new(-1e6, 1e6).unwrap(),
        geometry::Interval::new(-1e6, 1e6).unwrap(),
    ]);
    assert!((d.mass(&big) - 1.0).abs() < 1e-6);
}

#[test]
fn prune_covered_empty_and_singleton() {
    let out = prune_covered(&[]);
    assert!(out.kept.is_empty());
    assert_eq!(out.removed, 0);
    let one = vec![Subscription {
        node: NodeId(1),
        rect: geometry::Rect::new(vec![geometry::Interval::all(); 2]),
    }];
    let out = prune_covered(&one);
    assert_eq!(out.kept.len(), 1);
}

#[test]
fn wildcard_subscription_covers_everything_at_its_node() {
    let subs = vec![
        Subscription {
            node: NodeId(1),
            rect: geometry::Rect::new(vec![geometry::Interval::all(); 1]),
        },
        Subscription {
            node: NodeId(1),
            rect: geometry::Rect::new(vec![geometry::Interval::new(0.0, 5.0).unwrap()]),
        },
        Subscription {
            node: NodeId(2),
            rect: geometry::Rect::new(vec![geometry::Interval::new(0.0, 5.0).unwrap()]),
        },
    ];
    let out = prune_covered(&subs);
    assert_eq!(out.removed, 1);
    assert_eq!(out.kept.len(), 2);
    assert!(out.kept.iter().any(|s| s.node == NodeId(2)));
}

#[test]
fn regionalism_bounds_are_validated() {
    let t = topo();
    let mut rng = StdRng::seed_from_u64(9);
    let result = std::panic::catch_unwind(move || {
        Section3Model {
            regionalism: 1.5,
            dist: PredicateDist::Uniform,
            num_subscriptions: 10,
            num_events: 1,
        }
        .generate(&t, &mut rng)
    });
    assert!(result.is_err(), "regionalism > 1 must panic");
}
