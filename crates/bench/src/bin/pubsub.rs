//! `pubsub` — command-line front end to the whole pipeline: generate a
//! topology and workload, run a clustering algorithm, and report
//! delivery costs, without writing any code.
//!
//! ```text
//! pubsub topology  [--nodes 100|300|600] [--seed N]
//! pubsub baselines [--nodes ...] [--subs N] [--events N]
//!                  [--regionalism R] [--dist uniform|gaussian] [--seed N]
//! pubsub cluster   [--algorithm forgy|kmeans|mst|pairs|approx-pairs|noloss]
//!                  [--k K] [--subs N] [--events N] [--cells N]
//!                  [--modes 1|4|9] [--app|--sparse] [--threshold T] [--seed N]
//! pubsub export    [--subs-file PATH] [--events-file PATH]
//!                  [--subs N] [--events N] [--seed N]
//! pubsub replay    --subs-file PATH --events-file PATH
//!                  [--nodes 100|300|600] [--k K] [--bins B] [--seed N]
//! ```
//!
//! `export` writes a generated workload as CSV traces; `replay` runs
//! the full pipeline on externally supplied traces (the paper's
//! Section 6.3: real stock data can be fed as the event stream).
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin pubsub -- cluster --algorithm forgy --k 50
//! cargo run --release -p pubsub-bench --bin pubsub -- baselines --nodes 300 --regionalism 0.4
//! ```

use std::process::exit;

use netsim::{Topology, TransitStubParams};
use pubsub_core::{
    ClusteringAlgorithm, KMeans, KMeansVariant, MstClustering, NoLossConfig, PairsStrategy,
    PairwiseGrouping,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{Evaluator, MulticastMode, StockScenario};
use workload::{PredicateDist, PublicationModes, Section3Model, StockModel};

/// One command: the flags (`--name value`) and switches (`--name`) it
/// reads, space-separated as the module doc lists them, and what runs
/// it. `Args` rejects any other argument.
struct Command {
    name: &'static str,
    flags: &'static str,
    switches: &'static str,
    run: fn(&Args),
}

const COMMANDS: [Command; 5] = [
    Command {
        name: "topology",
        flags: "nodes seed",
        switches: "",
        run: cmd_topology,
    },
    Command {
        name: "baselines",
        flags: "nodes subs events regionalism dist seed",
        switches: "",
        run: cmd_baselines,
    },
    Command {
        name: "cluster",
        flags: "algorithm k subs events cells modes threshold seed",
        switches: "app sparse",
        run: cmd_cluster,
    },
    Command {
        name: "export",
        flags: "subs-file events-file subs events seed",
        switches: "",
        run: cmd_export,
    },
    Command {
        name: "replay",
        flags: "subs-file events-file nodes k bins seed",
        switches: "",
        run: cmd_replay,
    },
];

/// Minimal `--flag value` argument map.
struct Args {
    command: &'static Command,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`. `help` prints the usage and exits 0;
    /// an unknown command, or an argument the command does not read,
    /// exits 2.
    fn parse() -> Args {
        let mut it = std::env::args().skip(1);
        let name = it.next().unwrap_or_else(|| {
            usage();
            exit(2);
        });
        let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
            if matches!(name.as_str(), "help" | "--help" | "-h") {
                usage();
                exit(0);
            }
            eprintln!("unknown command: {name}");
            usage();
            exit(2);
        };
        let reject = |msg: String| -> ! {
            eprintln!("pubsub {name}: {msg}");
            usage();
            exit(2);
        };
        let mut flags = Vec::new();
        let mut switches = Vec::new();
        let mut rest = it.peekable();
        while let Some(arg) = rest.next() {
            let Some(key) = arg.strip_prefix("--") else {
                reject(format!("unexpected argument {arg:?}"));
            };
            let key = key.to_string();
            if command.flags.split_whitespace().any(|f| f == key) {
                match rest.next_if(|v| !v.starts_with("--")) {
                    Some(value) => flags.push((key, value)),
                    None => reject(format!("--{key} needs a value")),
                }
            } else if command.switches.split_whitespace().any(|s| s == key) {
                switches.push(key);
            } else {
                reject(format!("unknown flag --{key}"));
            }
        }
        Args {
            command,
            flags,
            switches,
        }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.flags.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                exit(2);
            }),
            None => default,
        }
    }

    /// A `--key` that must lie in `[0, 1]`: anything else, NaN
    /// included, exits 2 naming the flag.
    fn proportion(&self, key: &str, default: f64) -> f64 {
        let v: f64 = self.get(key, default);
        if !(0.0..=1.0).contains(&v) {
            eprintln!("--{key} must be in [0, 1] (got {v})");
            exit(2);
        }
        v
    }

    /// A count `--key` that must be at least 1: 0 exits 2 naming the
    /// flag (the algorithms would clamp it to 1 without a word).
    fn count(&self, key: &str, default: usize) -> usize {
        let v: usize = self.get(key, default);
        if v == 0 {
            eprintln!("--{key} must be at least 1 (got 0)");
            exit(2);
        }
        v
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_string())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

fn usage() {
    eprintln!("usage: pubsub <command> [--flag value]... [--switch]...");
    for c in &COMMANDS {
        let flags = c.flags.split_whitespace().map(|f| format!(" [--{f} V]"));
        let switches = c.switches.split_whitespace().map(|s| format!(" [--{s}]"));
        eprintln!("  {}{}", c.name, flags.chain(switches).collect::<String>());
    }
    eprintln!("run with a command and no flags for sensible defaults.");
}

fn topo_params(nodes: usize) -> TransitStubParams {
    match nodes {
        100 => TransitStubParams::paper_100_nodes(),
        300 => TransitStubParams::paper_300_nodes(),
        600 => TransitStubParams::paper_section51(),
        other => {
            eprintln!("--nodes must be 100, 300 or 600 (got {other})");
            exit(2);
        }
    }
}

fn cmd_topology(args: &Args) {
    let nodes: usize = args.get("nodes", 600);
    let seed: u64 = args.get("seed", 1);
    let params = topo_params(nodes);
    let topo = Topology::generate(&params, &mut StdRng::seed_from_u64(seed));
    println!(
        "topology: {} nodes, {} edges, {} transit blocks, {} stubs",
        topo.num_nodes(),
        topo.graph().num_edges(),
        topo.num_blocks(),
        topo.stubs().len()
    );
    println!(
        "total edge cost {:.0}, connected: {}",
        topo.graph().total_cost(),
        topo.graph().is_connected()
    );
    let stats = topo.distance_stats(5);
    println!(
        "cost-weighted diameter ~{:.0}, mean distance ~{:.1} (sampled {} sources)",
        stats.diameter, stats.mean_distance, stats.sampled_sources
    );
}

fn cmd_baselines(args: &Args) {
    let nodes: usize = args.get("nodes", 600);
    let subs: usize = args.get("subs", 1000);
    let events: usize = args.get("events", 200);
    let regionalism = args.proportion("regionalism", 0.4);
    let seed: u64 = args.get("seed", 1);
    let dist = match args.get_str("dist", "uniform").as_str() {
        "uniform" => PredicateDist::Uniform,
        "gaussian" => PredicateDist::Gaussian,
        other => {
            eprintln!("--dist must be uniform or gaussian (got {other})");
            exit(2);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::generate(&topo_params(nodes), &mut rng);
    let model = Section3Model {
        regionalism,
        dist,
        num_subscriptions: subs,
        num_events: events,
    };
    let w = model.generate(&topo, &mut rng);
    let mut ev = Evaluator::new(&topo, &w);
    let b = ev.baseline_costs();
    println!("mean cost per event over {events} events:");
    println!("  unicast   {:>10.0}", b.unicast);
    println!("  broadcast {:>10.0}", b.broadcast);
    println!("  ideal     {:>10.0}", b.ideal);
}

fn cmd_cluster(args: &Args) {
    let k = args.count("k", 50);
    let subs: usize = args.get("subs", 1000);
    let events: usize = args.get("events", 200);
    let cells: usize = args.get("cells", 2000);
    let seed: u64 = args.get("seed", 2002);
    let threshold = args.proportion("threshold", 0.0);
    let modes = match args.get::<usize>("modes", 1) {
        1 => PublicationModes::One,
        4 => PublicationModes::Four,
        9 => PublicationModes::Nine,
        other => {
            eprintln!("--modes must be 1, 4 or 9 (got {other})");
            exit(2);
        }
    };
    let mode = if args.has("app") {
        MulticastMode::ApplicationLevel
    } else if args.has("sparse") {
        MulticastMode::SparseMode
    } else {
        MulticastMode::NetworkSupported
    };
    let model = StockModel::default()
        .with_sizes(subs, events)
        .with_modes(modes);
    let scenario = StockScenario::generate(
        &model,
        &TransitStubParams::paper_section51(),
        (events * 2).max(200),
        seed,
    );
    let mut ev = Evaluator::new(&scenario.topo, &scenario.workload);
    let b = ev.baseline_costs();
    let name = args.get_str("algorithm", "forgy");
    let cost = if name == "noloss" || name == "no-loss" {
        let cfg = NoLossConfig {
            max_rects: cells,
            iterations: 4,
            ..NoLossConfig::default()
        };
        let nl = scenario.noloss(&cfg, k);
        ev.noloss_cost(&nl, mode)
    } else {
        let alg: Box<dyn ClusteringAlgorithm> = match name.as_str() {
            "kmeans" => Box::new(KMeans::new(KMeansVariant::MacQueen)),
            "forgy" => Box::new(KMeans::new(KMeansVariant::Forgy)),
            "mst" => Box::new(MstClustering::new()),
            "pairs" => Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
            "approx-pairs" => Box::new(PairwiseGrouping::new(PairsStrategy::Approximate { seed })),
            other => {
                eprintln!(
                    "--algorithm must be kmeans|forgy|mst|pairs|approx-pairs|noloss (got {other})"
                );
                exit(2);
            }
        };
        let fw = scenario.framework(cells);
        let clustering = alg.cluster(&fw, k);
        ev.grid_clustering_cost(&fw, &clustering, threshold, mode)
    };
    println!(
        "{name} with K = {k} ({}):",
        match mode {
            MulticastMode::NetworkSupported => "network-supported (dense) multicast",
            MulticastMode::ApplicationLevel => "application-level multicast",
            MulticastMode::SparseMode => "sparse-mode (shared-tree) multicast",
        }
    );
    println!("  unicast     {:>10.0}", b.unicast);
    println!("  broadcast   {:>10.0}", b.broadcast);
    println!("  clustered   {:>10.0}", cost);
    println!("  ideal       {:>10.0}", b.ideal);
    println!(
        "  improvement {:>9.1}%  (0% = unicast, 100% = ideal)",
        b.improvement_pct(cost)
    );
}

fn cmd_export(args: &Args) {
    let subs: usize = args.get("subs", 1000);
    let events: usize = args.get("events", 500);
    let seed: u64 = args.get("seed", 2002);
    let subs_path = args.get_str("subs-file", "subscriptions.csv");
    let events_path = args.get_str("events-file", "events.csv");
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::generate(&TransitStubParams::paper_section51(), &mut rng);
    let model = StockModel::default().with_sizes(subs, events);
    let w = model.generate(&topo, &mut rng);
    let write = |path: &str, f: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let mut buf = Vec::new();
        f(&mut buf).expect("in-memory write cannot fail");
        std::fs::write(path, buf).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
    };
    write(&subs_path, &|buf| {
        workload::io::write_subscriptions(buf, &w.subscriptions)
    });
    write(&events_path, &|buf| {
        workload::io::write_events(buf, &w.events)
    });
    println!(
        "wrote {} subscriptions to {subs_path} and {} events to {events_path}",
        w.subscriptions.len(),
        w.events.len()
    );
    println!("(node ids refer to the 600-node topology with seed {seed})");
}

fn cmd_replay(args: &Args) {
    let nodes: usize = args.get("nodes", 600);
    let k = args.count("k", 50);
    let bins: usize = args.get("bins", 12);
    let seed: u64 = args.get("seed", 2002);
    let subs_path = args.get_str("subs-file", "");
    let events_path = args.get_str("events-file", "");
    if subs_path.is_empty() || events_path.is_empty() {
        eprintln!("replay needs --subs-file and --events-file");
        exit(2);
    }
    let read = |path: &str| {
        std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        })
    };
    let subscriptions = workload::io::read_subscriptions(read(&subs_path).as_slice())
        .unwrap_or_else(|e| {
            eprintln!("{subs_path}: {e}");
            exit(1);
        });
    let events = workload::io::read_events(read(&events_path).as_slice()).unwrap_or_else(|e| {
        eprintln!("{events_path}: {e}");
        exit(1);
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::generate(&topo_params(nodes), &mut rng);
    for s in &subscriptions {
        if s.node.index() >= topo.num_nodes() {
            eprintln!(
                "subscription node {} does not exist in the {}-node topology",
                s.node,
                topo.num_nodes()
            );
            exit(1);
        }
    }
    let (bounds, bin_counts) = workload::io::infer_bounds(&subscriptions, &events, bins)
        .unwrap_or_else(|e| {
            eprintln!("cannot infer grid bounds from the trace: {e}");
            exit(1);
        });
    let workload = workload::Workload {
        bounds: bounds.clone(),
        suggested_bins: bin_counts.clone(),
        subscriptions,
        events,
    };
    let mut ev = Evaluator::new(&topo, &workload);
    let b = ev.baseline_costs();
    let grid = geometry::Grid::new(bounds, bin_counts).expect("inferred grid is valid");
    let sample: Vec<geometry::Point> = workload.events.iter().map(|e| e.point.clone()).collect();
    let probs = pubsub_core::CellProbability::empirical(&grid, &sample);
    let rects: Vec<geometry::Rect> = workload
        .subscriptions
        .iter()
        .map(|s| s.rect.clone())
        .collect();
    let fw = pubsub_core::GridFramework::build(grid, &rects, &probs, Some(6000));
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, k);
    let cost = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::NetworkSupported);
    println!(
        "replayed {} events against {} subscriptions on the {}-node topology:",
        workload.events.len(),
        workload.subscriptions.len(),
        topo.num_nodes()
    );
    println!("  unicast     {:>10.0}", b.unicast);
    println!("  broadcast   {:>10.0}", b.broadcast);
    println!("  forgy K={k:<4}{:>10.0}", cost);
    println!("  ideal       {:>10.0}", b.ideal);
    println!(
        "  improvement {:>9.1}%  (0% = unicast, 100% = ideal)",
        b.improvement_pct(cost)
    );
}

fn main() {
    let args = Args::parse();
    (args.command.run)(&args);
}
