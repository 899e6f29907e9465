//! Shared scaffolding for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! Every binary accepts a `--scale` flag:
//!
//! * `--scale quick` — small networks and workloads, seconds per run;
//! * `--scale medium` — the default: recognizable shapes in under a
//!   minute or two;
//! * `--scale paper` — the paper's full parameters (minutes; build with
//!   `--release`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Run scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-run smoke scale.
    Quick,
    /// Default: shape-faithful but affordable.
    Medium,
    /// The paper's full parameters.
    Paper,
}

impl Scale {
    /// Parses `--scale quick|medium|paper` from `std::env::args`,
    /// defaulting to `Medium`. Unknown values abort with a usage
    /// message.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for i in 0..args.len() {
            if args[i] == "--scale" {
                match args.get(i + 1).map(String::as_str) {
                    Some("quick") => return Scale::Quick,
                    Some("medium") => return Scale::Medium,
                    Some("paper") => return Scale::Paper,
                    other => {
                        eprintln!(
                            "usage: --scale quick|medium|paper (got {:?})",
                            other.unwrap_or("<missing>")
                        );
                        std::process::exit(2);
                    }
                }
            }
        }
        Scale::Medium
    }
}

/// Whether `--csv` was passed (bins then emit machine-readable CSV via
/// `sim::report::render_*_csv` instead of the human tables).
pub fn csv_requested() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Writes the `scale` bin's JSON report and returns where it went:
/// `target/bench/<file>` by default, the committed `results/<file>`
/// only when `--record` was passed — so a smoke run at whatever
/// `--scale` never overwrites the numbers the docs quote.
pub fn write_bench_json(file: &str, json: &str) -> std::path::PathBuf {
    let dir = if std::env::args().any(|a| a == "--record") {
        "results"
    } else {
        "target/bench"
    };
    std::fs::create_dir_all(dir).expect("create bench output dir");
    let path = std::path::Path::new(dir).join(file);
    std::fs::write(&path, json).expect("write bench JSON");
    path
}
