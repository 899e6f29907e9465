//! Shared scaffolding for the table/figure regeneration binaries.
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
    /// Parses `std::env::args`, defaulting to `Medium`. The only
    /// arguments accepted are `--scale quick|medium|paper` and
    /// `--record` (read by [`write_bench_json`]); anything else aborts
    /// with a usage message and exit code 2.
    pub fn from_args() -> Scale {
        let mut scale = Scale::Medium;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--record" {
                continue;
            }
            let value = args.next().unwrap_or_default();
            scale = match (arg.as_str(), value.as_str()) {
                ("--scale", "quick") => Scale::Quick,
                ("--scale", "medium") => Scale::Medium,
                ("--scale", "paper") => Scale::Paper,
                _ => {
                    eprintln!("usage: [--scale quick|medium|paper] [--record] (got {arg} {value})");
                    std::process::exit(2);
                }
            };
        }
        scale
    }
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
