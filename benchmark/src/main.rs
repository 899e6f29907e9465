//! Benchmark of record for the broker service (see `README.md`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed <u64>
//! ```
//!
//! Without `--trace` the process is the orchestrator: it runs every
//! workload (or the one named by `--workload`) in a child process of
//! its own, untraced and then traced, and relays what they print. With
//! `--trace 0|1` the process *is* one such child: it runs one workload
//! in-process and prints one JSON object as its last line.

mod layers;
mod metrics;
mod phases;
mod run;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use metrics::{unit_of, END_TO_END, RUN_SECONDS};
use run::Outcome;
use workload::{Spec, WORKLOADS};

const USAGE: &str = "usage: pubsub-benchmark [--seed <u64>] [--workload <name>] [--seconds <n>] \
[--quick] [--no-trace] [--aa <n>] [--trace <0|1>] [--emit-benchmark-json] [--describe]";

struct Args {
    seed: u64,
    workload: Option<Spec>,
    seconds: u64,
    quick: bool,
    no_trace: bool,
    aa: Option<usize>,
    trace: Option<bool>,
    emit: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: RUN_SECONDS,
        quick: false,
        no_trace: false,
        aa: None,
        trace: None,
        emit: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                args.aa = Some(n);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--no-trace" => args.no_trace = true,
            "--emit-benchmark-json" => args.emit = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Values are printed with all their digits.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.correct(),
        outcome.tally.attempted(),
        outcome.tally.failed(),
        metrics.join(", ")
    )
}

/// What the orchestrator reads back from a child's last line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    let (head, metrics) = line.split_once("\"metrics\": {")?;
    let metrics = metrics
        .split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name.trim_start_matches('"').to_string(), value))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ChildResult {
        correct: head.contains("\"correct\": true"),
        metrics,
    })
}

/// The in-process run of one workload: the process the driver starts.
fn run_one(spec: Spec, args: &Args, traced: bool) -> ExitCode {
    // One ingest worker, and no knob of the caller's shell leaks in.
    // Nothing else runs yet, so changing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PUBSUB_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("PUBSUB_THREADS", "1");

    let spec = if args.quick { spec.quick() } else { spec };
    let outcome = if traced {
        run::traced(&spec, args.seed)
    } else {
        run::untraced(&spec, args.seed, args.seconds)
    };
    println!(
        "{} seed {} ({}): {} attempted, {} failed",
        spec.name,
        args.seed,
        if traced { "traced" } else { "untraced" },
        outcome.tally.attempted(),
        outcome.tally.failed()
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<40} {value:>16.4} {}", unit_of(name));
    }
    for broken in &outcome.tally.broken {
        println!("  BROKEN: {broken}");
    }
    println!("{}", result_line(&outcome));
    if outcome.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process, relays its report and returns
/// its parsed result.
fn child(
    spec: &Spec,
    seed: u64,
    args: &Args,
    traced: bool,
    relay: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{}: no result line", spec.name))?;
    if relay {
        println!("{report}");
    }
    let result = parse_result_line(last).ok_or(format!("{}: bad result line {last}", spec.name))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{} seed {seed}: outputs are not correct\n{report}",
            spec.name
        ));
    }
    Ok(result)
}

fn orchestrate(args: &Args, specs: &[Spec]) -> Result<(), String> {
    for spec in specs {
        child(spec, args.seed, args, false, true)?;
        if !args.no_trace {
            child(spec, args.seed, args, true, true)?;
        }
    }
    Ok(())
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// A/A: 2 n untraced runs per workload in alternating sets, every run
/// on a seed of its own. Per end-to-end metric: the two set medians,
/// how much worse the second is than the first, the spread (distance
/// between the quartiles of all 2 n values over their median) and the
/// bound. Fails if a gap or a spread exceeds its bound.
fn aa(args: &Args, specs: &[Spec], n: usize) -> Result<(), String> {
    let mut over = Vec::new();
    println!("| workload | metric | median A | median B | B worse by | spread | bound |");
    println!("|---|---|---|---|---|---|---|");
    for spec in specs {
        let mut sets: [Vec<ChildResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * n {
            sets[i % 2].push(child(spec, args.seed + i as u64, args, false, false)?);
        }
        for (m, metric) in END_TO_END.iter().enumerate() {
            let values =
                |set: &[ChildResult]| -> Vec<f64> { set.iter().map(|r| r.metrics[m].1).collect() };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (quartiles(&a)[1], quartiles(&b)[1]);
            let worse = match metric.better {
                "lower" => med_b / med_a - 1.0,
                _ => 1.0 - med_b / med_a,
            };
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            eprintln!("{} {} A {a:.4?} B {b:.4?}", spec.name, metric.name);
            let [q1, q2, q3] = quartiles(&all);
            let spread = (q3 - q1) / q2;
            println!(
                "| {} | {} | {med_a:.4} | {med_b:.4} | {worse:+.4} | {spread:.4} | {} |",
                spec.name, metric.name, metric.bound
            );
            if worse > metric.bound || (spread > metric.bound && metric.name != "setup_s") {
                over.push(format!("{} {}", spec.name, metric.name));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("outside the bound: {}", over.join(", ")))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.describe {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    if let Some(traced) = args.trace {
        return match args.workload {
            Some(spec) => run_one(spec, &args, traced),
            None => {
                eprintln!("--trace needs --workload\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let specs: Vec<Spec> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let outcome = match args.aa {
        Some(n) => aa(&args, &specs, n),
        None => orchestrate(&args, &specs),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
