//! The `pubsub-lint` binary: run the workspace correctness lints.
//!
//! ```text
//! cargo run -p pubsub-lint [-- [--format=plain|github|json] [--verbose] [<workspace-root>]]
//! ```
//!
//! * `--format=plain` (default) — `file:line: [rule] message` lines.
//! * `--format=github` — GitHub workflow-command annotations, so
//!   findings surface inline on pull requests.
//! * `--format=json` — a machine-readable `{"findings": [...]}`
//!   document.
//! * `--verbose` — per-rule wall-clock timings on stderr.
//!
//! Exit code 0 when the workspace is clean, 1 when any rule fired,
//! 2 on usage or I/O errors. See `DESIGN.md` §12 and §16 for the rule
//! catalogue and the waiver syntax.

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Plain,
    Github,
    Json,
}

fn main() -> ExitCode {
    let mut format = Format::Plain;
    let mut verbose = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--format=plain" => format = Format::Plain,
            "--format=github" => format = Format::Github,
            "--format=json" => format = Format::Json,
            "--verbose" => verbose = true,
            other if other.starts_with("--") => {
                eprintln!(
                    "pubsub-lint: unknown option `{other}` \
                     (expected --format=plain|github|json, --verbose, or a workspace root)"
                );
                return ExitCode::from(2);
            }
            path => root_arg = Some(PathBuf::from(path)),
        }
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("pubsub-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match pubsub_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "pubsub-lint: no workspace Cargo.toml found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match pubsub_lint::lint_workspace_report(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pubsub-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if verbose {
        eprintln!(
            "pubsub-lint: {} file(s) scanned once, rule timings:",
            report.files_scanned
        );
        for (rule, dur) in &report.timings {
            eprintln!("  {rule:<18} {:>9.3} ms", dur.as_secs_f64() * 1e3);
        }
    }

    let findings = &report.findings;
    match format {
        Format::Plain => {
            for f in findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("pubsub-lint: workspace clean ({})", root.display());
            } else {
                println!("pubsub-lint: {} finding(s)", findings.len());
            }
        }
        Format::Github => {
            for f in findings {
                println!("{}", pubsub_lint::format_github(f));
            }
            if !findings.is_empty() {
                println!("pubsub-lint: {} finding(s)", findings.len());
            }
        }
        Format::Json => println!("{}", pubsub_lint::format_json(findings)),
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
