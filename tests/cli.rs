//! Command-line hygiene: the `pubsub` CLI and the table/figure bins
//! reject arguments they do not read with exit code 2, instead of
//! silently running with their defaults.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// A misspelled flag, or a value the library would refuse with a panic
/// (a threshold or a regionalism outside `[0, 1]`, NaN included) or
/// silently clamp (`--k 0`), exits 2 naming the flag before any work
/// runs.
#[test]
fn pubsub_rejects_a_misspelled_flag() {
    let cases: [(&[&str], &str); 7] = [
        (&["cluster", "--algoritm", "mst", "--k", "5"], "--algoritm"),
        (&["cluster", "--threshold", "2"], "--threshold"),
        (&["cluster", "--threshold", "nan"], "--threshold"),
        (&["cluster", "--threshold", "-0.5"], "--threshold"),
        (&["cluster", "--k", "0"], "--k"),
        (&["replay", "--k", "0"], "--k"),
        (&["baselines", "--regionalism", "2"], "--regionalism"),
    ];
    for (args, flag) in cases {
        let out = run(env!("CARGO_BIN_EXE_pubsub"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing ran for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr names {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn table1_rejects_csv() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &["--csv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table was printed");
}

#[test]
fn pubsub_accepts_the_flags_a_command_reads() {
    let out = run(
        env!("CARGO_BIN_EXE_pubsub"),
        &["topology", "--nodes", "100"],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("topology: 100 nodes"), "{stdout}");
}

/// The `--name` keys on each line that starts with a command name,
/// merged with the continuation lines below it.
fn keys_per_command<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in lines {
        let Some(first) = line.split_whitespace().next() else {
            continue;
        };
        if !first.starts_with('[') {
            out.push((first.to_string(), Vec::new()));
        }
        let keys = &mut out.last_mut().expect("a command line comes first").1;
        for word in line.split("--").skip(1) {
            let end = word.find([' ', ']', '|']).unwrap_or(word.len());
            keys.push(word[..end].to_string());
        }
        keys.sort_unstable();
    }
    out
}

#[test]
fn pubsub_help_lists_the_flags_the_module_doc_shows() {
    // `help` prints the table `Args` accepts from; the module doc's
    // usage block must name the same flags, command by command.
    let out = run(env!("CARGO_BIN_EXE_pubsub"), &["help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stderr);
    let accepted = keys_per_command(help.lines().skip(1).take_while(|l| l.starts_with("  ")));
    let src = include_str!("../crates/bench/src/bin/pubsub.rs");
    let block = src.split("//! ```").nth(1).expect("module doc usage block");
    let documented = keys_per_command(
        block
            .lines()
            .skip(1)
            .map(|l| l.trim_start_matches("//!").trim_start())
            .map(|l| l.strip_prefix("pubsub ").unwrap_or(l)),
    );
    assert_eq!(accepted.len(), 5, "{help}");
    assert_eq!(accepted, documented);
}
