//! Workspace-local static analysis for the pub-sub clustering repo.
//!
//! `pubsub-lint` is a dependency-free checker that enforces the
//! project's correctness conventions (see DESIGN.md §12 and §16):
//!
//! * **no-panic** — library code never calls `.unwrap()`, `panic!`,
//!   `todo!`, `unimplemented!`, or `.expect(..)` with a computed
//!   message; `.expect("string literal")` is the sanctioned way to
//!   state an internal invariant.
//! * **no-literal-index** — no `xs[0]`-style numeric-literal indexing
//!   in library code; use `.first()` / `.get(..)` or waive the site
//!   with a written bound proof.
//! * **hot-path-alloc** — no allocating calls (`collect`, `clone`,
//!   `to_vec`, `Vec::new`, `format!`, ...) inside regions bracketed by
//!   `// lint: hot-path` markers.
//! * **hash-order** — no iteration over `HashMap`/`HashSet` contents,
//!   which would feed nondeterministic order into output or float
//!   reductions.
//! * **env-knob-registry** — every `PUBSUB_*` knob read in code is
//!   documented in `docs/BENCHMARK.md` and vice versa.
//! * **atomic-order** — `Ordering::Relaxed` and unpaired
//!   `Acquire`/`Release` atomic sites must record a happens-before
//!   argument; `SeqCst` is flagged as probably-overkill.
//! * **lock-order** — the workspace Mutex/RwLock acquisition graph
//!   (nested guard scopes plus same-crate calls) must be acyclic.
//! * **float-det** — order-sensitive `f64` accumulation over
//!   parallel-produced or hash-ordered sequences is confined to the
//!   blessed fixed-chunk reducers in `pubsub_core::parallel`.
//! * **thread-panic** — closures crossing a thread boundary must not
//!   panic without a `catch_unwind`-style containment.
//!
//! Any finding can be waived in place with
//! `// lint: allow(<rule>): <reason>`. The four concurrency rules
//! additionally require the reason to be nonempty — the recorded
//! happens-before / determinism argument is the audit trail.
//!
//! The checker deliberately does not parse Rust. It works on a
//! comment- and string-stripped view of each file — tokenized once,
//! shared by every rule — plus a brace-matched [`ItemTree`] and a
//! per-crate function/call index for the concurrency rules. That
//! keeps it fast, dependency-free, and immune to churn in the
//! language grammar at the cost of a handful of documented blind
//! spots (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concur;
mod item_tree;
mod output;
mod registry;
mod rules;
mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use concur::{
    build_indexes, check_atomic_order, check_float_det, check_lock_order, check_thread_panic,
    CrateIndex, FnFacts, RULE_ATOMIC_ORDER, RULE_FLOAT_DET, RULE_LOCK_ORDER, RULE_THREAD_PANIC,
};
pub use item_tree::{calls_in, Block, FnItem, ItemTree};
pub use output::{format_github, format_json};
pub use registry::{check_registry, collect_knobs, knob_names, KnobSites};
pub use rules::{
    FileKind, Finding, LineDirectives, RULE_HASH_ORDER, RULE_HOT_ALLOC, RULE_KNOB_REGISTRY,
    RULE_LITERAL_INDEX, RULE_NO_PANIC,
};
pub use scan::{scan, ScannedFile};

/// Vendored third-party API stand-ins: not our code style to police.
const VENDORED_CRATES: [&str; 2] = ["rand", "proptest"];

/// One source file, scanned and indexed exactly once; every rule
/// shares this view (one tokenization, N rules).
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Library or binary target, which decides rule applicability.
    pub kind: FileKind,
    /// The comment/string-blanked token view.
    pub scanned: ScannedFile,
    /// Parsed waivers and hot-path regions.
    pub directives: LineDirectives,
    /// Brace-matched blocks and `fn` items.
    pub tree: ItemTree,
}

impl SourceFile {
    /// Scans and indexes one source string.
    pub fn new(rel: impl Into<String>, source: &str, kind: FileKind) -> Self {
        let scanned = scan(source);
        let directives = LineDirectives::parse(&scanned);
        let tree = ItemTree::build(&scanned);
        SourceFile {
            rel: rel.into(),
            kind,
            scanned,
            directives,
            tree,
        }
    }
}

/// The result of a lint run: findings plus per-rule wall-clock cost.
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Cumulative wall-clock time per rule (plus the shared
    /// `symbol-index` build), in execution order.
    pub timings: Vec<(&'static str, Duration)>,
    /// How many files went through the shared scan pass.
    pub files_scanned: usize,
}

/// Accumulates per-rule durations in first-seen order.
struct Timings(Vec<(&'static str, Duration)>);

impl Timings {
    fn add(&mut self, name: &'static str, dur: Duration) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += dur,
            None => self.0.push((name, dur)),
        }
    }

    fn run(&mut self, name: &'static str, f: impl FnOnce()) {
        let t0 = Instant::now();
        f();
        self.add(name, t0.elapsed());
    }
}

/// Runs every rule over a pre-scanned file set. `benchmark_doc` is the
/// `(relative path, text)` of `docs/BENCHMARK.md` for the env-knob
/// registry check; pass `None` to skip it (e.g. single-file linting).
pub fn lint_files(files: &[SourceFile], benchmark_doc: Option<(&str, &str)>) -> LintReport {
    let mut findings = Vec::new();
    let mut timings = Timings(Vec::new());

    for file in files {
        let (s, d, rel) = (&file.scanned, &file.directives, file.rel.as_str());
        if file.kind == FileKind::Library {
            timings.run(RULE_NO_PANIC, || {
                rules::check_no_panic(rel, s, d, &mut findings)
            });
            timings.run(RULE_LITERAL_INDEX, || {
                rules::check_literal_index(rel, s, d, &mut findings)
            });
        }
        timings.run(RULE_HOT_ALLOC, || {
            rules::check_hot_alloc(rel, s, d, &mut findings)
        });
        timings.run(RULE_HASH_ORDER, || {
            rules::check_hash_order(rel, s, d, &mut findings)
        });
        timings.run(RULE_ATOMIC_ORDER, || {
            check_atomic_order(file, &mut findings)
        });
        timings.run(RULE_FLOAT_DET, || check_float_det(file, &mut findings));
    }

    let t0 = Instant::now();
    let indexes = build_indexes(files);
    timings.add("symbol-index", t0.elapsed());
    timings.run(RULE_LOCK_ORDER, || {
        check_lock_order(files, &indexes, &mut findings)
    });
    timings.run(RULE_THREAD_PANIC, || {
        check_thread_panic(files, &indexes, &mut findings)
    });

    if let Some((doc_rel, doc_text)) = benchmark_doc {
        timings.run(RULE_KNOB_REGISTRY, || {
            let mut knobs = KnobSites::new();
            for file in files {
                collect_knobs(&file.rel, &file.scanned, &mut knobs);
            }
            findings.extend(check_registry(&knobs, doc_rel, doc_text));
        });
    }

    findings.sort();
    findings.dedup();
    LintReport {
        findings,
        timings: timings.0,
        files_scanned: files.len(),
    }
}

/// Lint the whole workspace rooted at `root`, with per-rule timings.
///
/// Scans `crates/*/src/**/*.rs` (skipping the vendored stub crates)
/// once, applies every rule over the shared scan, and finishes with
/// the env-knob registry check against `docs/BENCHMARK.md`.
pub fn lint_workspace_report(root: &Path) -> io::Result<LintReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in &crate_dirs {
        let name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if VENDORED_CRATES.contains(&name) {
            continue;
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        for path in paths {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let kind = classify(&rel);
            files.push(SourceFile::new(rel, &source, kind));
        }
    }

    let doc_rel = "docs/BENCHMARK.md";
    let doc_text = fs::read_to_string(root.join(doc_rel)).unwrap_or_default();
    Ok(lint_files(&files, Some((doc_rel, &doc_text))))
}

/// A file under `src/bin/` or named `src/main.rs` belongs to a binary
/// target; everything else under `src/` is library code.
pub fn classify(rel_path: &str) -> FileKind {
    if rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs") {
        FileKind::Binary
    } else {
        FileKind::Library
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk upward from `start` until a
/// `Cargo.toml` declaring `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
