//! The env-knob registry check.
//!
//! Every `PUBSUB_*` environment variable read anywhere in workspace
//! code must be documented in `docs/BENCHMARK.md`, and every knob the
//! documentation promises must still exist in code. Knob names are
//! collected from *string literals* on non-test lines (reads always
//! name the variable as a literal — `std::env::var("PUBSUB_THREADS")`),
//! so prose mentions in doc comments neither satisfy nor trigger the
//! rule. `PUBSUB_TEST_*` names are reserved for unit tests and exempt.

use std::collections::BTreeMap;

use crate::rules::{Finding, RULE_KNOB_REGISTRY};
use crate::scan::ScannedFile;

/// Knob names found in code, mapped to one representative site.
pub type KnobSites = BTreeMap<String, (String, usize)>;

/// Collect `PUBSUB_*` names from the string literals of one scanned
/// file into `sites`.
pub fn collect_knobs(path: &str, s: &ScannedFile, sites: &mut KnobSites) {
    for (line, content) in &s.strings {
        if s.is_test_line(*line) {
            continue;
        }
        for name in knob_names(content) {
            if name.starts_with("PUBSUB_TEST") {
                continue;
            }
            sites
                .entry(name)
                .or_insert_with(|| (path.to_string(), *line));
        }
    }
}

/// Compare code knobs against the documentation and report both
/// directions of drift.
pub fn check_registry(sites: &KnobSites, doc_path: &str, doc_text: &str) -> Vec<Finding> {
    let mut documented: BTreeMap<String, usize> = BTreeMap::new();
    for (i, line) in doc_text.lines().enumerate() {
        for name in knob_names(line) {
            documented.entry(name).or_insert(i + 1);
        }
    }
    let mut out = Vec::new();
    for (name, (file, line)) in sites {
        if !documented.contains_key(name) {
            out.push(Finding {
                file: file.clone(),
                line: *line,
                rule: RULE_KNOB_REGISTRY,
                message: format!("`{name}` is read here but not documented in {doc_path}"),
            });
        }
    }
    for (name, line) in &documented {
        if name.starts_with("PUBSUB_TEST") {
            continue;
        }
        if !sites.contains_key(name) {
            out.push(Finding {
                file: doc_path.to_string(),
                line: *line,
                rule: RULE_KNOB_REGISTRY,
                message: format!("`{name}` is documented here but never read by workspace code"),
            });
        }
    }
    out
}

/// Extract maximal `PUBSUB_[A-Z0-9_]+` names from `text`, trimming
/// trailing underscores (prose often writes the family as
/// `PUBSUB_RETRY_*`).
pub fn knob_names(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(at) = crate::scan::find_bytes(bytes, b"PUBSUB_", from) {
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            from = at + 1;
            continue;
        }
        let mut j = at + "PUBSUB_".len();
        while j < bytes.len()
            && (bytes[j].is_ascii_uppercase() || bytes[j] == b'_' || bytes[j].is_ascii_digit())
        {
            j += 1;
        }
        let name = text[at..j].trim_end_matches('_');
        if name.len() > "PUBSUB_".len() {
            out.push(name.to_string());
        }
        from = j.max(at + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn extracts_knob_names() {
        assert_eq!(
            knob_names("set PUBSUB_THREADS and `PUBSUB_RETRY_*` but not SUBPUBSUB_X"),
            vec!["PUBSUB_THREADS".to_string(), "PUBSUB_RETRY".to_string()]
        );
        assert!(knob_names("PUBSUB_").is_empty());
    }

    #[test]
    fn both_directions_of_drift_are_reported() {
        let src = "fn f() { crate::env_knob(\"PUBSUB_ALPHA\", 1, |s| s.parse().ok()); }\n";
        let mut sites = KnobSites::new();
        collect_knobs("src/f.rs", &scan(src), &mut sites);
        assert!(sites.contains_key("PUBSUB_ALPHA"));

        let findings = check_registry(&sites, "docs/B.md", "only `PUBSUB_BETA` here\n");
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("PUBSUB_ALPHA"));
        assert!(findings[1].message.contains("PUBSUB_BETA"));
    }

    #[test]
    fn test_only_knobs_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { std::env::set_var(\"PUBSUB_SECRET\", \"1\"); }\n}\n";
        let mut sites = KnobSites::new();
        collect_knobs("src/f.rs", &scan(src), &mut sites);
        assert!(sites.is_empty());

        let src = "fn f() { let _ = std::env::var(\"PUBSUB_TEST_ONLY\"); }\n";
        collect_knobs("src/g.rs", &scan(src), &mut sites);
        assert!(sites.is_empty());
    }
}
