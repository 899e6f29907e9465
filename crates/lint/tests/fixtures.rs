//! Self-tests for `pubsub-lint`: every known-bad fixture must be
//! flagged by exactly the rule it was written for, the clean fixture
//! and the real workspace must pass, and the allowed-side patterns
//! inside each fixture must stay silent.

use std::path::{Path, PathBuf};

use pubsub_lint::{
    lint_workspace_report, Finding, RULE_ATOMIC_ORDER, RULE_FLOAT_DET, RULE_HASH_ORDER,
    RULE_HOT_ALLOC, RULE_KNOB_REGISTRY, RULE_LITERAL_INDEX, RULE_LOCK_ORDER, RULE_NO_PANIC,
    RULE_THREAD_PANIC,
};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_workspace_report(&fixture_root(name))
        .expect("fixture tree is readable")
        .findings
}

/// Assert the fixture yields exactly `expected` findings, all from
/// `rule`.
fn assert_flagged(name: &str, rule: &str, expected: usize) -> Vec<Finding> {
    let findings = lint_fixture(name);
    assert_eq!(
        findings.len(),
        expected,
        "fixture {name}: expected {expected} findings, got: {findings:#?}"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "fixture {name}: unexpected rule in {f}");
    }
    findings
}

#[test]
fn bad_unwrap_is_flagged_once() {
    let findings = assert_flagged("bad_unwrap", RULE_NO_PANIC, 1);
    assert!(findings[0].message.contains("unwrap"));
}

#[test]
fn bad_expect_dynamic_is_flagged_once() {
    let findings = assert_flagged("bad_expect_dynamic", RULE_NO_PANIC, 1);
    assert!(findings[0].message.contains("non-literal"));
}

#[test]
fn bad_panic_flags_all_three_macros() {
    let findings = assert_flagged("bad_panic", RULE_NO_PANIC, 3);
    let all = format!("{findings:?}");
    assert!(all.contains("panic!") && all.contains("todo!") && all.contains("unimplemented!"));
}

#[test]
fn bad_literal_index_is_flagged_twice() {
    assert_flagged("bad_literal_index", RULE_LITERAL_INDEX, 2);
}

#[test]
fn bad_hot_alloc_flags_every_allocation_in_the_region() {
    let findings = assert_flagged("bad_hot_alloc", RULE_HOT_ALLOC, 4);
    let all = format!("{findings:?}");
    assert!(all.contains("to_vec") && all.contains("collect"));
    assert!(all.contains("Vec::new") && all.contains("format!"));
}

#[test]
fn bad_hash_iter_flags_both_forms() {
    let findings = assert_flagged("bad_hash_iter", RULE_HASH_ORDER, 2);
    let all = format!("{findings:?}");
    assert!(all.contains("m.values()"), "method form: {all}");
    assert!(all.contains("for .. in set"), "for form: {all}");
}

#[test]
fn bad_knob_flags_both_directions() {
    let findings = assert_flagged("bad_knob", RULE_KNOB_REGISTRY, 2);
    let all = format!("{findings:?}");
    assert!(all.contains("PUBSUB_BOGUS"), "undocumented read: {all}");
    assert!(all.contains("PUBSUB_GHOST"), "ghost doc entry: {all}");
    assert!(!all.contains("PUBSUB_DOCUMENTED"));
    assert!(!all.contains("PUBSUB_ONLY_IN_TESTS"));
}

#[test]
fn bad_atomic_flags_relaxed_unpaired_and_seqcst() {
    let findings = assert_flagged("bad_atomic", RULE_ATOMIC_ORDER, 3);
    let all = format!("{findings:?}");
    assert!(
        all.contains("Relaxed"),
        "reasonless waiver must not count: {all}"
    );
    assert!(
        all.contains("no Release-side writer"),
        "unpaired acquire: {all}"
    );
    assert!(all.contains("SeqCst"), "overkill ordering: {all}");
}

#[test]
fn bad_lock_cycle_flags_both_edges() {
    let findings = assert_flagged("bad_lock_cycle", RULE_LOCK_ORDER, 2);
    let all = format!("{findings:?}");
    assert!(
        all.contains("ALPHA") && all.contains("BETA"),
        "cycle members: {all}"
    );
    assert!(all.contains("deadlock cycle"), "{all}");
}

#[test]
fn bad_float_sum_flags_chained_and_looped_accumulation() {
    let findings = assert_flagged("bad_float_sum", RULE_FLOAT_DET, 2);
    let all = format!("{findings:?}");
    assert!(all.contains(".sum()"), "chained form: {all}");
    assert!(all.contains("`+=` in a loop"), "looped form: {all}");
    assert!(all.contains("parallel-produced"), "{all}");
}

#[test]
fn bad_spawn_panic_flags_direct_and_transitive_panics() {
    let findings = assert_flagged("bad_spawn_panic", RULE_THREAD_PANIC, 2);
    let all = format!("{findings:?}");
    assert!(all.contains(".expect(..)"), "direct evidence: {all}");
    assert!(all.contains("calls `helper`"), "transitive evidence: {all}");
}

#[test]
fn clean_fixture_passes() {
    let findings = lint_fixture("clean");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn real_workspace_is_clean() {
    // The crate lives at <root>/crates/lint.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate dir sits two levels under the workspace root");
    let findings = lint_workspace_report(root)
        .expect("workspace tree is readable")
        .findings;
    assert!(
        findings.is_empty(),
        "workspace has lint findings: {findings:#?}"
    );
}
