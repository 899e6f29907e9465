//! The per-file lint rules.
//!
//! Every rule reports [`Finding`]s against the *cleaned* code produced
//! by [`crate::scan`], skips `#[cfg(test)]` regions, and honours inline
//! waivers of the form
//!
//! ```text
//! // lint: allow(<rule>): <reason>
//! ```
//!
//! placed either on the offending line or on a comment line directly
//! above it. The hot-path allocation rule additionally only fires
//! inside regions bracketed by `// lint: hot-path` and
//! `// lint: hot-path end` markers.

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::ScannedFile;

/// Panic hygiene: no `.unwrap()`, `panic!`, `todo!`, `unimplemented!`,
/// or `.expect(<non-literal>)` in library code.
pub const RULE_NO_PANIC: &str = "no-panic";
/// No numeric-literal slice indexing (`xs[0]`) in library code.
pub const RULE_LITERAL_INDEX: &str = "no-literal-index";
/// No allocating calls inside `// lint: hot-path` regions.
pub const RULE_HOT_ALLOC: &str = "hot-path-alloc";
/// No iteration over `HashMap`/`HashSet` (nondeterministic order).
pub const RULE_HASH_ORDER: &str = "hash-order";
/// `PUBSUB_*` knobs in code and `docs/BENCHMARK.md` must agree.
pub const RULE_KNOB_REGISTRY: &str = "env-knob-registry";

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a file is compiled, which decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a library target: all rules apply.
    Library,
    /// A binary / example target: panic hygiene is relaxed (a CLI
    /// aborting on its own bug is acceptable), determinism and
    /// hot-path rules still apply.
    Binary,
}

/// Per-line rule waivers (with or without a recorded reason) and
/// hot-path region membership.
pub struct LineDirectives {
    /// `rule -> the waiver carries a nonempty reason`, per line.
    allowed: Vec<BTreeMap<String, bool>>,
    hot: Vec<bool>,
}

impl LineDirectives {
    /// Parse directives out of a scanned file's comments.
    pub fn parse(s: &ScannedFile) -> Self {
        let n = s.num_lines();
        let mut allowed: Vec<BTreeMap<String, bool>> = vec![BTreeMap::new(); n];
        let mut hot = vec![false; n];
        let mut pending: BTreeMap<String, bool> = BTreeMap::new();
        let mut in_hot = false;
        for line in 1..=n {
            let comment = s.comment(line);
            // Directives must be the whole comment, so prose that
            // *mentions* the marker syntax doesn't open a region.
            let directive = strip_comment_markers(comment);
            if directive == "lint: hot-path end" {
                in_hot = false;
            } else if directive == "lint: hot-path" {
                in_hot = true;
            }
            hot[line - 1] = in_hot;

            let mut rules = parse_allows(comment);
            if s.line_has_code(line) {
                rules.append(&mut pending);
                allowed[line - 1] = rules;
            } else {
                // Comment-only line: the waiver applies to the next
                // line that carries code.
                pending.append(&mut rules);
            }
        }
        Self { allowed, hot }
    }

    pub(crate) fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.allowed
            .get(line - 1)
            .is_some_and(|set| set.contains_key(rule))
    }

    /// Whether a waiver for `rule` on `line` also records a nonempty
    /// reason. The concurrency rules require one (the happens-before /
    /// order-determinism argument is the point of the waiver).
    pub(crate) fn is_allowed_with_reason(&self, line: usize, rule: &str) -> bool {
        self.allowed
            .get(line - 1)
            .and_then(|set| set.get(rule))
            .copied()
            .unwrap_or(false)
    }

    fn is_hot(&self, line: usize) -> bool {
        self.hot.get(line - 1).copied().unwrap_or(false)
    }
}

/// Reduce a captured comment to its directive text: strip the comment
/// sigils (`//`, `///`, `//!`, block-comment stars) and surrounding
/// whitespace.
fn strip_comment_markers(comment: &str) -> &str {
    comment
        .trim()
        .trim_start_matches(['/', '!', '*'])
        .trim()
        .trim_end_matches("*/")
        .trim()
}

fn parse_allows(comment: &str) -> BTreeMap<String, bool> {
    let mut rules = BTreeMap::new();
    let mut rest = strip_comment_markers(comment);
    // Only comments *leading* with the directive count; prose that
    // quotes the syntax mid-sentence is ignored.
    while let Some(tail) = rest.strip_prefix("lint: allow(") {
        if let Some(close) = tail.find(')') {
            let rule = tail[..close].trim().to_string();
            rest = tail[close + 1..].trim_start();
            // `): <reason>` — the reason runs to the end of the
            // comment (or to a chained reasonless `lint: allow(..)`).
            let has_reason = rest.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
            let entry = rules.entry(rule).or_insert(false);
            *entry = *entry || has_reason;
        } else {
            break;
        }
    }
    rules
}

pub(crate) fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets where `word` occurs as a whole identifier.
pub(crate) fn ident_occurrences(code: &[u8], word: &str) -> Vec<usize> {
    let w = word.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(at) = crate::scan::find_bytes(code, w, from) {
        let before_ok = at == 0 || !is_ident_char(code[at - 1]);
        let after = at + w.len();
        let after_ok = after >= code.len() || !is_ident_char(code[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + 1;
    }
    out
}

pub(crate) fn next_non_ws(code: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < code.len() {
        if !code[i].is_ascii_whitespace() {
            return Some((i, code[i]));
        }
        i += 1;
    }
    None
}

pub(crate) fn prev_non_ws(code: &[u8], mut i: usize) -> Option<(usize, u8)> {
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        if !code[i].is_ascii_whitespace() {
            return Some((i, code[i]));
        }
    }
}

/// The identifier ending just before byte `end` (exclusive), if any.
pub(crate) fn ident_before(code: &[u8], end: usize) -> Option<&str> {
    let mut start = end;
    while start > 0 && is_ident_char(code[start - 1]) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        std::str::from_utf8(&code[start..end]).ok()
    }
}

fn push(
    out: &mut Vec<Finding>,
    s: &ScannedFile,
    d: &LineDirectives,
    path: &str,
    pos: usize,
    rule: &'static str,
    message: String,
) {
    let line = s.line_of(pos);
    if s.is_test_line(line) || d.is_allowed(line, rule) {
        return;
    }
    out.push(Finding {
        file: path.to_string(),
        line,
        rule,
        message,
    });
}

/// Like [`push`], but the waiver only counts when it records a
/// nonempty reason. The concurrency rules use this: the recorded
/// happens-before / order-determinism argument *is* the audit trail,
/// so a bare `lint: allow(atomic-order)` does not silence them.
pub(crate) fn push_reasoned(
    out: &mut Vec<Finding>,
    s: &ScannedFile,
    d: &LineDirectives,
    path: &str,
    pos: usize,
    rule: &'static str,
    message: String,
) {
    let line = s.line_of(pos);
    if s.is_test_line(line) || d.is_allowed_with_reason(line, rule) {
        return;
    }
    out.push(Finding {
        file: path.to_string(),
        line,
        rule,
        message,
    });
}

pub(crate) fn check_no_panic(
    path: &str,
    s: &ScannedFile,
    d: &LineDirectives,
    out: &mut Vec<Finding>,
) {
    let code = s.code.as_bytes();
    for at in ident_occurrences(code, "unwrap") {
        let is_method = matches!(prev_non_ws(code, at), Some((_, b'.')));
        let called = matches!(next_non_ws(code, at + "unwrap".len()), Some((_, b'(')));
        if is_method && called {
            push(
                out,
                s,
                d,
                path,
                at,
                RULE_NO_PANIC,
                "`.unwrap()` in library code; return an error or use `.expect(\"why this holds\")`"
                    .to_string(),
            );
        }
    }
    for at in ident_occurrences(code, "expect") {
        let is_method = matches!(prev_non_ws(code, at), Some((_, b'.')));
        let open = match next_non_ws(code, at + "expect".len()) {
            Some((i, b'(')) => i,
            _ => continue,
        };
        if !is_method {
            continue;
        }
        // A literal message starts with `"`, `r"`, `r#"`, or a
        // concatenation thereof; anything else is a computed message.
        let literal = match next_non_ws(code, open + 1) {
            Some((_, b'"')) => true,
            Some((i, b'r')) => {
                matches!(next_non_ws(code, i + 1), Some((_, b'"')) | Some((_, b'#')))
            }
            _ => false,
        };
        if !literal {
            push(
                out,
                s,
                d,
                path,
                at,
                RULE_NO_PANIC,
                "`.expect(...)` with a non-literal message in library code".to_string(),
            );
        }
    }
    for macro_name in ["panic", "todo", "unimplemented"] {
        for at in ident_occurrences(code, macro_name) {
            if code.get(at + macro_name.len()) == Some(&b'!') {
                push(
                    out,
                    s,
                    d,
                    path,
                    at,
                    RULE_NO_PANIC,
                    format!("`{macro_name}!` in library code; return an error instead"),
                );
            }
        }
    }
}

pub(crate) fn check_literal_index(
    path: &str,
    s: &ScannedFile,
    d: &LineDirectives,
    out: &mut Vec<Finding>,
) {
    let code = s.code.as_bytes();
    for at in 0..code.len() {
        if code[at] != b'[' || at == 0 {
            continue;
        }
        let prev = code[at - 1];
        // Indexing expressions follow an identifier, a close bracket
        // or a close paren; array literals / types / attributes don't.
        if !(is_ident_char(prev) || prev == b']' || prev == b')') {
            continue;
        }
        let mut j = at + 1;
        let mut digits = 0usize;
        while j < code.len() && (code[j].is_ascii_digit() || code[j] == b'_') {
            digits += 1;
            j += 1;
        }
        if digits > 0 && code.get(j) == Some(&b']') {
            let index = std::str::from_utf8(&code[at + 1..j]).unwrap_or("?");
            push(
                out,
                s,
                d,
                path,
                at,
                RULE_LITERAL_INDEX,
                format!(
                    "literal index `[{index}]` in library code; \
                     use `.first()`/`.get({index})` or prove the bound with a waiver"
                ),
            );
        }
    }
}

/// Allocating method calls banned inside hot-path regions.
const HOT_METHODS: [&str; 5] = ["collect", "clone", "to_vec", "to_string", "to_owned"];
/// Allocating macros banned inside hot-path regions.
const HOT_MACROS: [&str; 2] = ["vec", "format"];
/// Allocating constructor paths banned inside hot-path regions.
const HOT_PATHS: [&str; 4] = ["Vec::new", "String::new", "Box::new", "String::from"];

pub(crate) fn check_hot_alloc(
    path: &str,
    s: &ScannedFile,
    d: &LineDirectives,
    out: &mut Vec<Finding>,
) {
    let code = s.code.as_bytes();
    let mut hits: Vec<(usize, String)> = Vec::new();
    for method in HOT_METHODS {
        for at in ident_occurrences(code, method) {
            let is_method = matches!(prev_non_ws(code, at), Some((_, b'.')));
            let called = matches!(
                next_non_ws(code, at + method.len()),
                Some((_, b'(')) | Some((_, b':'))
            );
            if is_method && called {
                hits.push((at, format!("allocating call `.{method}(..)`")));
            }
        }
    }
    for mac in HOT_MACROS {
        for at in ident_occurrences(code, mac) {
            if code.get(at + mac.len()) == Some(&b'!') {
                hits.push((at, format!("allocating macro `{mac}!`")));
            }
        }
    }
    for p in HOT_PATHS {
        let mut from = 0usize;
        while let Some(at) = crate::scan::find_bytes(code, p.as_bytes(), from) {
            if at == 0 || !is_ident_char(code[at - 1]) {
                hits.push((at, format!("allocating constructor `{p}`")));
            }
            from = at + 1;
        }
    }
    for (at, what) in hits {
        let line = s.line_of(at);
        if !d.is_hot(line) {
            continue;
        }
        push(
            out,
            s,
            d,
            path,
            at,
            RULE_HOT_ALLOC,
            format!("{what} inside a `lint: hot-path` region"),
        );
    }
}

/// Iteration adaptors whose order is nondeterministic on hash
/// containers.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

pub(crate) fn check_hash_order(
    path: &str,
    s: &ScannedFile,
    d: &LineDirectives,
    out: &mut Vec<Finding>,
) {
    let code = s.code.as_bytes();
    let tracked = hash_bound_idents(s);
    if tracked.is_empty() {
        return;
    }
    for method in HASH_ITER_METHODS {
        for at in ident_occurrences(code, method) {
            let dot = match prev_non_ws(code, at) {
                Some((i, b'.')) => i,
                _ => continue,
            };
            let called = matches!(
                next_non_ws(code, at + method.len()),
                Some((_, b'(')) | Some((_, b':'))
            );
            if !called {
                continue;
            }
            // The receiver may sit on the previous line of a method
            // chain; skip whitespace between it and the dot.
            let recv_end = match prev_non_ws(code, dot) {
                Some((i, b)) if is_ident_char(b) => i + 1,
                _ => continue,
            };
            let receiver = match ident_before(code, recv_end) {
                Some(id) => id,
                None => continue,
            };
            if tracked.contains(receiver) {
                push(
                    out,
                    s,
                    d,
                    path,
                    at,
                    RULE_HASH_ORDER,
                    format!(
                        "`{receiver}.{method}()` iterates a hash container in nondeterministic \
                         order; collect and sort, use a BTree container, or waive with a reason"
                    ),
                );
            }
        }
    }
    // `for x in [&][mut ]path.to.ident { ... }`
    for at in ident_occurrences(code, "in") {
        let mut j = at + 2;
        loop {
            match code.get(j) {
                Some(&b) if b.is_ascii_whitespace() || b == b'&' => j += 1,
                _ => break,
            }
        }
        if code.get(j..j + 4) == Some(b"mut ") {
            j += 4;
        }
        let start = j;
        while j < code.len() && (is_ident_char(code[j]) || code[j] == b'.' || code[j] == b':') {
            j += 1;
        }
        if j == start {
            continue;
        }
        // Trailing identifier of the path: `self.cell_to_hyper` ->
        // `cell_to_hyper`. Method calls (`map.keys()`) end with `)` and
        // are handled by the method branch above.
        let last = match ident_before(code, j) {
            Some(id) => id,
            None => continue,
        };
        let followed_by_block = matches!(next_non_ws(code, j), Some((_, b'{')));
        if followed_by_block && tracked.contains(last) {
            push(
                out,
                s,
                d,
                path,
                at,
                RULE_HASH_ORDER,
                format!(
                    "`for .. in {last}` iterates a hash container in nondeterministic order; \
                     collect and sort, use a BTree container, or waive with a reason"
                ),
            );
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` values in this file:
/// `let [mut] <id> ... Hash{Map,Set}` bindings and
/// `<id>: [&][mut ][path::]Hash{Map,Set}` field or parameter
/// declarations.
pub(crate) fn hash_bound_idents(s: &ScannedFile) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    let code = s.code.as_bytes();
    for container in ["HashMap", "HashSet"] {
        for at in ident_occurrences(code, container) {
            let line = s.line_of(at);
            let text = s.line_str(line);
            if find_token(text, "use").is_some() {
                continue;
            }
            if let Some(let_pos) = find_token(text, "let") {
                let mut rest = text[let_pos + 3..].trim_start();
                if let Some(r) = rest.strip_prefix("mut ") {
                    rest = r.trim_start();
                }
                let id: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !id.is_empty() {
                    tracked.insert(id);
                }
                continue;
            }
            // Work backwards from the container token through the type
            // prefix (`&`, `mut`, `path::` segments) to a single `:`.
            let col = at - s.line_start(line);
            let mut prefix = text[..col].trim_end();
            loop {
                if let Some(p) = prefix.strip_suffix('&') {
                    prefix = p.trim_end();
                } else if let Some(p) = prefix.strip_suffix("mut") {
                    if p.is_empty() || p.ends_with([' ', '&', '(']) {
                        prefix = p.trim_end();
                    } else {
                        break;
                    }
                } else if let Some(p) = prefix.strip_suffix("::") {
                    // `std::collections::HashMap`: drop the whole
                    // leading path, then resume.
                    prefix = p.trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
                    prefix = prefix.trim_end();
                } else {
                    break;
                }
            }
            if prefix.ends_with(':') && !prefix.ends_with("::") {
                let before_colon = prefix[..prefix.len() - 1].trim_end().as_bytes();
                if let Some(id) = ident_before(before_colon, before_colon.len()) {
                    tracked.insert(id.to_string());
                }
            }
        }
    }
    tracked
}

pub(crate) fn find_token(text: &str, token: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0usize;
    while let Some(at) = crate::scan::find_bytes(bytes, token.as_bytes(), from) {
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let after = at + token.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}
