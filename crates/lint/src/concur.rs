//! Concurrency and determinism audit rules (DESIGN.md §16).
//!
//! Four rules that lean on the [`crate::item_tree`] structural index
//! and a per-crate function/call index:
//!
//! * **atomic-order** — every `Ordering::Relaxed` site must carry a
//!   reasoned waiver recording its happens-before argument; `SeqCst`
//!   is flagged as probably-overkill; `Acquire`/`Release` sites must
//!   pair up per atomic (receiver) within a file, or record where the
//!   other side lives.
//! * **lock-order** — builds the Mutex/RwLock acquisition graph from
//!   nested `.lock()`/`.write()`/`.read()` guard scopes (including
//!   acquisitions reached through same-crate calls) and fails on
//!   cycles.
//! * **float-det** — order-sensitive `f64` accumulation (`.sum()`,
//!   `.product()`, `+=` in loops) over parallel-produced or
//!   hash-ordered sequences outside the blessed fixed-chunk reducers
//!   in `pubsub_core::parallel`.
//! * **thread-panic** — closures crossing a thread boundary
//!   (`spawn`) that can panic — directly or through a same-crate
//!   callee — without a `catch_unwind`-style boundary.
//!
//! All four require *reasoned* waivers: a bare `lint: allow(rule)`
//! does not silence them, because the recorded argument is the point
//! of the audit. Known blind spots are documented in DESIGN.md §16.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::item_tree::calls_in;
use crate::rules::{
    find_token, hash_bound_idents, ident_before, ident_occurrences, is_ident_char, next_non_ws,
    prev_non_ws, push_reasoned, Finding,
};
use crate::SourceFile;

/// Relaxed/unpaired/overkill atomic memory orderings need a recorded
/// happens-before argument.
pub const RULE_ATOMIC_ORDER: &str = "atomic-order";
/// The workspace lock-acquisition graph must be acyclic.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Order-sensitive float accumulation outside the blessed reducers.
pub const RULE_FLOAT_DET: &str = "float-det";
/// Panics must not cross thread boundaries unguarded.
pub const RULE_THREAD_PANIC: &str = "thread-panic";

/// The crate a workspace-relative path belongs to (`crates/<name>/..`).
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "",
    }
}

// ---------------------------------------------------------------------
// Shared token-walking helpers.
// ---------------------------------------------------------------------

/// Byte offset of the `[`/`(` matching the closer at `close`.
fn matching_open(code: &[u8], close: usize) -> Option<usize> {
    let (open_b, close_b) = match code.get(close)? {
        b']' => (b'[', b']'),
        b')' => (b'(', b')'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut i = close + 1;
    while i > 0 {
        i -= 1;
        if code[i] == close_b {
            depth += 1;
        } else if code[i] == open_b {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Byte offset of the `)` matching the opener at `open` (or EOF).
fn matching_close(code: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in code.iter().enumerate().skip(open) {
        if b == b'(' {
            depth += 1;
        } else if b == b')' {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// The receiver identifier of a method call whose `.` sits at `dot`:
/// `self.epoch.load(..)` → `epoch`, `slots[i].lock()` → `slots`.
fn receiver_ident(code: &[u8], dot: usize) -> Option<String> {
    let (i, b) = prev_non_ws(code, dot)?;
    let end = if b == b']' || b == b')' {
        let open = matching_open(code, i)?;
        let (j, b2) = prev_non_ws(code, open)?;
        if !is_ident_char(b2) {
            return None;
        }
        j + 1
    } else if is_ident_char(b) {
        i + 1
    } else {
        return None;
    };
    ident_before(code, end).map(str::to_string)
}

/// Start of the statement containing `pos`: the byte just after the
/// previous `;`, `{`, `}`, or unmatched opener at nesting depth 0.
fn stmt_start(code: &[u8], pos: usize) -> usize {
    let mut depth = 0usize;
    let mut i = pos;
    while i > 0 {
        i -= 1;
        match code[i] {
            b')' | b']' => depth += 1,
            b'(' | b'[' => {
                if depth == 0 {
                    return i + 1;
                }
                depth -= 1;
            }
            b';' | b'{' | b'}' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    0
}

/// End of the statement containing `pos`: the next `;` or block `{`
/// at nesting depth 0.
fn stmt_end(code: &[u8], pos: usize) -> usize {
    let mut depth = 0usize;
    let mut i = pos;
    while i < code.len() {
        match code[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b';' | b'{' | b'}' if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Whether `range` of the cleaned code contains `token` as a whole
/// identifier.
fn span_has_token(code: &[u8], range: &Range<usize>, token: &str) -> bool {
    let span = &code[range.start.min(code.len())..range.end.min(code.len())];
    std::str::from_utf8(span).is_ok_and(|s| find_token(s, token).is_some())
}

/// Whether `range` smells like float math: an `f64`/`f32` token or a
/// `<digit>.<digit>` literal.
fn span_is_floaty(code: &[u8], range: &Range<usize>) -> bool {
    if span_has_token(code, range, "f64") || span_has_token(code, range, "f32") {
        return true;
    }
    let span = &code[range.start.min(code.len())..range.end.min(code.len())];
    span.windows(3)
        .any(|w| matches!(w, [a, b'.', c] if a.is_ascii_digit() && c.is_ascii_digit()))
}

/// Whether the call whose name starts at `start` may be resolved
/// against the per-crate index: plain and `path::` calls always, but
/// method calls only on a `self` receiver. Resolving `x.insert(..)`
/// against an unrelated same-crate `fn insert` would smear that fn's
/// facts over every container call in the crate.
fn resolvable_call(code: &[u8], start: usize) -> bool {
    match prev_non_ws(code, start) {
        Some((dot, b'.')) => receiver_ident(code, dot).as_deref() == Some("self"),
        _ => true,
    }
}

// ---------------------------------------------------------------------
// Rule: atomic-order.
// ---------------------------------------------------------------------

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const RMW_METHODS: [&str; 12] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The call a byte position is an argument of: the byte offset of the
/// unmatched `(` to its left within the current statement.
fn enclosing_call_open(code: &[u8], pos: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = pos;
    while i > 0 {
        i -= 1;
        match code[i] {
            b')' | b']' => depth += 1,
            b'(' => {
                if depth == 0 {
                    return Some(i);
                }
                depth -= 1;
            }
            b'[' => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            b';' | b'{' | b'}' if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Audits every `Ordering::<X>` site in one file. See module docs.
pub fn check_atomic_order(file: &SourceFile, out: &mut Vec<Finding>) {
    let s = &file.scanned;
    let code = s.code.as_bytes();
    // Per-receiver Acquire-side and Release-side site lists (library
    // lines only, so a test-only release can't "pair" a library
    // acquire).
    let mut acquires: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let mut releases: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();

    for at in ident_occurrences(code, "Ordering") {
        // `Ordering::<one of the five atomic orderings>`; this also
        // keeps `cmp::Ordering::Less` comparators out.
        let after = at + "Ordering".len();
        let c1 = match next_non_ws(code, after) {
            Some((i, b':')) => i,
            _ => continue,
        };
        if code.get(c1 + 1) != Some(&b':') {
            continue;
        }
        let (ord_start, b) = match next_non_ws(code, c1 + 2) {
            Some(pair) => pair,
            None => continue,
        };
        if !is_ident_char(b) {
            continue;
        }
        let mut ord_end = ord_start;
        while ord_end < code.len() && is_ident_char(code[ord_end]) {
            ord_end += 1;
        }
        let ord = match std::str::from_utf8(&code[ord_start..ord_end]) {
            Ok(o) => o,
            Err(_) => continue,
        };
        let Some(ord) = ATOMIC_ORDERINGS.iter().find(|o| **o == ord) else {
            continue;
        };

        // The method this ordering is an argument of, and its
        // receiver: `self.epoch.load(Ordering::Acquire)`.
        let (method, receiver) = match enclosing_call_open(code, at) {
            Some(open) => {
                let method = ident_before(code, open).map(str::to_string);
                let receiver = method.as_ref().and_then(|m| {
                    let m_start = open - m.len();
                    match prev_non_ws(code, m_start) {
                        Some((dot, b'.')) => receiver_ident(code, dot),
                        _ => None,
                    }
                });
                (method, receiver)
            }
            None => (None, None),
        };
        let what = match (&receiver, &method) {
            (Some(r), Some(m)) => format!("`{r}.{m}`"),
            (None, Some(m)) => format!("`{m}`"),
            _ => "an unclassifiable site".to_string(),
        };
        let is_load = method.as_deref() == Some("load");
        let is_store = method.as_deref() == Some("store");
        let is_rmw = method.as_deref().is_some_and(|m| RMW_METHODS.contains(&m));

        match *ord {
            "Relaxed" => push_reasoned(
                out,
                s,
                &file.directives,
                &file.rel,
                at,
                RULE_ATOMIC_ORDER,
                format!(
                    "`Ordering::Relaxed` on {what}; record the happens-before argument with \
                     `// lint: allow(atomic-order): <why>` or strengthen the ordering"
                ),
            ),
            "SeqCst" => {
                // SeqCst still pairs with Acquire/Release sides below;
                // the finding is about cost, not correctness.
                if !s.is_test_line(s.line_of(at)) {
                    let key = receiver.clone().unwrap_or_else(|| "?".to_string());
                    if is_load || is_rmw {
                        acquires.entry(key.clone()).or_default();
                    }
                    if is_store || is_rmw {
                        releases.entry(key).or_default();
                    }
                }
                push_reasoned(
                    out,
                    s,
                    &file.directives,
                    &file.rel,
                    at,
                    RULE_ATOMIC_ORDER,
                    format!(
                        "`Ordering::SeqCst` on {what} is probably overkill; prefer \
                         Acquire/Release with a recorded pairing, or waive with the reason a \
                         total order is required"
                    ),
                )
            }
            _ => {
                // Acquire / Release / AcqRel: collect for pairing.
                if s.is_test_line(s.line_of(at)) {
                    continue;
                }
                let key = receiver.clone().unwrap_or_else(|| "?".to_string());
                let acq_side = (is_load || is_rmw) && (*ord == "Acquire" || *ord == "AcqRel");
                let rel_side = (is_store || is_rmw) && (*ord == "Release" || *ord == "AcqRel");
                if acq_side {
                    acquires
                        .entry(key.clone())
                        .or_default()
                        .push((at, what.clone()));
                }
                if rel_side {
                    releases
                        .entry(key.clone())
                        .or_default()
                        .push((at, what.clone()));
                }
                if !acq_side && !rel_side {
                    push_reasoned(
                        out,
                        s,
                        &file.directives,
                        &file.rel,
                        at,
                        RULE_ATOMIC_ORDER,
                        format!(
                            "`Ordering::{ord}` on {what} is not a recognizable load/store/RMW \
                             site; waive with the pairing argument"
                        ),
                    );
                }
            }
        }
    }

    // Unpaired sides: an Acquire with no same-receiver Release-side
    // writer in this file (or vice versa) needs the cross-file pairing
    // recorded.
    for (recv, sites) in &acquires {
        if releases.contains_key(recv) {
            continue;
        }
        for (at, what) in sites {
            push_reasoned(
                out,
                s,
                &file.directives,
                &file.rel,
                *at,
                RULE_ATOMIC_ORDER,
                format!(
                    "Acquire on {what} has no Release-side writer of `{recv}` in this file; \
                     record where the release lives with `// lint: allow(atomic-order): <where>`"
                ),
            );
        }
    }
    for (recv, sites) in &releases {
        if acquires.contains_key(recv) {
            continue;
        }
        for (at, what) in sites {
            push_reasoned(
                out,
                s,
                &file.directives,
                &file.rel,
                *at,
                RULE_ATOMIC_ORDER,
                format!(
                    "Release on {what} has no Acquire-side reader of `{recv}` in this file; \
                     record where the acquire lives with `// lint: allow(atomic-order): <where>`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Per-crate function/call index.
// ---------------------------------------------------------------------

/// Facts about one (possibly merged, if names collide) function.
#[derive(Debug, Default, Clone)]
pub struct FnFacts {
    /// Contains a panic source, directly or via a same-crate callee.
    pub can_panic: bool,
    /// Contains a `catch_unwind` boundary, capping panic propagation.
    pub has_boundary: bool,
    /// Lock names acquired in the body, directly or transitively.
    pub acquires: BTreeSet<String>,
    /// Same-crate call targets (by bare name).
    pub calls: BTreeSet<String>,
}

/// Name → facts for every `fn` in one crate, closed under same-crate
/// calls (a fixed point over `can_panic` and `acquires`).
pub type CrateIndex = BTreeMap<String, FnFacts>;

/// Every direct panic source in a file: `.unwrap()`/`.expect(..)`
/// method calls and the panic-family macros, as `(position,
/// human-readable token)` pairs.
fn panic_sites(code: &[u8]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for m in ["unwrap", "expect"] {
        for at in ident_occurrences(code, m) {
            let is_method = matches!(prev_non_ws(code, at), Some((_, b'.')));
            let called = matches!(next_non_ws(code, at + m.len()), Some((_, b'(')));
            if is_method && called {
                out.push((at, format!(".{m}(..)")));
            }
        }
    }
    for mac in [
        "panic",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ] {
        for at in ident_occurrences(code, mac) {
            if code.get(at + mac.len()) == Some(&b'!') {
                out.push((at, format!("{mac}!")));
            }
        }
    }
    out.sort();
    out
}

/// Direct panic evidence inside `range`, if any (a human-readable
/// token for the finding message).
fn direct_panic_evidence(code: &[u8], range: &Range<usize>) -> Option<String> {
    panic_sites(code)
        .into_iter()
        .find(|(at, _)| range.contains(at))
        .map(|(_, token)| token)
}

/// Builds the per-crate indexes for a set of files. Functions inside
/// `#[cfg(test)]` regions are skipped (test code panics by design and
/// must not poison library facts).
pub fn build_indexes(files: &[SourceFile]) -> BTreeMap<String, CrateIndex> {
    let mut indexes: BTreeMap<String, CrateIndex> = BTreeMap::new();
    for file in files {
        let s = &file.scanned;
        let code = s.code.as_bytes();
        let index = indexes.entry(crate_of(&file.rel).to_string()).or_default();
        // Per-file extractions, hoisted out of the per-fn loop.
        let sites = lock_sites(file);
        let panic_positions: Vec<usize> = panic_sites(code).into_iter().map(|(p, _)| p).collect();
        let boundary_positions = ident_occurrences(code, "catch_unwind");
        let all_calls = calls_in(code, 0..code.len());
        for f in &file.tree.fns {
            if s.is_test_line(s.line_of(f.header)) {
                continue;
            }
            let Some(body) = file.tree.fn_body(f) else {
                continue;
            };
            let range = body.start..body.end;
            let direct_panic = panic_positions.iter().any(|p| range.contains(p));
            let has_boundary = boundary_positions.iter().any(|p| range.contains(p));
            let calls: BTreeSet<String> = all_calls
                .iter()
                .filter(|(pos, _)| range.contains(pos) && resolvable_call(code, *pos))
                .map(|(_, name)| name.clone())
                .collect();
            let acquires: BTreeSet<String> = sites
                .iter()
                .filter(|site| range.contains(&site.pos))
                .map(|site| site.name.clone())
                .collect();
            // Same-name collisions (e.g. `new` across impls) merge
            // conservatively: any colliding fn panicking marks the
            // name panicking; a boundary only counts if all carriers
            // have one.
            let entry = index.entry(f.name.clone()).or_insert_with(|| FnFacts {
                has_boundary: true,
                ..FnFacts::default()
            });
            entry.can_panic |= direct_panic;
            entry.has_boundary &= has_boundary;
            entry.acquires.extend(acquires);
            entry.calls.extend(calls);
        }
    }
    for index in indexes.values_mut() {
        propagate(index);
    }
    indexes
}

/// Closes `can_panic` and `acquires` over same-crate calls.
fn propagate(index: &mut CrateIndex) {
    loop {
        let mut changed = false;
        let names: Vec<String> = index.keys().cloned().collect();
        for name in &names {
            let facts = index[name].clone();
            let mut can_panic = facts.can_panic;
            let mut acquires = facts.acquires.clone();
            for callee in &facts.calls {
                if callee == name {
                    continue;
                }
                if let Some(target) = index.get(callee) {
                    can_panic |= target.can_panic && !target.has_boundary;
                    acquires.extend(target.acquires.iter().cloned());
                }
            }
            let entry = index
                .get_mut(name)
                .filter(|e| can_panic != e.can_panic || acquires.len() != e.acquires.len());
            if let Some(entry) = entry {
                entry.can_panic = can_panic;
                entry.acquires = acquires;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Whether a call to `name` in `krate` can panic per the index.
fn callee_can_panic<'a>(
    indexes: &'a BTreeMap<String, CrateIndex>,
    krate: &str,
    name: &str,
) -> Option<&'a FnFacts> {
    indexes
        .get(krate)
        .and_then(|idx| idx.get(name))
        .filter(|facts| facts.can_panic && !facts.has_boundary)
}

// ---------------------------------------------------------------------
// Rule: lock-order.
// ---------------------------------------------------------------------

/// One `.lock()`/`.write()`/`.read()` acquisition and the span its
/// guard is conservatively assumed to live for.
struct LockSite {
    /// Byte offset of the method name.
    pos: usize,
    /// The receiver identifier — the graph's node name.
    name: String,
    /// Guard lifetime: statement end for temporaries, enclosing block
    /// end for `let`-bound (and `if let`/`match`) guards.
    range: Range<usize>,
}

/// Extracts the lock-acquisition sites of one file. `.read()`/
/// `.write()` only count in files that mention `RwLock` and only with
/// empty argument lists, which keeps `io::Read`/`Write` out.
fn lock_sites(file: &SourceFile) -> Vec<LockSite> {
    let s = &file.scanned;
    let code = s.code.as_bytes();
    let has_rwlock = find_token(&s.code, "RwLock").is_some();
    let mut out = Vec::new();
    for method in ["lock", "write", "read"] {
        if method != "lock" && !has_rwlock {
            continue;
        }
        for at in ident_occurrences(code, method) {
            let dot = match prev_non_ws(code, at) {
                Some((i, b'.')) => i,
                _ => continue,
            };
            let open = match next_non_ws(code, at + method.len()) {
                Some((i, b'(')) => i,
                _ => continue,
            };
            // Lock acquisition takes no arguments.
            if !matches!(next_non_ws(code, open + 1), Some((_, b')'))) {
                continue;
            }
            let Some(name) = receiver_ident(code, dot) else {
                continue;
            };
            let start = stmt_start(code, at);
            let head = std::str::from_utf8(&code[start..at]).unwrap_or("");
            let bound = find_token(head, "let").is_some() || find_token(head, "match").is_some();
            let end = if bound {
                file.tree.enclosing_block_end(at, code.len())
            } else {
                stmt_end(code, at)
            };
            out.push(LockSite {
                pos: at,
                name,
                range: at..end,
            });
        }
    }
    out
}

/// A held-lock → acquired-lock edge, recorded at the inner
/// acquisition (or call) site.
struct LockEdge {
    from: String,
    to: String,
    file: usize,
    pos: usize,
}

/// Builds the workspace lock graph and reports every edge that
/// participates in a cycle. A reasoned waiver on the inner acquisition
/// site removes the edge *before* cycle detection, so one justified
/// edge breaks the whole cycle.
pub fn check_lock_order(
    files: &[SourceFile],
    indexes: &BTreeMap<String, CrateIndex>,
    out: &mut Vec<Finding>,
) {
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut seen: BTreeSet<(String, String, usize, usize)> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        let s = &file.scanned;
        let code = s.code.as_bytes();
        let krate = crate_of(&file.rel);
        let sites = lock_sites(file);
        let mut push_edge = |from: &str, to: &str, pos: usize| {
            let line = s.line_of(pos);
            if s.is_test_line(line)
                || file
                    .directives
                    .is_allowed_with_reason(line, RULE_LOCK_ORDER)
            {
                return;
            }
            if seen.insert((from.to_string(), to.to_string(), fi, line)) {
                edges.push(LockEdge {
                    from: from.to_string(),
                    to: to.to_string(),
                    file: fi,
                    pos,
                });
            }
        };
        for a in &sites {
            if s.is_test_line(s.line_of(a.pos)) {
                continue;
            }
            // Direct nesting: another acquisition while `a` is held.
            for b in &sites {
                if b.pos > a.pos && a.range.contains(&b.pos) {
                    push_edge(&a.name, &b.name, b.pos);
                }
            }
            // Calls made while `a` is held acquire whatever the
            // callee (transitively) acquires. The acquisition call at
            // `a.pos` itself is excluded — the guard does not exist
            // until it returns.
            for (pos, callee) in calls_in(code, a.pos..a.range.end) {
                if pos == a.pos || !resolvable_call(code, pos) {
                    continue;
                }
                let Some(idx) = indexes.get(krate) else {
                    continue;
                };
                let Some(facts) = idx.get(&callee) else {
                    continue;
                };
                for to in &facts.acquires {
                    push_edge(&a.name, to, pos);
                }
            }
        }
    }

    // Adjacency over lock names; an edge is cyclic iff its target
    // reaches its source.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |from: &str, to: &str| -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !visited.insert(n) {
                continue;
            }
            for next in adj.get(n).into_iter().flatten() {
                if *next == to {
                    return true;
                }
                stack.push(next);
            }
        }
        false
    };
    for e in &edges {
        if !reaches(&e.to, &e.from) {
            continue;
        }
        let file = &files[e.file];
        let (from, to) = (&e.from, &e.to);
        let detail = if from == to {
            format!("re-acquires `{to}` while a `{from}` guard is still live (self-deadlock)")
        } else {
            format!(
                "acquires `{to}` while `{from}` is held, and `{to}` already reaches `{from}` \
                 in the workspace lock graph (deadlock cycle)"
            )
        };
        push_reasoned(
            out,
            &file.scanned,
            &file.directives,
            &file.rel,
            e.pos,
            RULE_LOCK_ORDER,
            format!("{detail}; fix the acquisition order or waive with the reason it is safe"),
        );
    }
}

// ---------------------------------------------------------------------
// Rule: float-det.
// ---------------------------------------------------------------------

/// `pubsub_core::parallel` helpers that *produce* per-thread data
/// whose reduction order must then be fixed by the consumer.
const PAR_PRODUCERS: [&str; 3] = ["par_chunks", "par_map", "par_map_indexed"];

/// The blessed reducer module: fixed-chunk decomposition lives here,
/// so its own internals are exempt.
const BLESSED_FLOAT_MODULE: &str = "core/src/parallel.rs";

/// Start of the method chain a `.` at `dot` belongs to: walks left
/// over `.method(args)`, `.field`, `[index]`, and `path::` segments.
fn chain_start(code: &[u8], dot: usize) -> usize {
    let mut i = dot;
    loop {
        let Some((j, b)) = prev_non_ws(code, i) else {
            return i;
        };
        let seg_end = if b == b')' || b == b']' {
            match matching_open(code, j) {
                Some(open) => match prev_non_ws(code, open) {
                    Some((k, b2)) if is_ident_char(b2) => k + 1,
                    // `(expr).method()` — the paren group is the head.
                    _ => return open,
                },
                None => return i,
            }
        } else if is_ident_char(b) {
            j + 1
        } else {
            return i;
        };
        // The identifier (plus any `path::` prefix) ending at seg_end.
        let mut start = seg_end;
        while start > 0 && is_ident_char(code[start - 1]) {
            start -= 1;
        }
        while start >= 2 && &code[start - 2..start] == b"::" {
            start -= 2;
            while start > 0 && is_ident_char(code[start - 1]) {
                start -= 1;
            }
        }
        match prev_non_ws(code, start) {
            Some((m, b'.')) => i = m,
            _ => return start,
        }
    }
}

/// Flags order-sensitive `f64` accumulation over parallel-produced or
/// hash-ordered sequences. See module docs for what counts.
pub fn check_float_det(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.rel.ends_with(BLESSED_FLOAT_MODULE) {
        return;
    }
    let s = &file.scanned;
    let code = s.code.as_bytes();
    let hash_idents = hash_bound_idents(s);
    let source_kind = |range: &Range<usize>| -> Option<&'static str> {
        if PAR_PRODUCERS.iter().any(|p| span_has_token(code, range, p)) {
            return Some("parallel-produced");
        }
        if hash_idents.iter().any(|id| span_has_token(code, range, id)) {
            return Some("hash-ordered");
        }
        None
    };

    // `.sum()` / `.product()` at the end of a chain whose head span
    // mentions a parallel producer or a hash-bound identifier.
    for method in ["sum", "product"] {
        for at in ident_occurrences(code, method) {
            let dot = match prev_non_ws(code, at) {
                Some((i, b'.')) => i,
                _ => continue,
            };
            if !matches!(
                next_non_ws(code, at + method.len()),
                Some((_, b'(')) | Some((_, b':'))
            ) {
                continue;
            }
            let chain = chain_start(code, dot)..at;
            let stmt = stmt_start(code, at)..stmt_end(code, at);
            let Some(kind) = source_kind(&chain) else {
                continue;
            };
            if !span_is_floaty(code, &stmt) {
                continue;
            }
            push_reasoned(
                out,
                s,
                &file.directives,
                &file.rel,
                at,
                RULE_FLOAT_DET,
                format!(
                    "order-sensitive f64 accumulation: `.{method}()` over a {kind} sequence \
                     outside `pubsub_core::parallel`; reduce through the blessed fixed-chunk \
                     helpers or waive with the determinism argument"
                ),
            );
        }
    }

    // `+=` inside a `for .. in <par-or-hash expr>` loop whose span
    // smells like float math.
    let mut i = 1;
    while i < code.len() {
        let is_plus_eq = code[i] == b'=' && code[i - 1] == b'+' && (i < 2 || code[i - 2] != b'+');
        if !is_plus_eq {
            i += 1;
            continue;
        }
        let at = i - 1;
        i += 1;
        let mut block = file.tree.innermost_block(at);
        while let Some(b) = block {
            let header_start = stmt_start(code, b.start);
            let header = code[header_start..b.start].to_vec();
            let header_str = std::str::from_utf8(&header).unwrap_or("");
            let is_for =
                header_str.trim_start().starts_with("for ") || header_str.trim_start() == "for";
            if is_for {
                if let Some(in_pos) = find_token(header_str, "in") {
                    let iter_expr = (header_start + in_pos)..b.start;
                    // Float suspicion looks at the whole enclosing fn:
                    // the accumulator's `0.0` initializer and the `->
                    // f64` return type usually sit outside the loop.
                    let floaty_span = match file.tree.enclosing_fn(at) {
                        Some(f) => {
                            let end = file.tree.fn_body(f).map_or(b.end, |body| body.end);
                            f.header..end
                        }
                        None => header_start..b.end,
                    };
                    if let Some(kind) = source_kind(&iter_expr) {
                        if span_is_floaty(code, &floaty_span) {
                            push_reasoned(
                                out,
                                s,
                                &file.directives,
                                &file.rel,
                                at,
                                RULE_FLOAT_DET,
                                format!(
                                    "order-sensitive f64 accumulation: `+=` in a loop over a \
                                     {kind} sequence outside `pubsub_core::parallel`; reduce \
                                     through the blessed fixed-chunk helpers or waive with the \
                                     determinism argument"
                                ),
                            );
                            break;
                        }
                    }
                }
            }
            block = b.parent.and_then(|p| file.tree.blocks.get(p));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: thread-panic.
// ---------------------------------------------------------------------

/// Calls whose closure argument runs on another thread. (`thread::
/// scope`'s own closure runs on the caller thread and is exempt; the
/// closures it passes to `Scope::spawn` are not.)
const BOUNDARY_CALLS: [&str; 1] = ["spawn"];

/// Flags thread-boundary closures that can panic — directly or via a
/// same-crate callee — without a `catch_unwind` boundary in the span.
pub fn check_thread_panic(
    files: &[SourceFile],
    indexes: &BTreeMap<String, CrateIndex>,
    out: &mut Vec<Finding>,
) {
    for file in files {
        let s = &file.scanned;
        let code = s.code.as_bytes();
        let krate = crate_of(&file.rel);
        for name in BOUNDARY_CALLS {
            for at in ident_occurrences(code, name) {
                let open = at + name.len();
                if code.get(open) != Some(&b'(') {
                    continue;
                }
                // Skip `fn spawn(..)` definitions — the rule audits
                // call sites.
                let is_def = matches!(
                    prev_non_ws(code, at),
                    Some((i, _)) if ident_before(code, i + 1) == Some("fn")
                );
                if is_def {
                    continue;
                }
                let close = matching_close(code, open);
                let span = open + 1..close;
                if span_has_token(code, &span, "catch_unwind") {
                    continue;
                }
                let evidence = direct_panic_evidence(code, &span).or_else(|| {
                    calls_in(code, span.clone())
                        .into_iter()
                        .find_map(|(pos, callee)| {
                            if !resolvable_call(code, pos) {
                                return None;
                            }
                            callee_can_panic(indexes, krate, &callee)
                                .map(|_| format!("calls `{callee}`, which can panic"))
                        })
                });
                let Some(evidence) = evidence else {
                    continue;
                };
                push_reasoned(
                    out,
                    s,
                    &file.directives,
                    &file.rel,
                    at,
                    RULE_THREAD_PANIC,
                    format!(
                        "closure passed to `{name}` can panic ({evidence}) with no \
                         `catch_unwind`-style boundary; contain the panic or waive with the \
                         argument for why escape is acceptable"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileKind, SourceFile};

    fn sf(src: &str) -> SourceFile {
        SourceFile::new("crates/demo/src/lib.rs", src, FileKind::Library)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn receiver_walks_through_index_expressions() {
        let code = b"slots[i].lock()";
        let dot = code.iter().position(|&b| b == b'.').expect("dot");
        assert_eq!(receiver_ident(code, dot).as_deref(), Some("slots"));
        let code = b"self.shared.queue.lock()";
        assert_eq!(receiver_ident(code, 17).as_deref(), Some("queue"));
    }

    #[test]
    fn chain_start_spans_multiline_method_chains() {
        let src = "fn f() { let t: f64 = parallel::par_chunks(n, 4, |r| go(r))\n    .into_iter()\n    .sum(); }";
        let code = src.as_bytes();
        let sum_at = src.find("sum").expect("sum");
        let dot = prev_non_ws(code, sum_at).expect("dot").0;
        let start = chain_start(code, dot);
        let span = &src[start..sum_at];
        assert!(span.starts_with("parallel::par_chunks"), "span: {span}");
    }

    #[test]
    fn relaxed_without_reason_is_flagged_and_with_reason_is_not() {
        let bad = sf("fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }");
        let mut out = Vec::new();
        check_atomic_order(&bad, &mut out);
        assert_eq!(rules_of(&out), vec![RULE_ATOMIC_ORDER]);

        let waived = sf(
            "fn f(c: &AtomicU64) -> u64 {\n    // lint: allow(atomic-order): stats counter, exact after join\n    c.load(Ordering::Relaxed)\n}",
        );
        out.clear();
        check_atomic_order(&waived, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let reasonless = sf(
            "fn f(c: &AtomicU64) -> u64 {\n    // lint: allow(atomic-order)\n    c.load(Ordering::Relaxed)\n}",
        );
        out.clear();
        check_atomic_order(&reasonless, &mut out);
        assert_eq!(out.len(), 1, "bare waiver must not count: {out:?}");
    }

    #[test]
    fn paired_acquire_release_is_silent_and_unpaired_is_not() {
        let paired = sf("fn get(e: &E) -> u64 { e.epoch.load(Ordering::Acquire) }\n\
             fn publish(e: &E) { e.epoch.fetch_add(1, Ordering::Release); }");
        let mut out = Vec::new();
        check_atomic_order(&paired, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let unpaired = sf("fn get(e: &E) -> u64 { e.epoch.load(Ordering::Acquire) }");
        out.clear();
        check_atomic_order(&unpaired, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no Release-side writer"));
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let file = sf("fn f(a: u32, b: u32) -> Ordering { Ordering::Less.then(a.cmp(&b)) }");
        let mut out = Vec::new();
        check_atomic_order(&file, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn opposite_lock_orders_cycle_and_consistent_orders_do_not() {
        let cyclic = sf("fn ab() { let a = ALPHA.lock(); let b = BETA.lock(); }\n\
             fn ba() { let b = BETA.lock(); let a = ALPHA.lock(); }");
        let files = [cyclic];
        let idx = build_indexes(&files);
        let mut out = Vec::new();
        check_lock_order(&files, &idx, &mut out);
        assert_eq!(
            rules_of(&out),
            vec![RULE_LOCK_ORDER, RULE_LOCK_ORDER],
            "{out:?}"
        );

        let ordered = sf("fn ab() { let a = ALPHA.lock(); let b = BETA.lock(); }\n\
             fn ab2() { let a = ALPHA.lock(); let b = BETA.lock(); }");
        let files = [ordered];
        let idx = build_indexes(&files);
        out.clear();
        check_lock_order(&files, &idx, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_cycle_through_a_same_crate_call_is_found() {
        let file = sf("fn outer() { let a = ALPHA.lock(); helper(); }\n\
             fn helper() { let b = BETA.lock(); let a = ALPHA.lock(); }");
        // helper acquires BETA then ALPHA; outer holds ALPHA across
        // the helper() call, so ALPHA -> BETA (via the call) and
        // BETA -> ALPHA (direct) close a cycle.
        let files = [file];
        let idx = build_indexes(&files);
        let mut out = Vec::new();
        check_lock_order(&files, &idx, &mut out);
        assert!(!out.is_empty(), "expected a cycle through helper()");
    }

    #[test]
    fn acquisition_call_itself_is_not_a_held_edge() {
        // Regression: the `.lock()` call at the acquisition site used
        // to resolve against a same-crate `fn lock` and build a
        // self-edge.
        let file = sf("impl Q { fn lock(&self) -> G { self.state.lock() } }\n\
             fn use_q(q: &Q) { let g = STATE_OWNER.lock(); }");
        let files = [file];
        let idx = build_indexes(&files);
        let mut out = Vec::new();
        check_lock_order(&files, &idx, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn serial_slice_sum_is_allowed_and_par_chain_is_not() {
        let serial = sf("fn mean(xs: &[f64]) -> f64 { let t: f64 = xs.iter().sum(); t }");
        let mut out = Vec::new();
        check_float_det(&serial, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let par = sf(
            "fn total(n: usize) -> f64 {\n    parallel::par_chunks(n, 4, |r| r.len() as f64 * 0.5)\n        .into_iter()\n        .sum()\n}",
        );
        out.clear();
        check_float_det(&par, &mut out);
        assert_eq!(rules_of(&out), vec![RULE_FLOAT_DET], "{out:?}");
    }

    #[test]
    fn hash_ordered_accumulation_is_flagged() {
        let file = sf(
            "fn f(m: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    for v in m.values() {\n        acc += v;\n    }\n    acc\n}",
        );
        let mut out = Vec::new();
        check_float_det(&file, &mut out);
        assert_eq!(rules_of(&out), vec![RULE_FLOAT_DET], "{out:?}");
        assert!(out[0].message.contains("hash-ordered"), "{out:?}");
    }

    #[test]
    fn spawned_panic_needs_a_boundary() {
        let bad = sf("fn f() { std::thread::spawn(|| x.expect(\"boom\")); }");
        let files = [bad];
        let idx = build_indexes(&files);
        let mut out = Vec::new();
        check_thread_panic(&files, &idx, &mut out);
        assert_eq!(rules_of(&out), vec![RULE_THREAD_PANIC], "{out:?}");

        let guarded = sf(
            "fn f() { std::thread::spawn(|| { let _ = std::panic::catch_unwind(|| x.expect(\"boom\")); }); }",
        );
        let files = [guarded];
        let idx = build_indexes(&files);
        out.clear();
        check_thread_panic(&files, &idx, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let quiet = sf("fn f() { std::thread::spawn(|| 1 + 1); }");
        let files = [quiet];
        let idx = build_indexes(&files);
        out.clear();
        check_thread_panic(&files, &idx, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn transitive_panic_reaches_the_boundary_and_boundaries_cap_it() {
        let file = sf("fn deep() { inner(); }\n\
             fn inner() { panic!(\"bad\"); }\n\
             fn f() { std::thread::spawn(|| deep()); }");
        let files = [file];
        let idx = build_indexes(&files);
        let mut out = Vec::new();
        check_thread_panic(&files, &idx, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("calls `deep`"), "{out:?}");

        let capped = sf("fn deep() { let _ = catch_unwind(|| inner()); }\n\
             fn inner() { panic!(\"bad\"); }\n\
             fn f() { std::thread::spawn(|| deep()); }");
        let files = [capped];
        let idx = build_indexes(&files);
        out.clear();
        check_thread_panic(&files, &idx, &mut out);
        assert!(
            out.is_empty(),
            "catch_unwind in deep() caps propagation: {out:?}"
        );
    }
}
