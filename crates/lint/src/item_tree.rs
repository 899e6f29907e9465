//! A brace-matched item tree over the cleaned token stream.
//!
//! The concurrency rules ([`crate::concur`]) need more structure than
//! the flat character scan provides: which `fn` a byte belongs to,
//! where a block ends (to bound a lock guard's scope), and which
//! functions a body calls (to propagate can-panic / may-acquire facts
//! through the per-crate call graph). [`ItemTree`] supplies exactly
//! that — still without parsing Rust: blocks are matched braces in the
//! comment/string-blanked code, functions are `fn <ident>` headers
//! followed by their first depth-0 `{`, and calls are identifiers
//! followed by `(`.
//!
//! Known blind spots (shared with the rest of the scanner, see
//! DESIGN.md §16): macro bodies look like ordinary code, and a `fn`
//! keyword inside a macro invocation is treated as a real item. Both
//! over-approximate, which for the audit rules means at worst an extra
//! waiver, never a silently missed site.

use crate::rules::{is_ident_char, next_non_ws};
use crate::scan::ScannedFile;

/// A matched `{ ... }` region of the cleaned code.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Byte offset of the opening `{`.
    pub start: usize,
    /// Byte offset of the matching `}` (== `code.len()` when the file
    /// is truncated / unbalanced).
    pub end: usize,
    /// Index of the innermost enclosing block, if any.
    pub parent: Option<usize>,
}

/// A `fn` item: its name and body block.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's identifier.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub header: usize,
    /// Index into [`ItemTree::blocks`] of the body, `None` for
    /// bodyless trait-method declarations.
    pub body: Option<usize>,
}

/// The per-file structural index: blocks, functions, call sites.
pub struct ItemTree {
    /// Every brace block, ordered by `start`.
    pub blocks: Vec<Block>,
    /// Every `fn` item, ordered by `header`.
    pub fns: Vec<FnItem>,
}

/// Keywords that look like call heads (`if (..)`, `match (..)`) and
/// must not be recorded as callees.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "else", "while", "for", "match", "loop", "return", "fn", "move", "in", "let", "break",
];

impl ItemTree {
    /// Builds the tree from a scanned file's cleaned code.
    pub fn build(s: &ScannedFile) -> ItemTree {
        let code = s.code.as_bytes();
        let mut blocks: Vec<Block> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for (i, &b) in code.iter().enumerate() {
            if b == b'{' {
                let parent = stack.last().copied();
                stack.push(blocks.len());
                blocks.push(Block {
                    start: i,
                    end: code.len(),
                    parent,
                });
            } else if b == b'}' {
                if let Some(idx) = stack.pop() {
                    blocks[idx].end = i;
                }
            }
        }

        let mut fns = Vec::new();
        for at in crate::rules::ident_occurrences(code, "fn") {
            // `fn` name: the next identifier.
            let (name_start, b) = match next_non_ws(code, at + 2) {
                Some(pair) => pair,
                None => continue,
            };
            if !is_ident_char(b) {
                continue;
            }
            let mut name_end = name_start;
            while name_end < code.len() && is_ident_char(code[name_end]) {
                name_end += 1;
            }
            let name = match std::str::from_utf8(&code[name_start..name_end]) {
                Ok(n) => n.to_string(),
                Err(_) => continue,
            };
            // The body is the first `{` outside parens/brackets; a `;`
            // first means a bodyless declaration.
            let mut depth = 0usize;
            let mut j = name_end;
            let mut body = None;
            while j < code.len() {
                match code[j] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth = depth.saturating_sub(1),
                    b'{' if depth == 0 => {
                        body = blocks.iter().position(|blk| blk.start == j);
                        break;
                    }
                    b';' if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            fns.push(FnItem {
                name,
                header: at,
                body,
            });
        }
        ItemTree { blocks, fns }
    }

    /// The innermost block containing byte `pos`, if any.
    pub fn innermost_block(&self, pos: usize) -> Option<&Block> {
        self.blocks
            .iter()
            .filter(|b| b.start < pos && pos <= b.end)
            .max_by_key(|b| b.start)
    }

    /// End (position of `}`) of the innermost block containing `pos`,
    /// or the code length when `pos` is at the top level.
    pub fn enclosing_block_end(&self, pos: usize, code_len: usize) -> usize {
        self.innermost_block(pos).map_or(code_len, |b| b.end)
    }

    /// The function whose body contains byte `pos`, if any (innermost
    /// wins for nested `fn` items).
    pub fn enclosing_fn(&self, pos: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter_map(|f| {
                let b = self.blocks.get(f.body?)?;
                (b.start < pos && pos <= b.end).then_some((b.start, f))
            })
            .max_by_key(|&(start, _)| start)
            .map(|(_, f)| f)
    }

    /// The block of a function item, if it has one.
    pub fn fn_body<'a>(&'a self, f: &FnItem) -> Option<&'a Block> {
        self.blocks.get(f.body?)
    }
}

/// Call sites within `range` of the cleaned `code`: identifiers
/// directly followed by `(` that are neither keywords, macro
/// invocations (`name!`), nor definitions (`fn name(`). Method-call
/// names are included — the per-crate indexes resolve them against
/// same-crate `fn` names, which is how `x.serve(..)` propagates facts
/// from `fn serve`.
pub fn calls_in(code: &[u8], range: std::ops::Range<usize>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end.min(code.len()) {
        if !is_ident_char(code[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < code.len() && is_ident_char(code[i]) {
            i += 1;
        }
        if code[start].is_ascii_digit() {
            continue;
        }
        let name = match std::str::from_utf8(&code[start..i]) {
            Ok(n) => n,
            Err(_) => continue,
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Direct `name(`: macro bang and whitespace-separated `name (`
        // (a keyword-style use) are excluded; `fn name(` is a
        // definition, not a call.
        if code.get(i) != Some(&b'(') {
            continue;
        }
        if !preceded_by_fn(code, start) {
            out.push((start, name.to_string()));
        }
    }
    out
}

/// Whether the identifier starting at `start` is declared right after
/// a `fn` keyword (i.e. it's a definition, not a call).
fn preceded_by_fn(code: &[u8], start: usize) -> bool {
    let mut i = start;
    while i > 0 && code[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    i >= 2 && &code[i - 2..i] == b"fn" && (i == 2 || !is_ident_char(code[i - 3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn blocks_nest_and_fns_resolve() {
        let src = "fn outer() {\n    let x = 1;\n    { inner_call(); }\n}\nfn decl();\n";
        let s = scan(src);
        let t = ItemTree::build(&s);
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].name, "outer");
        assert!(t.fns[0].body.is_some());
        assert_eq!(t.fns[1].name, "decl");
        assert!(t.fns[1].body.is_none());
        let body = t.fn_body(&t.fns[0]).unwrap();
        assert!(body.start < body.end);
        // A position inside the nested block resolves to `outer`.
        let pos = s.code.find("inner_call").unwrap();
        assert_eq!(t.enclosing_fn(pos).unwrap().name, "outer");
        let inner = t.innermost_block(pos).unwrap();
        assert!(inner.start > body.start && inner.end < body.end);
    }

    #[test]
    fn signature_parens_do_not_open_the_body() {
        let src = "fn f(x: [u8; 4], g: fn() -> u8) -> u8 {\n    g()\n}\n";
        let s = scan(src);
        let t = ItemTree::build(&s);
        // `fn() -> u8` in the signature is a bodyless fn-pointer
        // "item"; the real `f` still finds its brace block.
        let f = t.fns.iter().find(|f| f.name == "f");
        assert!(f.is_none() || f.unwrap().body.is_some());
        let with_body: Vec<_> = t.fns.iter().filter(|f| f.body.is_some()).collect();
        assert_eq!(with_body.len(), 1);
    }

    #[test]
    fn calls_exclude_keywords_macros_and_definitions() {
        let src = "fn f() {\n    helper(1);\n    x.method(2);\n    vec![3];\n    if (a) {}\n    let y = format!(\"{}\", 1);\n}\n";
        let s = scan(src);
        let t = ItemTree::build(&s);
        let body = t.fn_body(&t.fns[0]).unwrap();
        let names: Vec<String> = calls_in(s.code.as_bytes(), body.start..body.end)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert!(names.contains(&"helper".to_string()));
        assert!(names.contains(&"method".to_string()));
        assert!(!names.contains(&"f".to_string()));
        assert!(!names.contains(&"if".to_string()));
        assert!(!names.contains(&"vec".to_string()));
        assert!(!names.contains(&"format".to_string()));
    }
}
