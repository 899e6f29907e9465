#!/bin/sh
# Prints every `pub fn` that no non-test code calls, minus the names on
# scripts/pub_surface.allow; prints nothing on a clean tree (CI fails
# on any output).
#
# A `pub fn` counts if it sits above its file's first `#[cfg(test)]`.
# Non-test code is every file under crates/*/src, examples/ and
# benchmark/src up to its first `#[cfg(test)]`, with `//` comments,
# string and char literals and `use` items dropped (a re-export is no
# caller); `tests.rs` module files are test code.
#
# A function is named by its `impl` block: `Type::name` inside
# `impl ... Type {` (or `impl Trait for Type {`), a bare `name` outside
# one. Uses are call-shaped names outside the definition of the same
# function (signature and body), so a same-named field or local, or a
# getter returning its same-named field, is no use:
#   - a path `Type::name` (`Self::name` inside Type's impl, and the last
#     type segment of a longer path) is a use of Type's function only;
#   - a method call `.name(` (or `.name::<`) is a use of every function
#     of that name that takes `self` — the scan does not know the
#     receiver's type;
#   - a bare `name(` or `name::<`, or a path `module::name`, is a use of
#     the free functions of that name.
# A function without a `self` receiver is therefore used only through a
# path naming its type. Method-call syntax stays blind: a live method
# hides a dead one of the same name, as `.group_of_point(` and `.load(`
# hid `DynamicClustering::group_of_point`, `SnapshotCell::load` and
# `LoadTracker::load`.
# The list is a lower bound. An allow-list entry that is no dead
# `pub fn` (called now, or gone) is printed too.
#
#   sh scripts/pub_surface.sh       # from the repository root
set -eu
cd "$(dirname "$0")/.."
find crates/*/src examples benchmark/src -name '*.rs' ! -name tests.rs | sort |
while read -r f; do
  awk -v f="$f" '
    /^[ \t]*#\[cfg\(test\)\]/ { exit }
    { gsub(/"([^"\\]|\\.)*"/, "\"\""); gsub(/\047([^\047\\]|\\.)\047/, "\047\047") }
    { sub(/\/\/.*/, "") }
    inuse || /^[ \t]*(pub(\([a-z]+\))? )?use / { inuse = !/;/; next }
    { print f ":" FNR ":" $0 }' "$f"
done | awk -v allow=scripts/pub_surface.allow '
  # The type an `impl` header implements for: generics dropped, the part
  # after ` for `, the last path segment.
  function impl_type(h,   prev, n, seg) {
    gsub(/->/, " ", h); sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", h)
    do { prev = h; gsub(/<[^<>]*>/, "", h) } while (h != prev)
    sub(/(\{|[ \t]where[ \t]).*$/, "", h)
    if (match(h, /[ \t]for[ \t]/)) h = substr(h, RSTART + RLENGTH)
    gsub(/[ \t&]/, "", h); n = split(h, seg, "::")
    return seg[n]
  }
  BEGIN {
    while ((getline line < allow) > 0)
      if (line !~ /^(#|[ \t]*$)/) { split(line, a, /[ \t]+/); ok[a[1]] = 1 }
  }
  {
    split($0, loc, ":")
    if (loc[1] != file) { file = loc[1]; cur = ""; depth = 0; itype = ""; ihead = "" }
    code = $0; sub(/^[^:]*:[0-9]+:/, "", code)
    # `itype` is the type of the `impl` block this line is in.
    if (cur == "" && ihead == "" && itype == "" && code ~ /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/) {
      ihead = " "; idepth = depth
    }
    if (ihead != "") {
      ihead = ihead " " code
      if (code ~ /\{/) { itype = impl_type(ihead); ihead = "" }
    }
    # `cur` is the function whose definition this line is part of, and
    # `ctype` its impl type; a pub one collects its signature in `sig`.
    if (cur == "" && match(code, /fn [A-Za-z0-9_]+/)) {
      cur = substr(code, RSTART + 3, RLENGTH - 3); ctype = itype; fdepth = depth; opened = 0
      sig = ""
      if (code ~ /(^|[^A-Za-z0-9_])pub( const| unsafe| async)* fn /) {
        pub[++np] = (ctype == "" ? "" : ctype "::") cur; at[np] = loc[1] ":" loc[2]
        free[np] = ctype == ""; base[np] = cur; sig = " "
      }
    }
    if (sig != "") {
      sig = sig " " code
      if (code ~ /[{;]/) {
        recv[np] = sig ~ /\([ \t]*(&[ \t]*(\047[A-Za-z_]+[ \t]*)?)?(mut[ \t]+)?self[ \t]*[,:)]/
        sig = ""
      }
    }
    rest = code; gsub(/fn [A-Za-z0-9_]+/, "fn", rest); gsub(/[ \t]*::[ \t]*/, "::", rest)
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*/)) {
      before = substr(rest, 1, RSTART - 1); path = substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
      if (rest ~ /^[ \t]*!/) continue
      call = rest ~ /^[ \t]*(\(|::<)/
      n = split(path, seg, "::"); name = seg[n]
      if (n > 1) {
        t = seg[n - 1] == "Self" ? itype : seg[n - 1]
        if (t ~ /^[A-Z]/) { if (!(t == ctype && name == cur)) typed[t "::" name] = 1 }
        else if (!(ctype == "" && name == cur)) freeuse[name] = 1
      } else if (before ~ /\.[ \t]*$/) {
        if (call && name != cur) method[name] = 1
      } else if (before ~ /::$/) {
        if (name != cur) anytype[name] = 1
      } else if (call && !(ctype == "" && name == cur)) freeuse[name] = 1
    }
    o = gsub(/\{/, "{", code); c = gsub(/\}/, "}", code); depth += o - c
    if (cur != "") {
      if (o > 0) opened = 1
      if (opened ? depth <= fdepth : code ~ /;/) cur = ""
    }
    if (itype != "" && depth <= idepth) itype = ""
  }
  END {
    for (i = 1; i <= np; i++) {
      if (free[i]) used = base[i] in freeuse
      else used = pub[i] in typed || base[i] in anytype || (recv[i] && base[i] in method)
      if (!used) {
        dead[pub[i]] = 1
        if (!(pub[i] in ok)) print at[i] ": " pub[i]
      }
    }
    for (name in ok)
      if (!(name in dead)) print allow ": " name " is no dead pub fn; drop the line"
  }'
