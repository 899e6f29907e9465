#!/bin/sh
# Prints every `pub fn` that no non-test code calls, minus the names on
# scripts/pub_surface.allow; prints nothing on a clean tree (CI fails
# on any output).
#
# A `pub fn` counts if it sits above its file's first `#[cfg(test)]`.
# Non-test code is every file under crates/*/src, examples/ and
# benchmark/src up to its first `#[cfg(test)]`, with `//` comments,
# string and char literals and `use` items dropped (a re-export is no
# caller); `tests.rs` module files are test code. A use is a
# call-shaped name (`name(`, `name::<` or `::name`) outside the
# definitions of functions of that name (signature and body), so a
# same-named field or local, or a getter returning its same-named
# field, is no use. A call of a same-named live function still hides a
# dead one: the list is a lower bound. An allow-list name that is no
# dead `pub fn` (called now, or gone) is printed too.
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
  BEGIN {
    while ((getline line < allow) > 0)
      if (line !~ /^(#|[ \t]*$)/) { split(line, a, /[ \t]+/); ok[a[1]] = 1 }
  }
  {
    split($0, loc, ":")
    if (loc[1] != file) { file = loc[1]; cur = "" }
    code = $0; sub(/^[^:]*:[0-9]+:/, "", code)
    # `cur` is the function whose definition this line is part of.
    if (cur == "" && match(code, /fn [A-Za-z0-9_]+/)) {
      cur = substr(code, RSTART + 3, RLENGTH - 3); depth = 0; opened = 0
      if (code ~ /(^|[^A-Za-z0-9_])pub( const| unsafe| async)* fn /) {
        pub[++np] = cur; at[np] = loc[1] ":" loc[2]
      }
    }
    # Only call-shaped names are uses: `name(`, `name::<` and `::name`.
    rest = code; gsub(/fn [A-Za-z0-9_]+/, "fn", rest)
    while (match(rest, /::[ \t]*[A-Za-z0-9_]+|[A-Za-z0-9_]+[ \t]*(\(|::<)/)) {
      t = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
      gsub(/::<|[^A-Za-z0-9_]/, "", t); if (t != cur) uses[t]++
    }
    if (cur != "") {
      o = gsub(/\{/, "{", code); c = gsub(/\}/, "}", code)
      depth += o - c; if (o > 0) opened = 1
      if (opened ? depth <= 0 : code ~ /;/) cur = ""
    }
  }
  END {
    for (i = 1; i <= np; i++)
      if (!(pub[i] in uses)) {
        dead[pub[i]] = 1
        if (!(pub[i] in ok)) print at[i] ": " pub[i]
      }
    for (name in ok)
      if (!(name in dead)) print allow ": " name " is no dead pub fn; drop the line"
  }'
