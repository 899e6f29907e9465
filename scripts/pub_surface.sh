#!/bin/sh
# Prints every `pub fn` that no non-test code uses, minus the names on
# scripts/pub_surface.allow, and every allow-list name that is no such
# function (used now, or gone). Prints nothing on a clean tree; CI fails
# on any output.
#
# Non-test code is every file under crates/*/src, examples/ and
# benchmark/src up to its first `#[cfg(test)]`. `tests.rs` module files
# are test code, and so is the vendored crates/proptest, which every
# crate names only as a dev-dependency.
#
# The compiler finds the uses. In a copy of the tree under a temporary
# directory, every `pub fn` of non-test code gets
# `#[deprecated(note = "SURFACE <name> <file>:<line>")]` on its line,
# named `Type::name` inside an `impl ... Type` block and `name` outside
# one. `cargo check` then builds the workspace's libraries, bins and
# examples, and the benchmark's bin. A function is used if one of its
# deprecation warnings falls outside a `use` item (an import or a
# re-export is no use). The script exits non-zero if a check fails or
# prints no such warning, so a broken build never reads as clean.
#
#   sh scripts/pub_surface.sh
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
cd "$root"
cp -R Cargo.toml Cargo.lock crates examples tests "$tmp"
mkdir "$tmp/benchmark"
cp -R benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$tmp/benchmark"
cd "$tmp"
# Marks each pub fn, and lists the marks ("file:line name") and the
# lines of `use` items ("file:line").
find crates/*/src examples benchmark/src -name '*.rs' ! -name tests.rs \
  ! -path 'crates/proptest/*' | sort > files
awk '
  FNR == 1 { if (out != "") close(out); out = FILENAME ".marked"; test = 0; ihead = ""; itype = "" }
  /^[ \t]*#\[cfg\(test\)\]/ { test = 1 }
  test { print > out; next }
  inuse || /^[ \t]*(pub(\([a-z]+\))? )?use / { inuse = !/;/; print FILENAME ":" FNR > "uses" }
  ihead == "" && itype == "" && /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/ {
    ihead = " "; iend = $0; sub(/[^ \t].*/, "}", iend)
  }
  ihead != "" {
    ihead = ihead " " $0
    if (/\{/) {
      # The implemented type: generics dropped, the part after ` for `,
      # the last path segment.
      h = ihead; gsub(/->/, " ", h); sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", h)
      do { prev = h; gsub(/<[^<>]*>/, "", h) } while (h != prev)
      sub(/(\{|[ \t]where[ \t]).*$/, "", h)
      if (match(h, /[ \t]for[ \t]/)) h = substr(h, RSTART + RLENGTH)
      gsub(/[ \t&]/, "", h); n = split(h, seg, "::"); itype = seg[n]; ihead = ""
      if (/\}[ \t]*$/) itype = ""
    }
  }
  match($0, /^[ \t]*pub( const| unsafe| async)* fn [A-Za-z0-9_]+/) {
    name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
    if (itype != "") name = itype "::" name
    print FILENAME ":" FNR " " name > "marks"
    sub(/pub/, "#[deprecated(note = \"SURFACE " name " " FILENAME ":" FNR "\")] pub")
  }
  itype != "" && $0 == iend { itype = "" }
  { print > out }' $(cat files)
while read -r f; do mv "$f.marked" "$f"; done < files
CARGO_TARGET_DIR="$tmp/target"
export CARGO_TARGET_DIR
if ! cargo check -q --workspace --lib --bins --examples --message-format=short 2> check.log ||
  ! cargo check -q --manifest-path benchmark/Cargo.toml --bins --message-format=short 2>> check.log; then
  grep -v SURFACE check.log >&2 || :
  echo "pub_surface.sh: cargo check failed" >&2
  exit 1
fi
awk -v allow="$root/scripts/pub_surface.allow" -v tmp="$tmp/" '
  FILENAME == "uses" { inuse[$0] = 1; next }
  FILENAME == "marks" { name[$1] = $2; next }
  match($0, /: SURFACE [^ ]+ [^ ]+$/) {
    seen = 1; split(substr($0, RSTART + 2), note, " ")
    loc = $0; if (index(loc, tmp) == 1) loc = substr(loc, length(tmp) + 1)
    if (loc ~ /^src\//) loc = "benchmark/" loc
    split(loc, p, ":")
    if (!((p[1] ":" p[2]) in inuse)) used[note[3]] = 1
  }
  END {
    if (!seen) { print "pub_surface.sh: cargo check printed no SURFACE warning" > "/dev/stderr"; exit 1 }
    while ((getline line < allow) > 0)
      if (line !~ /^(#|[ \t]*$)/) { split(line, a, /[ \t]+/); ok[a[1]] = 1 }
    for (at in name)
      if (!(at in used)) { dead[name[at]] = 1; if (!(name[at] in ok)) print at ": " name[at] }
    for (n in ok)
      if (!(n in dead)) print "scripts/pub_surface.allow: " n " is no unused pub fn; drop the line"
  }' uses marks check.log > report
sort report
