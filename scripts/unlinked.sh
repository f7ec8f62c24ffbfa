#!/usr/bin/env bash
# unlinked.sh — list the internal/ functions that no binary links, and
# check the list against the committed one, scripts/unlinked.txt.
#
# Usage:
#   scripts/unlinked.sh    summary line, per-package counts, the list,
#                          then the comparison with scripts/unlinked.txt
#
# Builds every entry point (cmd/*, examples/*, and the obmbench harness,
# a module of its own) with inlining off (-gcflags=all=-l), so a function
# is linked iff some binary can reach it, then compares the obm/internal
# text symbols `go tool nm` lists with the functions declared in the
# non-test files under internal/. Generic instantiations appear as
# symbols like `obm/internal/obs.(*Ring[go.shape.struct { … }]).Push`,
# which contain spaces: the symbol is the rest of the nm line, and type
# arguments are stripped from symbols and declarations alike before they
# are matched. Closures (`F.func1`) and init functions are not counted.
# A function's lines run from its `func` line to its closing brace.
#
# It exits 1 when the scan differs from scripts/unlinked.txt: a function
# that is newly unlinked, or a listed one that is now linked or gone. That
# file groups its entries under a one-line reason each; names are symbols
# as the list below prints them.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for dir in cmd/* examples/*; do
    go build -gcflags=all=-l -o "$tmp/bin/$(basename "$dir")" "./$dir"
done
(cd obmbench && go build -gcflags=all=-l -o "$tmp/bin/obmbench" .)

# Linked: one normalized symbol per line.
for bin in "$tmp"/bin/*; do
    go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" {
    sub(/^ *[0-9a-f]+ [Tt] /, "")
    if (index($0, "obm/internal/") == 1) print
}' | sed -e ':strip' -e 's/\[[^][]*\]//' -e 't strip' | sort -u > "$tmp/linked"

# Declared: "<symbol>\t<lines>" for every function in a non-test file.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
    pkg="obm/$(dirname "$f")"
    awk -v pkg="$pkg" '
    function emit() { if (name != "") printf "%s\t%d\n", name, NR - start + 1; name = "" }
    /^func / {
        line = $0
        recv = ""
        if (match(line, /^func \([^)]*\) /)) {
            recv = substr(line, 7, RLENGTH - 8)       # "r *T[K]" or "*T"
            line = "func " substr(line, RLENGTH + 1)
            n = split(recv, parts, " ")
            recv = parts[n]
            sub(/\[.*\]$/, "", recv)
            recv = (substr(recv, 1, 1) == "*") ? "(" recv ")." : recv "."
        }
        match(line, /^func [A-Za-z0-9_]+/)
        fn = substr(line, 6, RLENGTH - 5)
        if (fn == "init" || fn == "_") next
        name = pkg "." recv fn
        start = NR
        if ($0 ~ /}$/) emit()
        next
    }
    /^}/ { emit() }
    ' "$f"
done > "$tmp/declared"

awk -F '\t' '
NR == FNR { linked[$0] = 1; next }
{
    total++; lines += $2
    pkg = $1; sub(/\.[^\/]*$/, "", pkg)
    if (!($1 in linked)) {
        n++; ulines += $2; pn[pkg]++; pl[pkg] += $2
        list[n] = sprintf("  %-64s %4d", $1, $2)
        print $1 > unlinked
    }
}
END {
    printf "unlinked: %d of %d functions, %d of %d lines\n", n, total, ulines, lines
    print "by package (functions, lines):"
    for (p in pn) printf "  %-28s %4d %5d\n", p, pn[p], pl[p] | "sort"
    close("sort")
    print "functions (lines):"
    for (i = 1; i <= n; i++) print list[i]
}' unlinked="$tmp/unlinked" "$tmp/linked" "$tmp/declared"

touch "$tmp/unlinked"
committed=scripts/unlinked.txt
{ grep -v -e '^#' -e '^$' "$committed" || true; } | sort > "$tmp/listed"
sort "$tmp/unlinked" > "$tmp/found"
comm -13 "$tmp/listed" "$tmp/found" > "$tmp/new"
comm -23 "$tmp/listed" "$tmp/found" > "$tmp/gone"
if [ -s "$tmp/new" ] || [ -s "$tmp/gone" ]; then
    if [ -s "$tmp/new" ]; then
        echo "newly unlinked, missing from $committed:"
        sed 's/^/  /' "$tmp/new"
    fi
    if [ -s "$tmp/gone" ]; then
        echo "listed in $committed, but now linked or gone:"
        sed 's/^/  /' "$tmp/gone"
    fi
    exit 1
fi
echo "matches $committed"
