#!/usr/bin/env bash
# loc.sh — count the non-test Go lines of every package of the root module.
#
# Usage: scripts/loc.sh [checkout-dir]
#
# Prints one "lines  package" row per package directory — every .go file
# except *_test.go and anything under testdata/ — and the total. bench/ is a
# module of its own and is left out. Run it on two checkouts to compare a
# change against its parent. CI prints it in the lint job; it gates nothing.
set -euo pipefail

cd "${1:-.}"
module=$(awk '$1 == "module" { print $2; exit }' go.mod)

find . -path ./bench -prune -o -name testdata -prune -o \
    -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l |
    awk -v module="$module" '
        $2 == "total" { next }
        {
            dir = $2
            sub(/\/[^\/]*$/, "", dir)
            sub(/^\.\/?/, "", dir)
            pkg = dir == "" ? module : module "/" dir
            lines[pkg] += $1
            total += $1
        }
        END {
            for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
