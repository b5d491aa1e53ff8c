#!/usr/bin/env bash
# disk_smoke.sh — assert the out-of-core tier is invisible to results and
# reads only what it refines: a tiny dsbench -diskjson run must report (a)
# cold_matches_hot=true — every exact answer over the device-backed tier is
# bit-identical to the hot build's — and (b), at every cache budget, at most
# MAX_READS device reads per query and a read amplification (device bytes
# over the bytes of the series actually refined) of at most MAX_AMP. The
# smoke's queries are unperturbed random walks — poorly pruned, candidates
# scattered one to an 8-series block — so a healthy run prints 14–20 reads
# per query at the smallest cache and an amplification of 7–16 (four queries
# are few: it moves run to run); the ceilings sit above that and below what
# reading whole leaves ahead of their bounds costs (amplification 28–51 at
# the same size before that path was replaced). A
# cache hit rate is deliberately not asserted — a reader that fetches only
# survivors can legitimately miss on every one.
#
# Usage: scripts/disk_smoke.sh [series] [queries]
#
# Used identically in CI (disk smoke step) and locally. Writes the full
# machine-readable record next to the check so regressions are diagnosable
# from the log.
set -euo pipefail

SERIES="${1:-6000}"
QUERIES="${2:-4}"
# A fresh file per run: BENCH files are trajectories now, and the
# line-based field extraction below must only see the run this smoke
# just produced, not stale points from earlier invocations.
OUT="${BENCH_DISK_JSON:-$(mktemp /tmp/BENCH_disk.XXXXXX.json)}"
rm -f "$OUT"

go run ./cmd/dsbench -diskjson "$OUT" -series "$SERIES" -queries "$QUERIES"
cat "$OUT"

matches=$(awk -F': *' '/"cold_matches_hot"/ { gsub(/[,"]/, "", $2); print $2 }' "$OUT")
if [ "$matches" != "true" ]; then
    echo "disk smoke: cold_matches_hot=$matches — device-backed answers diverged from the hot build" >&2
    exit 1
fi

MAX_READS=60
MAX_AMP=25
worst() { awk -F': *' -v key="\"$1\"" '$0 ~ key { gsub(/[,"]/, "", $2); if ($2 + 0 > w + 0) w = $2 } END { print w + 0 }' "$OUT"; }
reads=$(worst device_reads_per_query)
amp=$(worst read_amplification)
awk -v r="$reads" -v a="$amp" -v mr="$MAX_READS" -v ma="$MAX_AMP" 'BEGIN {
    if (r <= 0 || a <= 0) {
        print "disk smoke: no device reads recorded — the cold tier was not exercised"
        exit 1
    }
    if (r > mr || a > ma) {
        printf "disk smoke: worst point reads the device %.1f times per query (ceiling %s) at amplification %.1f (ceiling %s)\n", r, mr, a, ma
        exit 1
    }
    printf "disk smoke: cold answers match hot bit-for-bit; worst point %.1f device reads/query, read amplification %.1f\n", r, a
}'
