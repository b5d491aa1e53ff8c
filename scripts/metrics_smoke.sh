#!/usr/bin/env bash
# metrics_smoke.sh — assert the observability surface actually serves: a
# small dsbench -metrics run builds a sharded index, drives appends, a
# Flush that merges them and queries through the public API, scrapes
# dsidx.MetricsHandler and validates the Prometheus exposition (format
# plus required families) before printing it. This script additionally greps the printed text for
# the family names dashboards key on, so a rename that survives the Go
# validator still fails loudly here.
#
# Usage: scripts/metrics_smoke.sh [series]
#
# Used identically in CI (metrics smoke step) and locally.
set -euo pipefail

SERIES="${1:-4000}"
OUT="${METRICS_SMOKE_OUT:-/tmp/metrics_smoke.txt}"

go build ./...
go run ./cmd/dsbench -metrics -series "$SERIES" > "$OUT"

for family in \
    dsidx_engine_workers \
    dsidx_engine_queries_total \
    dsidx_engine_admit_waits_total \
    dsidx_ingest_appended_total \
    dsidx_ingest_merges_total \
    dsidx_index_query_seconds_bucket \
    dsidx_shard_appends_total \
    dsidx_cold_cache_hits_total \
    dsidx_vector_simd
do
    if ! grep -q "^$family" "$OUT"; then
        echo "metrics smoke: family $family missing from the scrape" >&2
        exit 1
    fi
done

# Spot-check semantics, not just presence: the run appended 64 series,
# flushed them into the trees and issued queries, so the totals (summed
# over shards) must be positive.
appended=$(awk '/^dsidx_ingest_appended_total/ { sum += $NF } END { print sum + 0 }' "$OUT")
merges=$(awk '/^dsidx_ingest_merges_total/ { sum += $NF } END { print sum + 0 }' "$OUT")
queries=$(awk '/^dsidx_engine_queries_total/ { print $NF + 0 }' "$OUT")
if [ "$appended" -le 0 ] || [ "$merges" -le 0 ] || [ "$queries" -le 0 ]; then
    echo "metrics smoke: implausible totals (appended=$appended, merges=$merges, queries=$queries)" >&2
    exit 1
fi

echo "metrics smoke: exposition valid; appended=$appended merges=$merges queries=$queries"
