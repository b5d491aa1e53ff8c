package conformance

import (
	"flag"
	"fmt"
	"testing"

	"dsidx/internal/shard"
)

// -conformance.ops overrides the per-configuration op count for long runs:
//
//	go test ./internal/conformance -conformance.ops 10000
//
// 0 means the default: 10000 ops per shard count, 1200 in -short mode (the
// CI smoke configuration).
var opsFlag = flag.Int("conformance.ops", 0, "randomized ops per conformance configuration (0 = default)")

func opsDefault() int {
	if *opsFlag > 0 {
		return *opsFlag
	}
	if testing.Short() {
		return 1200
	}
	return 10000
}

// TestConformanceRandomized is the acceptance gate of the sharded serving
// stack: at every shard count, the full op interleaving must keep the
// plain index, the sharded index and the serial-scan oracle bit-identical.
func TestConformanceRandomized(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			Run(t, Config{Seed: 2020 + int64(shards), Ops: opsDefault(), Shards: shards})
		})
	}
}

// TestConformanceHashPolicy re-runs a configuration under content-hash
// routing, where shard sizes are uneven and build-time neighbors scatter.
func TestConformanceHashPolicy(t *testing.T) {
	ops := opsDefault()
	if !testing.Short() && *opsFlag == 0 {
		ops = 4000 // the main sweep already covers the long default
	}
	Run(t, Config{Seed: 77, Ops: ops, Shards: 3, Policy: shard.HashSeries{}})
}

// TestConformanceFaults runs the op stream with a fault-injecting cold
// tier: random transient/permanent plans and heals interleave with every
// other op. Completed queries must stay bit-identical to the serial oracle,
// failed queries must carry the typed *storage.BlockError, and a heal alone
// must restore exact service — the fault-tolerance acceptance gate.
func TestConformanceFaults(t *testing.T) {
	ops := opsDefault()
	if !testing.Short() && *opsFlag == 0 {
		ops = 4000
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			Run(t, Config{Seed: 911 + int64(shards), Ops: ops, Shards: shards, Faults: true})
		})
	}
}
