package messi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/isax"
	"dsidx/internal/paa"
	"dsidx/internal/series"
	"dsidx/internal/vector"
)

// verifyDirectory checks a published snapshot: its directory lists exactly
// the tree's leaves, once each, in VisitLeaves order, and for a random ED
// table and a random DTW table the batched bound of every leaf is
// MultiTable.DistWord on that leaf's word, bit for bit. It reports through
// t.Errorf, so concurrent readers may call it.
func verifyDirectory(t *testing.T, cfg core.Config, snap *snapshot, rng *rand.Rand) {
	t.Helper()
	var leaves []*core.Node
	snap.tree.VisitLeaves(func(n *core.Node) { leaves = append(leaves, n) })
	if !slices.Equal(leaves, snap.dir.Leaves) {
		t.Errorf("directory lists %d leaves, VisitLeaves yields %d, or in another order",
			len(snap.dir.Leaves), len(leaves))
		return
	}
	w := cfg.Segments
	if len(snap.dir.Cells) != len(leaves)*w {
		t.Errorf("%d cell indexes for %d leaves of %d segments", len(snap.dir.Cells), len(leaves), w)
		return
	}
	q := make(series.Series, cfg.SeriesLen)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	quant := snap.tree.Quantizer()
	env := series.NewEnvelope(q, 1+rng.Intn(8))
	tables := map[string]*isax.QueryTable{
		"ED":  isax.NewQueryTable(quant, paa.Transform(q, w), cfg.SeriesLen),
		"DTW": isax.NewDTWQueryTable(quant, paa.Transform(env.Upper, w), paa.Transform(env.Lower, w), cfg.SeriesLen),
	}
	bounds := make([]float64, len(leaves))
	for name, table := range tables {
		mt := isax.NewMultiTable(quant, table)
		vector.WordDistBatch(mt.Cells(), snap.dir.Cells, w, bounds)
		for i, leaf := range leaves {
			if want := mt.DistWord(leaf.Word); math.Float64bits(bounds[i]) != math.Float64bits(want) {
				t.Errorf("%s: leaf %d (%v) batched bound %v != DistWord %v", name, i, leaf.Word, bounds[i], want)
				return
			}
		}
	}
}

// TestDirectoryTracksEverySnapshot walks an index through every operation
// that publishes a snapshot — build, merges that split leaves, Compact, and
// an Encode/Decode round trip — and checks the directory after each.
func TestDirectoryTracksEverySnapshot(t *testing.T) {
	for _, segments := range []int{8, 16} {
		for _, maxBits := range []int{4, 8} {
			t.Run(fmt.Sprintf("w%d_b%d", segments, maxBits), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(segments*100 + maxBits)))
				g := gen.Generator{Kind: gen.Synthetic, Length: 64, Seed: int64(segments + maxBits)}
				all := g.Collection(2400)
				base := all.Slice(0, 1200)
				ix, err := Build(base, core.Config{Segments: segments, MaxBits: maxBits, LeafCapacity: 8},
					Options{Workers: 2, MergeThreshold: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				check := func(ix *Index, stage string) {
					t.Helper()
					snap := ix.snap.Load()
					if err := snap.tree.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					verifyDirectory(t, ix.cfg, snap, rng)
					if t.Failed() {
						t.Fatalf("directory wrong after %s", stage)
					}
				}
				check(ix, "build")
				built := len(ix.snap.Load().dir.Leaves)
				for lo := 1200; lo < 2400; lo += 400 {
					batch := make([]series.Series, 0, 400)
					for i := lo; i < lo+400; i++ {
						batch = append(batch, all.At(i))
					}
					if _, err := ix.AppendBatch(batch); err != nil {
						t.Fatal(err)
					}
					ix.Flush()
					check(ix, "merge")
				}
				if merged := len(ix.snap.Load().dir.Leaves); merged <= built {
					t.Fatalf("%d leaves after merging 1200 series into %d leaves of capacity 8: no split happened", merged, built)
				}
				if _, err := ix.DeleteRange(300, 1500); err != nil {
					t.Fatal(err)
				}
				ix.Compact()
				check(ix, "compact")
				back, err := Decode(ix.Encode(), base, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer back.Close()
				check(back, "decode")
			})
		}
	}
}
