package messi

import (
	"bytes"
	"cmp"
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

// rootKey is the root key of leaf's word, recomputed bit by bit.
func rootKey(leaf *core.Node) uint32 {
	var key uint32
	for j, sym := range leaf.Word.Symbols {
		key = key<<1 | uint32(sym>>(leaf.Word.Bits[j]-1))
	}
	return key
}

// verifyDirectory checks a published snapshot: its directory lists exactly
// the tree's leaves, once each, by root key ascending and each root child's
// leaves in WalkLeaves order (VisitLeaves order, stably sorted by key), its
// group offsets are exact, and every row — root key, then per-segment symbol
// range — equals a recomputation from the leaf. Then, for a random ED table
// and a random DTW table, the bound cascade holds leaf by leaf as floats: the
// envelope bound is at most the MinDistBatch bound of every entry in the
// leaf, the root-key filter passes every leaf whose envelope bound is below
// the threshold, and the group pass drops no group holding a leaf the key
// filter passes — at every threshold some leaf's own bound can set. It
// reports through t.Errorf, so concurrent readers may call it.
func verifyDirectory(t *testing.T, cfg core.Config, snap *snapshot, rng *rand.Rand) {
	t.Helper()
	var leaves []*core.Node
	snap.tree.VisitLeaves(func(n *core.Node) { leaves = append(leaves, n) })
	slices.SortStableFunc(leaves, func(a, b *core.Node) int { return cmp.Compare(rootKey(a), rootKey(b)) })
	dir, w := snap.dir, cfg.Segments
	if !slices.Equal(leaves, dir.Leaves) || len(dir.Keys) != len(leaves) || len(dir.Env) != len(leaves)*2*w {
		t.Errorf("directory lists %d leaves, %d keys, %d envelope bytes; the tree holds %d leaves of %d segments, or they are in another order",
			len(dir.Leaves), len(dir.Keys), len(dir.Env), len(leaves), w)
		return
	}
	var groups [257]int32
	for _, leaf := range leaves {
		groups[rootKey(leaf)>>8+1]++
	}
	for h := range 256 {
		groups[h+1] += groups[h]
	}
	if dir.Groups != groups {
		t.Errorf("group offsets %v, recomputed %v", dir.Groups, groups)
		return
	}
	for i, leaf := range leaves {
		want := append(bytes.Repeat([]byte{0xFF}, w), make([]byte, w)...)
		for e := 0; e < leaf.Count; e++ {
			for j, sym := range leaf.SAX[e*w : (e+1)*w] {
				want[j], want[w+j] = min(want[j], sym), max(want[w+j], sym)
			}
		}
		key := rootKey(leaf)
		if got := dir.Env[i*2*w : (i+1)*2*w]; !bytes.Equal(got, want) || uint32(dir.Keys[i]) != key {
			t.Errorf("leaf %d (%v, %d entries): key %#x envelope %v, recomputed %#x %v",
				i, leaf.Word, leaf.Count, dir.Keys[i], got, key, want)
			return
		}
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
	bounds, keySums := make([]float64, len(leaves)), make([]float64, len(leaves))
	for name, table := range tables {
		below, above := table.Sides()
		var keyLo, keyHi [256]float64
		table.FillRootKeys(&keyLo, &keyHi)
		for i, leaf := range leaves {
			bounds[i] = vector.EnvelopeDist(below, above, dir.Env[i*2*w:(i+1)*2*w], table.Card())
			keySums[i] = keyLo[dir.Keys[i]&255] + keyHi[dir.Keys[i]>>8]
			entries := make([]float64, leaf.Count)
			vector.MinDistBatch(table.Cells(), leaf.SAX, w, table.Card(), entries)
			for e, eb := range entries {
				// Non-negative floats order as their bit patterns do.
				if math.Float64bits(bounds[i]) > math.Float64bits(eb) {
					t.Errorf("%s: leaf %d envelope bound %v above entry %d's bound %v", name, i, bounds[i], e, eb)
					return
				}
			}
		}
		for _, lim := range append(slices.Clone(bounds), math.Inf(1)) {
			for i, b := range bounds {
				if b < lim && keySums[i] >= lim*keySlack {
					t.Errorf("%s: at threshold %v the key filter drops leaf %d (key sum %v) whose envelope bound is %v",
						name, lim, i, keySums[i], b)
					return
				}
			}
			for h := range 256 {
				if keyHi[h] < lim*keySlack {
					continue
				}
				for i := dir.Groups[h]; i < dir.Groups[h+1]; i++ {
					if keySums[i] < lim*keySlack {
						t.Errorf("%s: at threshold %v the group pass drops group %d (bound %v) with leaf %d, which the key filter passes (key sum %v)",
							name, lim, h, keyHi[h], i, keySums[i])
						return
					}
				}
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
