package messi

import (
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/vector"
	"dsidx/internal/xsync"
)

// BenchmarkMESSIRefineLeaf isolates the refinement hot path: one pass over
// every leaf of a built index, exactly as the queue-drain phase would
// visit them. The leaf-ordered sub-benchmark reads each leaf's
// materialized raw block sequentially; the positional sub-benchmark is the
// pre-layout behavior, chasing leaf.Pos through the collection. The BSF is
// reset to a loose bound per leaf, so every leaf runs the batched bound
// pass AND touches its raw series (one full distance, then early-abandoned
// reads) — the worst-case refinement profile where memory layout matters,
// rather than the best case where bounds prune everything.
func BenchmarkMESSIRefineLeaf(b *testing.B) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 9}
	coll := g.Collection(20_000)
	q := g.PerturbedQueries(coll, 1, 0.05).At(0)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"leaf-ordered", false},
		{"positional", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ix, err := Build(coll, core.Config{}, Options{Workers: 1, DisableLeafRaw: mode.disable})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			sc := ix.getScratch()
			defer ix.putScratch(sc)
			sc.summarizeQuery(q)
			t := ix.Tree()
			sc.table.FillED(t.Quantizer(), sc.qpaa, ix.cfg.SeriesLen)
			var leaves []*core.Node
			entries := 0
			t.VisitLeaves(func(n *core.Node) {
				leaves = append(leaves, n)
				entries += n.Count
			})
			lb := ix.getLB()
			defer ix.putLB(lb)
			stats := &QueryStats{}
			best := xsync.NewBest()
			const loose = 1e18 // passes every bound; full distance on the first entry
			r := &refiner{table: sc.table, mp: identPos, f: qfilter{posLimit: math.MaxInt32}, limit: best.Distance,
				score: func(gpos int32, s series.Series, lim float64, st *QueryStats, _ *lbScratch) {
					st.RawDistances++
					if d := vector.SquaredEDEarlyAbandon(q, s, lim); d < lim {
						best.Update(d, int64(gpos))
					}
				}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, leaf := range leaves {
					best.Reset()
					best.Update(loose, -1)
					ix.refineLeaf(r, leaf, stats, lb)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(entries), "entries/op")
		})
	}
}
