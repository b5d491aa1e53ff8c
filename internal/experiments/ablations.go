package experiments

import (
	"fmt"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
)

// AblationQueryHardness sweeps the query perturbation eps and reports the
// fraction of the collection surviving the lower-bound scan — the pruning
// power that every speedup in Figures 8-12 rests on, and the quantitative
// justification for the perturbed-query substitution in DESIGN.md.
func AblationQueryHardness(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:      "ablation-hardness",
		Title:   "Pruning power vs query difficulty (Synthetic, ParIS in-memory)",
		Unit:    "fraction of collection",
		Columns: []string{"candidates", "raw_dists"},
	}
	ix, err := paris.BuildInMemory(w.coll, core.Config{LeafCapacity: leafCapacity},
		paris.Options{Workers: cfg.MaxCores})
	if err != nil {
		return nil, fmt.Errorf("ablation-hardness: %w", err)
	}
	n := float64(w.coll.Len())
	g := gen.Generator{Kind: gen.Synthetic, Seed: cfg.Seed}
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		queries := g.PerturbedQueries(w.coll, cfg.QueryCount, eps)
		var cands, raws int
		for qi := 0; qi < queries.Len(); qi++ {
			_, stats, err := ix.Run(paris.Query{Kind: messi.NN, Series: queries.At(qi), Workers: cfg.MaxCores})
			if err != nil {
				return nil, err
			}
			cands += stats.Candidates
			raws += stats.RawDistances
		}
		q := float64(queries.Len())
		t.AddRow(fmt.Sprintf("eps=%.2f", eps), float64(cands)/q/n, float64(raws)/q/n)
	}
	t.Note("harder queries (larger eps ⇒ more distant NN) prune less — the dense-collection regime of the paper corresponds to small eps")
	return t, nil
}

// AblationLeafCapacity measures the MESSI build/query tradeoff as leaf
// capacity varies: small leaves prune tighter but cost more splits.
func AblationLeafCapacity(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:      "ablation-leafcap",
		Title:   "MESSI leaf capacity tradeoff (Synthetic)",
		Unit:    "build: seconds; query: milliseconds",
		Columns: []string{"build_s", "query_ms", "leaves"},
	}
	cores := cfg.MaxCores
	for _, cap := range []int{64, 128, 256, 512, 1024, 2048} {
		t0 := time.Now()
		ix, err := messi.Build(w.coll, core.Config{LeafCapacity: cap},
			messi.Options{Workers: cores})
		if err != nil {
			return nil, fmt.Errorf("ablation-leafcap cap=%d: %w", cap, err)
		}
		build := seconds(time.Since(t0))
		mean, err := timeQueries(w.queries, func(q series.Series) error {
			_, _, err := ix.Search(q, cores)
			return err
		})
		ix.Close()
		if err != nil {
			return nil, err
		}
		st := ix.Tree().Stats()
		t.AddRow(fmt.Sprintf("leaf=%d", cap), build, millis(mean), float64(st.Leaves))
	}
	return t, nil
}
