package dsidx

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
)

// TestMESSIOpensEverySingleIndexImage: a MESSI is a one-shard Sharded and
// saves a DSS1 manifest, but the single-index images MESSI.Save wrote
// before — a bare DSI1 tree, DSL1 with live appends, DST1 with tombstones
// — still open through LoadMESSI and OpenSharded, with and without the
// DSC1 integrity trailer, and answer as the index that wrote them did.
// LoadMESSI refuses a manifest of four shards.
func TestMESSIOpensEverySingleIndexImage(t *testing.T) {
	coll := Generate(Synthetic, 800, 64, 41)
	extra := Generate(Synthetic, 40, 64, 42)
	queries := GeneratePerturbedQueries(coll, 6, 0.05, 43)
	ix, err := messi.Build(coll, core.Config{LeafCapacity: 16}, messi.Options{MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	type image struct {
		data  []byte
		count int
		nn    [][]Match // 1-NN and 5-NN answers per query at encode time
	}
	capture := func() image {
		img := image{data: ix.Encode(), count: ix.Count()}
		for i := 0; i < queries.Len(); i++ {
			nn, _, err := ix.Query(messi.Query{Kind: messi.NN, Series: queries.At(i), Scope: messi.FullScope})
			if err != nil {
				t.Fatal(err)
			}
			knn, _, err := ix.Query(messi.Query{Kind: messi.KNN, Series: queries.At(i), K: 5, Scope: messi.FullScope})
			if err != nil {
				t.Fatal(err)
			}
			img.nn = append(img.nn, matchesOf(nn), matchesOf(knn))
		}
		return img
	}
	images := map[string]image{"DSI1": capture()}
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == extra.Len()/2 {
			ix.Flush() // a merged and a pending part
		}
	}
	images["DSL1"] = capture()
	if _, err := ix.DeleteRange(100, 160); err != nil {
		t.Fatal(err)
	}
	images["DST1"] = capture()

	dir := t.TempDir()
	for magic, img := range images {
		if got := string(img.data[:4]); got != magic {
			t.Fatalf("the %s image starts with %q", magic, got)
		}
		for trailer, data := range map[string][]byte{"bare": img.data, "sealed": sealEnvelope(img.data)} {
			path := filepath.Join(dir, magic+"-"+trailer)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := LoadMESSI(path, coll)
			if err != nil {
				t.Fatalf("LoadMESSI, %s %s image: %v", trailer, magic, err)
			}
			s, err := OpenSharded(path, coll)
			if err != nil {
				t.Fatalf("OpenSharded, %s %s image: %v", trailer, magic, err)
			}
			for name, x := range map[string]*index{"LoadMESSI": &m.index, "OpenSharded": &s.index} {
				if x.Len() != img.count {
					t.Fatalf("%s, %s %s image: Len %d, want %d", name, trailer, magic, x.Len(), img.count)
				}
				for i := 0; i < queries.Len(); i++ {
					nn, err := x.Search(queries.At(i))
					if err != nil {
						t.Fatal(err)
					}
					knn, err := x.SearchKNN(queries.At(i), 5)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal([]Match{nn}, img.nn[2*i]) || !slices.Equal(knn, img.nn[2*i+1]) {
						t.Fatalf("%s, %s %s image, query %d: %+v / %+v, want %+v / %+v",
							name, trailer, magic, i, nn, knn, img.nn[2*i], img.nn[2*i+1])
					}
				}
			}
			m.Close()
			s.Close()
		}
	}

	four, err := NewSharded(coll, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	path := filepath.Join(dir, "four")
	if err := four.Save(path); err != nil {
		t.Fatal(err)
	}
	if m, err := LoadMESSI(path, coll); err == nil {
		m.Close()
		t.Fatal("LoadMESSI opened a four-shard file")
	}
}

// TestMESSIAnswersAsItsOneTree: under the public MESSI is one messi tree
// reached through a one-shard scatter. On the counter workload (20,000
// series, appends on both sides of a merge, random-walk and perturbed
// queries) at one worker, every query kind answers what the tree's own
// Query answers, and the 1-NN work stats are the tree's, field for field.
func TestMESSIAnswersAsItsOneTree(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(20_000)
	flat, err := messi.Build(coll, core.Config{}, messi.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	pub, err := NewMESSI(coll, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	extra := gen.Generator{Kind: gen.Synthetic, Seed: 72}.Collection(1500)
	for i := 0; i < extra.Len(); i++ {
		if _, err := flat.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			flat.Flush()
			pub.Flush()
		}
	}
	var qs []series.Series
	for _, c := range []*series.Collection{g.Queries(8), g.PerturbedQueries(coll, 8, 0.05)} {
		for i := 0; i < c.Len(); i++ {
			qs = append(qs, c.At(i))
		}
	}
	_, stats, err := pub.BatchSearchStats(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		for _, c := range []struct {
			req   QueryRequest
			query messi.Query
		}{
			{QueryRequest{Kind: QueryNN}, messi.Query{Kind: messi.NN}},
			{QueryRequest{Kind: QueryKNN, K: 5}, messi.Query{Kind: messi.KNN, K: 5}},
			{QueryRequest{Kind: QueryDTW, Window: 8}, messi.Query{Kind: messi.DTW, Warp: 8}},
			{QueryRequest{Kind: QueryWindowNN, LastN: 12_000}, messi.Query{Kind: messi.NN, LastN: 12_000}},
			{QueryRequest{Kind: QueryApprox}, messi.Query{Kind: messi.Approx}},
		} {
			c.req.Query, c.query.Series, c.query.Scope = q, q, messi.FullScope
			want, st, err := flat.Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pub.run(c.req, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, matchesOf(want)) {
				t.Fatalf("query %d, kind %d: MESSI %+v, its tree %+v", i, c.req.Kind, got, matchesOf(want))
			}
			if c.req.Kind == QueryNN && !reflect.DeepEqual(stats[i], statsFromQuery(*st)) {
				t.Fatalf("query %d: MESSI stats %+v, its tree's %+v", i, stats[i], statsFromQuery(*st))
			}
		}
	}
}
