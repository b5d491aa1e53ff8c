package dsidx

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestNonFiniteQueriesRejected: a query holding a NaN or an infinity has no
// nearest neighbour, so every public entry refuses it with an error — and
// answers nothing — on a plain and on a sharded index alike, on ParIS on
// disk and in memory, and on ADS+, while the same entries still answer a
// finite query.
func TestNonFiniteQueriesRejected(t *testing.T) {
	coll := Generate(Synthetic, 600, 64, 17)
	plain, err := NewMESSI(coll, WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sharded, err := NewSharded(coll, WithShards(2), WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	type entry func(x *index, q Series) ([]Match, error)
	one := func(m Match, err error) ([]Match, error) { return []Match{m}, err }
	serve := func(req QueryRequest) entry {
		return func(x *index, q Series) ([]Match, error) {
			req.Query = q
			in := make(chan QueryRequest, 1)
			in <- req
			close(in)
			var resp QueryResponse
			for resp = range x.Serve(context.Background(), in) {
			}
			return resp.Matches, resp.Err
		}
	}
	entries := map[string]entry{
		"Search":            func(x *index, q Series) ([]Match, error) { return one(x.Search(q)) },
		"SearchWithWorkers": func(x *index, q Series) ([]Match, error) { return one(x.SearchWithWorkers(q, 2)) },
		"SearchKNN":         func(x *index, q Series) ([]Match, error) { return x.SearchKNN(q, 3) },
		"SearchDTW":         func(x *index, q Series) ([]Match, error) { return one(x.SearchDTW(q, 4)) },
		"SearchApproximate": func(x *index, q Series) ([]Match, error) { return one(x.SearchApproximate(q)) },
		"SearchWindow":      func(x *index, q Series) ([]Match, error) { return one(x.SearchWindow(q, 100)) },
		"SearchTenant":      func(x *index, q Series) ([]Match, error) { return one(x.SearchTenant(q, "a")) },
		"SearchKNNTenant":   func(x *index, q Series) ([]Match, error) { return x.SearchKNNTenant(q, 3, "a") },
		"SearchDTWTenant":   func(x *index, q Series) ([]Match, error) { return one(x.SearchDTWTenant(q, 4, "a")) },
		"SearchApproximateTenant": func(x *index, q Series) ([]Match, error) {
			return one(x.SearchApproximateTenant(q, "a"))
		},
		"SearchWindowTenant": func(x *index, q Series) ([]Match, error) {
			return one(x.SearchWindowTenant(q, 100, "a"))
		},
		"BatchSearch": func(x *index, q Series) ([]Match, error) {
			return x.BatchSearch([]Series{coll.At(0), q})
		},
		"BatchSearchStats": func(x *index, q Series) ([]Match, error) {
			ms, _, err := x.BatchSearchStats([]Series{q, coll.At(0)})
			return ms, err
		},
		"Serve/NN":     serve(QueryRequest{}),
		"Serve/KNN":    serve(QueryRequest{Kind: QueryKNN, K: 3}),
		"Serve/DTW":    serve(QueryRequest{Kind: QueryDTW, Window: 4}),
		"Serve/Approx": serve(QueryRequest{Kind: QueryApprox}),
		"Serve/Window": serve(QueryRequest{Kind: QueryWindowNN, LastN: 100}),
	}
	cases := map[string]func(q Series) ([]Match, error){}
	for name, call := range entries {
		for backend, x := range map[string]*index{"MESSI": &plain.index, "Sharded": &sharded.index} {
			cases[name+"/"+backend] = func(q Series) ([]Match, error) { return call(x, q) }
		}
	}
	// The on-disk family and the in-memory ParIS.
	dc, err := NewSimulatedDisk(coll, Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	parisDisk, err := NewParIS(dc, WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	parisMem, err := NewParISInMemory(coll, WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	ads, err := NewADSPlus(dc, WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	for backend, p := range map[string]*ParIS{"ParIS": parisDisk, "ParISInMemory": parisMem} {
		cases["Search/"+backend] = func(q Series) ([]Match, error) { return one(p.Search(q)) }
		cases["SearchWithWorkers/"+backend] = func(q Series) ([]Match, error) { return one(p.SearchWithWorkers(q, 2)) }
		cases["SearchKNN/"+backend] = func(q Series) ([]Match, error) { return p.SearchKNN(q, 3) }
		cases["SearchDTW/"+backend] = func(q Series) ([]Match, error) { return one(p.SearchDTW(q, 4)) }
		cases["SearchApproximate/"+backend] = func(q Series) ([]Match, error) { return one(p.SearchApproximate(q)) }
	}
	cases["Search/ADSPlus"] = func(q Series) ([]Match, error) { return one(ads.Search(q)) }

	bad := map[string]float32{"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1)), "-Inf": float32(math.Inf(-1))}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			q := append(Series(nil), coll.At(7)...)
			if _, err := call(q); err != nil {
				t.Fatalf("finite query: %v", err)
			}
			for what, v := range bad {
				q[len(q)/2] = v
				ms, err := call(q)
				if err == nil || !strings.Contains(err.Error(), "finite") {
					t.Fatalf("query holding %s: error %v, want one naming the non-finite value", what, err)
				}
				if !strings.HasPrefix(name, "BatchSearch") {
					for _, m := range ms {
						if m.Pos >= 0 {
							t.Fatalf("query holding %s answered %+v", what, ms)
						}
					}
				}
			}
		})
	}
}

// TestNonFiniteAppendsRejected: a series holding a NaN or an infinity would
// sit in the index as nobody's nearest neighbour while the serial scan
// still reports it, so every append entry refuses it with an error and
// lands nothing — a batch holding one such series included — on a plain
// and on a sharded index alike, while the same entries still land finite
// series.
func TestNonFiniteAppendsRejected(t *testing.T) {
	coll := Generate(Synthetic, 200, 64, 19)
	plain, err := NewMESSI(coll, WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sharded, err := NewSharded(coll, WithShards(2), WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	entries := map[string]func(x *index, s Series) error{
		"Append": func(x *index, s Series) error { _, err := x.Append(s); return err },
		"AppendBatch": func(x *index, s Series) error {
			_, err := x.AppendBatch([]Series{coll.At(1), s})
			return err
		},
		"AppendWithTTL": func(x *index, s Series) error { _, err := x.AppendWithTTL(s, 1<<40); return err },
	}
	bad := map[string]float32{"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1)), "-Inf": float32(math.Inf(-1))}
	for name, call := range entries {
		for backend, x := range map[string]*index{"MESSI": &plain.index, "Sharded": &sharded.index} {
			t.Run(name+"/"+backend, func(t *testing.T) {
				s := append(Series(nil), coll.At(7)...)
				for what, v := range bad {
					s[len(s)/2] = v
					before := x.Len()
					err := call(x, s)
					if err == nil || !strings.Contains(err.Error(), "finite") {
						t.Fatalf("append holding %s: error %v, want one naming the non-finite value", what, err)
					}
					if x.Len() != before {
						t.Fatalf("append holding %s: Len %d -> %d, want nothing landed", what, before, x.Len())
					}
				}
				s[len(s)/2] = 0
				before := x.Len()
				if err := call(x, s); err != nil {
					t.Fatalf("finite append: %v", err)
				}
				if x.Len() <= before {
					t.Fatalf("finite append: Len %d -> %d", before, x.Len())
				}
			})
		}
	}
}
