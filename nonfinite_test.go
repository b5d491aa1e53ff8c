package dsidx

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestNonFiniteQueriesRejected: a query holding a NaN or an infinity has no
// nearest neighbour, so every public entry refuses it with an error — and
// answers nothing — on a plain and on a sharded index alike, while the same
// entries still answer a finite query.
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
	bad := map[string]float32{"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1)), "-Inf": float32(math.Inf(-1))}
	for name, call := range entries {
		for backend, x := range map[string]*index{"MESSI": &plain.index, "Sharded": &sharded.index} {
			t.Run(name+"/"+backend, func(t *testing.T) {
				q := append(Series(nil), coll.At(7)...)
				if _, err := call(x, q); err != nil {
					t.Fatalf("finite query: %v", err)
				}
				for what, v := range bad {
					q[len(q)/2] = v
					ms, err := call(x, q)
					if err == nil || !strings.Contains(err.Error(), "finite") {
						t.Fatalf("query holding %s: error %v, want one naming the non-finite value", what, err)
					}
					if name != "BatchSearch" && name != "BatchSearchStats" {
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
}
