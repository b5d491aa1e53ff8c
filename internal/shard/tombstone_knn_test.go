package shard

// Regression suite for the tombstone/k-NN interaction audited on
// SearchKNNScoped: deleting a query's nearest neighbors must remove them
// from every k-NN answer — never letting one re-enter through the shared
// cross-shard k-best set — at every shard count, hot and cold placements,
// and in every compaction state (tombstone-filtered, flushed, compacted).

import (
	"fmt"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/ucr"
)

func TestDeletedNearestNeverInKNN(t *testing.T) {
	const k = 8
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 53}
	coll := g.Collection(500)
	extra := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 54}.Collection(60)
	queries := g.PerturbedQueries(coll, 6, 0.05)

	placements := map[string]func(int) bool{
		"hot":  nil,
		"cold": func(si int) bool { return si%2 == 0 },
	}
	for name, cold := range placements {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				opt := Options{Shards: shards,
					Options: messi.Options{MergeThreshold: 1 << 30}}
				if cold != nil {
					opt.ColdStorage = coldOptions(cold)
				}
				s, err := Build(coll, testConfig(), opt)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				// Appends put positions behind the delta scan too, so the
				// delete filter is exercised on both the tree path and the
				// append-store path.
				for i := 0; i < extra.Len(); i++ {
					if _, err := s.Append(extra.At(i)); err != nil {
						t.Fatal(err)
					}
				}
				mirror := landedCollection(s)

				// Delete every query's true top half of its k-NN set — the
				// positions a buggy filter would most likely resurface.
				dead := map[int]bool{}
				for qi := 0; qi < queries.Len(); qi++ {
					for _, r := range ucr.ScanKNN(mirror, queries.At(qi), k/2) {
						if dead[int(r.Pos)] {
							continue
						}
						newly, err := s.Delete(int(r.Pos))
						if err != nil {
							t.Fatal(err)
						}
						if !newly {
							t.Fatalf("position %d reported already deleted", r.Pos)
						}
						dead[int(r.Pos)] = true
					}
				}

				check := func(state string) {
					t.Helper()
					for qi := 0; qi < queries.Len(); qi++ {
						q := queries.At(qi)
						got, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: k, Scope: messi.FullScope})
						if err != nil {
							t.Fatal(err)
						}
						for r, res := range got {
							if dead[int(res.Pos)] {
								t.Fatalf("%s: query %d rank %d returned deleted position %d", state, qi, r, res.Pos)
							}
						}
						want := ucr.ScanLiveKNN(mirror, q, k, 0, func(p int) bool { return dead[p] })
						if len(got) != len(want) {
							t.Fatalf("%s: query %d: %d results, want %d", state, qi, len(got), len(want))
						}
						for r := range want {
							if got[r].Pos != want[r].Pos || got[r].Dist != want[r].Dist {
								t.Fatalf("%s: query %d rank %d: got (#%d, %v), serial live scan says (#%d, %v)",
									state, qi, r, got[r].Pos, got[r].Dist, want[r].Pos, want[r].Dist)
							}
						}
					}
				}
				check("pre-flush")
				s.Flush()
				check("post-flush")
				s.Compact()
				check("post-compact")
				if s.Tombstoned() != len(dead) {
					t.Fatalf("tombstoned %d, want %d", s.Tombstoned(), len(dead))
				}
				if s.Live() != mirror.Len()-len(dead) {
					t.Fatalf("live %d, want %d", s.Live(), mirror.Len()-len(dead))
				}
			})
		}
	}
}

// TestDeleteMidKNNStableUnderCompact drives the mid-query scenario the
// audit reasons about serially: a query that began before a delete keeps
// the delete state it captured, and a query that begins after never sees
// the position again, regardless of concurrent-looking compaction between
// the two. (The concurrent version lives in the -race stress suites.)
func TestDeleteMidKNNStableUnderCompact(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 59}
	coll := g.Collection(300)
	s := buildSharded(t, coll, 3, RoundRobin{})
	q := g.PerturbedQueries(coll, 1, 0.02).At(0)

	before, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
	if err != nil {
		t.Fatal(err)
	}
	victim := int(before[0].Pos)
	if _, err := s.Delete(victim); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		after, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
		if err != nil {
			t.Fatal(err)
		}
		for r, res := range after {
			if int(res.Pos) == victim {
				t.Fatalf("pass %d rank %d: deleted nearest %d re-entered the k-NN set", pass, r, victim)
			}
		}
		want := ucr.ScanLiveKNN(coll, q, 5, 0, func(p int) bool { return p == victim })
		for r := range want {
			if after[r].Pos != want[r].Pos || after[r].Dist != want[r].Dist {
				t.Fatalf("pass %d rank %d: got (#%d, %v), serial live scan says (#%d, %v)",
					pass, r, after[r].Pos, after[r].Dist, want[r].Pos, want[r].Dist)
			}
		}
		s.Compact()
	}
}
