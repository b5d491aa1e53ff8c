package dsidx

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestShardedPublicAPI(t *testing.T) {
	coll := Generate(Synthetic, 3000, 128, 42)
	queries := GeneratePerturbedQueries(coll, 10, 0.05, 43)

	plain, err := NewMESSI(coll)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	s, err := NewSharded(coll, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.Shards() != 4 || s.Len() != coll.Len() {
		t.Fatalf("shards=%d len=%d", s.Shards(), s.Len())
	}
	if st := s.Stats(); st.Series != coll.Len() || st.Leaves == 0 {
		t.Fatalf("merged stats: %+v", st)
	}

	// Sharding must not change any answer: 1-NN, k-NN and DTW all match the
	// unsharded index exactly.
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		a, err := plain.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: plain %+v != sharded %+v", i, a, b)
		}
		ak, err := plain.SearchKNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		bk, err := s.SearchKNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(ak) != len(bk) {
			t.Fatalf("query %d: k-NN sizes %d != %d", i, len(ak), len(bk))
		}
		for r := range ak {
			if ak[r] != bk[r] {
				t.Fatalf("query %d rank %d: plain %+v != sharded %+v", i, r, ak[r], bk[r])
			}
		}
		ad, err := plain.SearchDTW(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := s.SearchDTW(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if ad != bd {
			t.Fatalf("query %d: DTW plain %+v != sharded %+v", i, ad, bd)
		}
	}

	// Batch and approximate paths.
	qs := make([]Series, queries.Len())
	for i := range qs {
		qs[i] = queries.At(i)
	}
	ms, stats, err := s.BatchSearchStats(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		want, err := plain.Search(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if ms[i] != want {
			t.Fatalf("batch %d: %+v != %+v", i, ms[i], want)
		}
		if stats[i].Observed != coll.Len() {
			t.Fatalf("batch %d observed %d", i, stats[i].Observed)
		}
	}
	if am, err := s.SearchApproximate(qs[0]); err != nil || am.Pos < 0 {
		t.Fatalf("approximate: %+v, %v", am, err)
	}
	if est := s.EngineStats(); est.Tasks == 0 {
		t.Error("sharded queries executed no tasks on the shared pool")
	}
}

func TestShardedAppendSaveOpenRoundTrip(t *testing.T) {
	coll := Generate(Synthetic, 800, 64, 7)
	extra := Generate(SALD, 150, 64, 8)
	s, err := NewSharded(coll, WithShards(3), WithShardPolicy(ShardByHash), WithMergeThreshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 100; i++ {
		pos, err := s.Append(extra.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if pos != 800+i {
			t.Fatalf("append %d landed at %d", i, pos)
		}
	}
	s.Flush()
	batch := make([]Series, 50)
	for i := range batch {
		batch[i] = extra.At(100 + i)
	}
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	ist := s.IngestStats()
	if ist.Appended != 150 || ist.Merged != 100 || ist.Pending != 50 {
		t.Fatalf("ingest stats: %+v", ist)
	}

	path := filepath.Join(t.TempDir(), "sharded.dsidx")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSharded(path, coll)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Shards() != 3 || s2.Len() != s.Len() {
		t.Fatalf("reopened shards=%d len=%d", s2.Shards(), s2.Len())
	}
	// The appended series keep their global positions across the round trip.
	m, err := s2.Search(extra.At(120))
	if err != nil {
		t.Fatal(err)
	}
	if m.Pos != 920 || m.Distance != 0 {
		t.Fatalf("reopened self-query: %+v", m)
	}
	queries := GeneratePerturbedQueries(coll, 6, 0.05, 9)
	for i := 0; i < queries.Len(); i++ {
		a, err := s.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s2.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d across save: %+v != %+v", i, a, b)
		}
	}

	// Topology conflicts surface as errors.
	if _, err := OpenSharded(path, coll, WithShards(2)); err == nil {
		t.Fatal("OpenSharded accepted a conflicting shard count")
	}
	if _, err := OpenSharded(path, coll, WithShardPolicy(ShardRoundRobin)); err == nil {
		t.Fatal("OpenSharded accepted a conflicting policy")
	}
}

func TestShardedOpensLegacyMESSIFile(t *testing.T) {
	coll := Generate(Synthetic, 500, 64, 17)
	plain, err := NewMESSI(coll, WithMergeThreshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	extra := Generate(SALD, 40, 64, 18)
	for i := 0; i < extra.Len(); i++ {
		if _, err := plain.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "plain.dsidx")
	if err := plain.Save(path); err != nil {
		t.Fatal(err)
	}

	s, err := OpenSharded(path, coll)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 1 || s.Len() != plain.Len() {
		t.Fatalf("legacy open: shards=%d len=%d, want 1/%d", s.Shards(), s.Len(), plain.Len())
	}
	queries := GeneratePerturbedQueries(coll, 6, 0.05, 19)
	for i := 0; i < queries.Len(); i++ {
		a, err := plain.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("legacy query %d: %+v != %+v", i, a, b)
		}
	}
}

func TestShardedServePublicAPI(t *testing.T) {
	coll := Generate(Synthetic, 1200, 64, 27)
	queries := GeneratePerturbedQueries(coll, 9, 0.05, 28)
	s, err := NewSharded(coll, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plain, err := NewMESSI(coll)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan QueryRequest)
	out := s.Serve(ctx, in)
	go func() {
		defer close(in)
		for i := 0; i < queries.Len(); i++ {
			req := QueryRequest{ID: int64(i), Query: queries.At(i)}
			switch i % 3 {
			case 1:
				req.Kind = QueryKNN
				req.K = 3
			case 2:
				req.Kind = QueryDTW
				req.Window = 4
			}
			in <- req
		}
	}()
	answered := 0
	for resp := range out {
		if resp.Err != nil {
			t.Fatalf("response %d: %v", resp.ID, resp.Err)
		}
		i := int(resp.ID)
		switch i % 3 {
		case 0:
			want, err := plain.Search(queries.At(i))
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Matches) != 1 || resp.Matches[0] != want {
				t.Fatalf("serve NN %d: %+v != %+v", i, resp.Matches, want)
			}
		case 1:
			want, err := plain.SearchKNN(queries.At(i), 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Matches) != len(want) {
				t.Fatalf("serve KNN %d: %d matches, want %d", i, len(resp.Matches), len(want))
			}
			for r := range want {
				if resp.Matches[r] != want[r] {
					t.Fatalf("serve KNN %d rank %d: %+v != %+v", i, r, resp.Matches[r], want[r])
				}
			}
		case 2:
			want, err := plain.SearchDTW(queries.At(i), 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Matches) != 1 || resp.Matches[0] != want {
				t.Fatalf("serve DTW %d: %+v != %+v", i, resp.Matches, want)
			}
		}
		answered++
	}
	if answered != queries.Len() {
		t.Fatalf("answered %d of %d requests", answered, queries.Len())
	}
}

// publicIndex is the surface MESSI and Sharded share, plus their own Health
// counter, so one table drives both.
type publicIndex interface {
	Search(q Series) (Match, error)
	SearchKNN(q Series, k int) ([]Match, error)
	SearchDTW(q Series, window int) (Match, error)
	SearchApproximate(q Series) (Match, error)
	SearchWindow(q Series, n int) (Match, error)
	SearchTenant(q Series, tenant string) (Match, error)
	SearchKNNTenant(q Series, k int, tenant string) ([]Match, error)
	SearchDTWTenant(q Series, window int, tenant string) (Match, error)
	SearchApproximateTenant(q Series, tenant string) (Match, error)
	SearchWindowTenant(q Series, n int, tenant string) (Match, error)
	AppendBatch(ss []Series) (int, error)
	Flush()
	Serve(ctx context.Context, in <-chan QueryRequest) <-chan QueryResponse
	EngineStats() EngineStats
	Close()
}

// direct answers req through the public method of its kind and tenancy.
func direct(ix publicIndex, req QueryRequest) ([]Match, error) {
	one := func(m Match, err error) ([]Match, error) { return []Match{m}, err }
	q, tenant := req.Query, req.Tenant
	switch {
	case req.Kind == QueryKNN && tenant == "":
		return ix.SearchKNN(q, req.K)
	case req.Kind == QueryKNN:
		return ix.SearchKNNTenant(q, req.K, tenant)
	case req.Kind == QueryDTW && tenant == "":
		return one(ix.SearchDTW(q, req.Window))
	case req.Kind == QueryDTW:
		return one(ix.SearchDTWTenant(q, req.Window, tenant))
	case req.Kind == QueryApprox && tenant == "":
		return one(ix.SearchApproximate(q))
	case req.Kind == QueryApprox:
		return one(ix.SearchApproximateTenant(q, tenant))
	case req.Kind == QueryWindowNN && tenant == "":
		return one(ix.SearchWindow(q, req.LastN))
	case req.Kind == QueryWindowNN:
		return one(ix.SearchWindowTenant(q, req.LastN, tenant))
	case tenant == "":
		return one(ix.Search(q))
	default:
		return one(ix.SearchTenant(q, tenant))
	}
}

// TestServeAnswersAndCountsLikeTheDirectMethods pins what embedding the one
// shared surface in MESSI and Sharded must not change: for every QueryKind,
// with and without a tenant, on a plain index and on 1 and 4 shards, Serve
// answers exactly what the kind's public method answers, bit for bit, and
// one public call counts one query in EngineStats().Queries and one search
// per shard in Health().Searches. An unknown kind is an error.
func TestServeAnswersAndCountsLikeTheDirectMethods(t *testing.T) {
	coll := Generate(Synthetic, 900, 64, 31)
	queries := GeneratePerturbedQueries(coll, 3, 0.05, 32)
	extra := Generate(Synthetic, 120, 64, 33)
	plain, err := NewMESSI(coll, WithMergeThreshold(64))
	if err != nil {
		t.Fatal(err)
	}
	indexes := map[string]publicIndex{"messi": plain}
	shards := map[string]uint64{"messi": 1}
	searches := map[string]func() uint64{"messi": func() uint64 { return plain.Health().Searches }}
	for _, n := range []int{1, 4} {
		s, err := NewSharded(coll, WithShards(n), WithMergeThreshold(64))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("sharded-%d", n)
		indexes[name], shards[name] = s, uint64(n)
		searches[name] = func() uint64 { return s.Health().Searches }
	}
	for name, ix := range indexes {
		defer ix.Close()
		// Merged and unmerged appends, so the window's lower cut and the
		// delta scan both take part; too few unmerged ones to start a
		// merge, which would move an approximate answer between calls.
		var batch []Series
		for i := 0; i < extra.Len(); i++ {
			batch = append(batch, extra.At(i))
		}
		if _, err := ix.AppendBatch(batch[:100]); err != nil {
			t.Fatal(err)
		}
		ix.Flush()
		if _, err := ix.AppendBatch(batch[100:]); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		in := make(chan QueryRequest)
		out := ix.Serve(ctx, in)
		serve := func(req QueryRequest) QueryResponse {
			in <- req
			return <-out
		}
		for _, tenant := range []string{"", "t"} {
			for kind := QueryNN; kind <= QueryWindowNN; kind++ {
				for i := 0; i < queries.Len(); i++ {
					req := QueryRequest{ID: int64(i), Query: queries.At(i), Kind: kind, K: 4, Window: 3, LastN: 300, Tenant: tenant}
					q0, s0 := ix.EngineStats().Queries, searches[name]()
					want, err := direct(ix, req)
					if err != nil {
						t.Fatalf("%s kind %d tenant %q: %v", name, kind, tenant, err)
					}
					if dq, ds := ix.EngineStats().Queries-q0, searches[name]()-s0; dq != 1 || ds != shards[name] {
						t.Errorf("%s kind %d tenant %q: one call counted %d queries and %d searches, want 1 and %d",
							name, kind, tenant, dq, ds, shards[name])
					}
					got := serve(req)
					if got.Err != nil || !reflect.DeepEqual(got.Matches, want) {
						t.Errorf("%s kind %d tenant %q query %d: Serve %+v (%v), direct %+v",
							name, kind, tenant, i, got.Matches, got.Err, want)
					}
				}
			}
		}
		if resp := serve(QueryRequest{ID: 9, Query: queries.At(0), Kind: QueryWindowNN + 1}); resp.Err == nil || resp.Matches != nil {
			t.Errorf("%s: unknown QueryKind answered %+v (%v)", name, resp.Matches, resp.Err)
		}
	}
}

// TestExportedMethodSetsUnchanged pins the public method sets of MESSI and
// Sharded, most of which are promoted from the surface they share: the
// names and signatures below are the ones the types exported before that
// surface was written once, and a value (non-pointer) exports none.
func TestExportedMethodSetsUnchanged(t *testing.T) {
	shared := []string{
		"Append(series.Series) (int, error)",
		"AppendBatch([]series.Series) (int, error)",
		"AppendWithTTL(series.Series, int64) (int, error)",
		"BatchSearch([]series.Series) ([]dsidx.Match, error)",
		"BatchSearchStats([]series.Series) ([]dsidx.Match, []dsidx.SearchStats, error)",
		"Close() ()",
		"Compact() ()",
		"Delete(int) (bool, error)",
		"DeleteRange(int, int) (int, error)",
		"EngineStats() (dsidx.EngineStats)",
		"ExpireBefore(int64) (int)",
		"Flush() ()",
		"IngestStats() (dsidx.IngestStats)",
		"Len() (int)",
		"Live() (int)",
		"Metrics() (dsidx.Metrics)",
		"Save(string) (error)",
		"Search(series.Series) (dsidx.Match, error)",
		"SearchApproximate(series.Series) (dsidx.Match, error)",
		"SearchApproximateTenant(series.Series, string) (dsidx.Match, error)",
		"SearchDTW(series.Series, int) (dsidx.Match, error)",
		"SearchDTWTenant(series.Series, int, string) (dsidx.Match, error)",
		"SearchKNN(series.Series, int) ([]dsidx.Match, error)",
		"SearchKNNTenant(series.Series, int, string) ([]dsidx.Match, error)",
		"SearchTenant(series.Series, string) (dsidx.Match, error)",
		"SearchWindow(series.Series, int) (dsidx.Match, error)",
		"SearchWindowTenant(series.Series, int, string) (dsidx.Match, error)",
		"SearchWithWorkers(series.Series, int) (dsidx.Match, error)",
		"Serve(context.Context, <-chan dsidx.QueryRequest) (<-chan dsidx.QueryResponse)",
		"SetTTL(int, int64) (error)",
		"Stats() (dsidx.IndexStats)",
		"TenantStats() ([]dsidx.TenantStats)",
		"Tombstoned() (int)",
	}
	want := map[reflect.Type][]string{
		reflect.TypeOf(&MESSI{}):   append(slices.Clone(shared), "Health() (dsidx.Health)"),
		reflect.TypeOf(&Sharded{}): append(slices.Clone(shared), "Health() (dsidx.ShardedHealth)", "Shards() (int)"),
		reflect.TypeOf(MESSI{}):    nil,
		reflect.TypeOf(Sharded{}):  nil,
	}
	for typ, methods := range want {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			var ins, outs []string
			for j := 1; j < m.Type.NumIn(); j++ {
				ins = append(ins, m.Type.In(j).String())
			}
			for j := 0; j < m.Type.NumOut(); j++ {
				outs = append(outs, m.Type.Out(j).String())
			}
			got = append(got, fmt.Sprintf("%s(%s) (%s)", m.Name, strings.Join(ins, ", "), strings.Join(outs, ", ")))
		}
		slices.Sort(methods)
		if !slices.Equal(got, methods) {
			t.Errorf("%v exports\n\t%s\nwant\n\t%s", typ, strings.Join(got, "\n\t"), strings.Join(methods, "\n\t"))
		}
	}
}
