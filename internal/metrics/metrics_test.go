package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// zero is the sample of an instrument whose value a test does not read.
func zero() float64 { return 0 }

// TestGoldenText pins the exact exposition text for one registry holding
// every instrument kind: family ordering (sorted by name), HELP/TYPE
// lines, label rendering and escaping, and the histogram's cumulative
// bucket/_sum/_count expansion. Any byte-level drift in the encoder
// fails here.
func TestGoldenText(t *testing.T) {
	r := NewRegistry()

	c := NewCounterFunc(Opts{Name: "ds_queries_total", Help: "Total queries."},
		func() float64 { return 42 })

	g := NewGaugeFunc(Opts{Name: "ds_pending", Help: "Pending appends."},
		func() float64 { return 7 })

	gf := NewGaugeFunc(Opts{
		Name:   "ds_workers",
		Help:   `Worker count for pool "main" \ friends.`,
		Labels: []Label{{Key: "pool", Value: `ma"in\`}},
	}, func() float64 { return 3 })

	cf := NewCounterFunc(Opts{Name: "ds_bytes_total", Help: "Bytes."},
		func() float64 { return 1.5e6 })

	h := NewHistogram(Opts{
		Name:   "ds_query_seconds",
		Help:   "Query latency.",
		Labels: []Label{{Key: "shard", Value: "0"}},
	}, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(5) // lands in +Inf

	r.MustRegister(c, g, gf, cf, h)

	want := `# HELP ds_bytes_total Bytes.
# TYPE ds_bytes_total counter
ds_bytes_total 1.5e+06
# HELP ds_pending Pending appends.
# TYPE ds_pending gauge
ds_pending 7
# HELP ds_queries_total Total queries.
# TYPE ds_queries_total counter
ds_queries_total 42
# HELP ds_query_seconds Query latency.
# TYPE ds_query_seconds histogram
ds_query_seconds_bucket{shard="0",le="0.001"} 1
ds_query_seconds_bucket{shard="0",le="0.01"} 1
ds_query_seconds_bucket{shard="0",le="0.1"} 2
ds_query_seconds_bucket{shard="0",le="+Inf"} 3
ds_query_seconds_sum{shard="0"} 5.0205
ds_query_seconds_count{shard="0"} 3
# HELP ds_workers Worker count for pool "main" \\ friends.
# TYPE ds_workers gauge
ds_workers{pool="ma\"in\\"} 3
`
	got := r.Text()
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, err := Parse(got); err != nil {
		t.Fatalf("golden text does not self-parse: %v", err)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram(Opts{Name: "h"}, []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(3)
	var b strings.Builder
	h.write(&b, h.o.Labels)
	want := "h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 5.5\nh_count 3\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistryConflicts(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad name", func() {
		NewRegistry().MustRegister(NewCounterFunc(Opts{Name: "0bad"}, zero))
	})
	mustPanic("bad label", func() {
		NewRegistry().MustRegister(NewCounterFunc(Opts{Name: "ok", Labels: []Label{{Key: "0k", Value: "v"}}}, zero))
	})
	mustPanic("type conflict", func() {
		r := NewRegistry()
		r.MustRegister(NewCounterFunc(Opts{Name: "m", Labels: []Label{{Key: "a", Value: "1"}}}, zero))
		r.MustRegister(NewGaugeFunc(Opts{Name: "m", Labels: []Label{{Key: "a", Value: "2"}}}, zero))
	})
	mustPanic("duplicate series", func() {
		r := NewRegistry()
		r.MustRegister(NewCounterFunc(Opts{Name: "m"}, zero))
		r.MustRegister(NewCounterFunc(Opts{Name: "m"}, zero))
	})

	// Same family, different labels: allowed, renders one TYPE header.
	r := NewRegistry()
	r.MustRegister(
		NewCounterFunc(Opts{Name: "m", Labels: []Label{{Key: "a", Value: "1"}}}, zero),
		NewCounterFunc(Opts{Name: "m", Labels: []Label{{Key: "a", Value: "2"}}}, zero),
	)
	text := r.Text()
	if strings.Count(text, "# TYPE m counter") != 1 {
		t.Fatalf("want one TYPE line, got:\n%s", text)
	}
	fams, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if fams["m"].Samples != 2 {
		t.Fatalf("want 2 samples, got %+v", fams["m"])
	}
}

// TestConcurrentObserveAndRender races writers against scrapes under
// -race: the exposition must stay parseable and histogram invariants
// must hold in every snapshot.
func TestConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	var n, gbits atomic.Uint64
	c := NewCounterFunc(Opts{Name: "c_total"}, func() float64 { return float64(n.Load()) })
	g := NewGaugeFunc(Opts{Name: "g"}, func() float64 { return math.Float64frombits(gbits.Load()) })
	h := NewHistogram(Opts{Name: "h_seconds"}, LatencyBuckets)
	r.MustRegister(c, g, h)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n.Add(1)
				gbits.Store(math.Float64bits(seed + float64(i)))
				h.Observe(seed * 0.001 * float64(i%17))
			}
		}(float64(w + 1))
	}
	for i := 0; i < 200; i++ {
		if _, err := Parse(r.Text()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounterFunc(Opts{Name: "m_total"}, func() float64 { return 1 }))
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(string(body))
	if err != nil {
		t.Fatalf("handler body does not parse: %v\n%s", err, body)
	}
	if fams["m_total"].Samples != 1 {
		t.Fatalf("missing m_total in:\n%s", body)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []struct{ name, text string }{
		{"no TYPE", "m 1\n"},
		{"dup TYPE", "# TYPE m counter\n# TYPE m counter\nm 1\n"},
		{"bad value", "# TYPE m counter\nm one\n"},
		{"negative counter", "# TYPE m counter\nm -1\n"},
		{"unknown type", "# TYPE m flurble\nm 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"},
		{"unterminated labels", "# TYPE m counter\nm{a=\"1\" 1\n"},
		{"unquoted label", "# TYPE m counter\nm{a=1} 1\n"},
		{"trailing junk", "# TYPE m counter\nm 1 2 3\n"},
	}
	for _, tc := range bad {
		if _, err := Parse(tc.text); err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.text)
		}
	}
	// Negative gauges are fine.
	if _, err := Parse("# TYPE g gauge\ng -1\n"); err != nil {
		t.Errorf("negative gauge rejected: %v", err)
	}
}
