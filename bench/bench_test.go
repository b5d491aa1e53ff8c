package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// testConfig is a 1/100-scale run with a fixed op count.
func testConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.01, ops: 240, outDir: t.TempDir()}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %q %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			w := want[i]
			if m != (specMetric{w.Name, w.Unit, w.Better, w.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, m, w)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(xs[:1000], 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples was not refused")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if s, ok := spread(xs); !ok || math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, %v; want 1", s, ok)
	}
	if _, ok := spread([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{"nn_p50_ms", "ms", "lower", 0.10}
	higher := specMetric{"qps", "1/s", "higher", 0.10}
	steady := []float64{1, 1.01, 0.99}
	for _, c := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, []float64{1}, []float64{1.5}, "unresolved"}, // one run a side has no spread
		{lower, steady, []float64{1.5}, "unresolved"},
		{lower, steady, []float64{1, 1.3, 0.7}, "unresolved"}, // spread wider than the bound
		{lower, steady, []float64{1.2, 1.21, 1.19}, "worse"},
		{lower, steady, []float64{0.8, 0.81, 0.79}, "better"},
		{lower, steady, []float64{1.05, 1.06, 1.04}, "same"},
		{higher, steady, []float64{1.2, 1.21, 1.19}, "better"},
		{higher, steady, []float64{0.8, 0.81, 0.79}, "worse"},
	} {
		if got := (row{c.m, c.a, c.b}).verdict(); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// readTrace parses a trace file.
func readTrace(t *testing.T, path string) []span {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestWorkloadsEmitEveryMetricOnce(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, w.Name, trace)
			rec, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 || rec.Checked < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d checked=%d", w.Name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Checked)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			// An untraced record also keeps the workload-specific end-to-end
			// metrics; the driver's line has exactly the declared ones.
			if trace && len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, present %v", w.Name, trace, d.Name, m, ok)
				}
				if !trace && (m.Value <= 0 || m.N < 1) {
					t.Errorf("%s: end-to-end metric %s = %v over %d samples", w.Name, d.Name, m.Value, m.N)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]map[string]any
			}
			if err := json.Unmarshal([]byte(driverLine(rec)), &line); err != nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: driver line: %v", w.Name, trace, err)
			}
			if !trace {
				for _, name := range map[string][]string{"sharded-mix": {"knn_p50_ms"}, "churn": {"append_per_s"}}[w.Name] {
					if rec.Metrics[name].Value <= 0 {
						t.Errorf("%s: the untraced record has no %s for compare to read", w.Name, name)
					}
				}
				continue
			}
			for _, v := range bypassViolations(rec, false) {
				t.Error(v)
			}
			checkTrace(t, w.Name, readTrace(t, filepath.Join(cfg.outDir, "trace-"+w.Name+".jsonl")))
		}
	}
}

// checkTrace holds the spans to their invariants: ids are unique, children
// lie inside their parents and share their op, self times are not negative.
func checkTrace(t *testing.T, workload string, spans []span) {
	if len(spans) == 0 {
		t.Fatalf("%s: empty trace", workload)
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("%s: span id %d is zero or used twice", workload, s.ID)
		}
		byID[s.ID] = s
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d ends before it starts", workload, s.ID)
		}
		if workload == "mem-1nn" && (strings.HasPrefix(s.Name, "shard.") || strings.HasPrefix(s.Name, "serve.")) {
			t.Errorf("mem-1nn: span %s of a bypassed layer", s.Name)
		}
	}
	replayed := 0
	for _, s := range spans {
		if s.Replayed {
			replayed++
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.OpID != p.OpID {
			t.Errorf("%s: span %d (%s) is not inside its parent %d", workload, s.ID, s.Name, s.Parent)
		}
	}
	if replayed == 0 {
		t.Errorf("%s: no replayed child spans", workload)
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %d has self time %d ns", workload, id, self)
		}
	}
}

func TestOneSeedOneOpSequence(t *testing.T) {
	// One worker: a parallel build and a parallel search are both free to
	// order their work differently from run to run, and the counts follow.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// mem-1nn is the one workload with a single client and no writer.
	for _, workload := range []string{"mem-1nn"} {
		var counters [2]map[string]float64
		for i := range counters {
			rec, err := runWorkload(testConfig(t, workload, true))
			if err != nil {
				t.Fatal(err)
			}
			counters[i] = map[string]float64{}
			for name, m := range rec.Metrics {
				if strings.HasPrefix(name, "messi.") && strings.HasSuffix(name, "_per_query") {
					counters[i][name] = m.Value
				}
			}
		}
		if len(counters[0]) != 4 || !reflect.DeepEqual(counters[0], counters[1]) {
			t.Errorf("%s: two runs of one seed counted differently:\n%v\n%v", workload, counters[0], counters[1])
		}
	}
	var streams [2][][]op
	for i := range streams {
		r := newRunner(testConfig(t, "sharded-mix", false))
		coll := r.generate(500)
		streams[i] = r.streams(r.queryPools(coll, 400, hardShare), 2, 200, &shardedMix, hardShare)
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Error("two streams of one seed differ")
	}
	kinds := map[int]int{}
	for _, o := range streams[0][0] {
		kinds[int(o.kind)]++
	}
	if len(kinds) != len(shardedMix) {
		t.Errorf("200 ops drew %d of %d request kinds", len(kinds), len(shardedMix))
	}
}
