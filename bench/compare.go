package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the tools read: how long a
// run measures and each end-to-end metric's direction and bound.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// gated lists the metrics compare and selfcheck hold to a bound: the
// end-to-end ones at BENCHMARK.json's bounds, then the workload-specific
// end-to-end ones at timingBound.
func (s *benchmarkSpec) gated() []specMetric {
	out := append([]specMetric(nil), s.EndToEnd...)
	for _, d := range perLayer {
		if d.Layer == "e2e" && d.Name != "fail_ratio" {
			out = append(out, specMetric{d.Name, d.Unit, d.Better, timingBound})
		}
	}
	return out
}

// resultSet is what `all` writes and `compare` reads.
type resultSet struct {
	Env     environment `json:"env"`
	Records []record    `json:"records"`
}

// values gathers one metric's value from every untraced record of a
// workload that measured it (a 0 is a percentile the sample was too small
// for): end-to-end numbers come from untraced runs only, one per seed.
func (rs *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, rec := range rs.Records {
		if m, ok := rec.Metrics[name]; ok && rec.Workload == workload && rec.Trace == 0 && m.Value != 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// failRatio is failed over attempted across a workload's records.
func (rs *resultSet) failRatio(workload string) float64 {
	var failed, attempted int
	for _, rec := range rs.Records {
		if rec.Workload == workload {
			failed += rec.Failed
			attempted += rec.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// runSet runs every workload runs times untraced (seeds seed, seed+1, …)
// and, when traced is set, once traced, each in a child process of its
// own so heap and pools start clean.
func runSet(outDir string, seed int64, seconds float64, runs int, traced bool) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Env: currentEnvironment()}
	child := func(workload string, seed int64, trace int) error {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		data, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("last-%s-t%d.json", workload, trace)))
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		set.Records = append(set.Records, rec)
		return nil
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			if err := child(w.Name, seed+int64(i), 0); err != nil {
				return nil, err
			}
		}
		if traced {
			if err := child(w.Name, seed, 1); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

func cmdAll(root, outDir string, args []string) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", 2020, "first input seed")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "measured seconds per run")
	runs := fs.Int("runs", 5, "untraced runs per workload, each with the next seed; compare needs at least 2")
	out := fs.String("o", filepath.Join(outDir, "results.json"), "result file")
	fs.Parse(args)
	set, err := runSet(outDir, *seed, *seconds, *runs, true)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d records)\n", *out, len(set.Records))
	return writeJSON(*out, set)
}

// row is one metric of one workload as two sets measured it.
type row struct {
	metric specMetric
	a, b   []float64
}

// verdict compares the medians: worse and better are moves past the bound
// in the metric's own direction; unresolved is a set with fewer than two
// runs, or one whose own spread exceeds the bound: a move of that size
// proves nothing there.
func (r row) verdict() string {
	for _, xs := range [][]float64{r.a, r.b} {
		if s, ok := spread(xs); !ok || s > r.metric.Bound {
			return "unresolved"
		}
	}
	ma, mb := median(r.a), median(r.b)
	worse := (mb - ma) / ma
	if r.metric.Better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case worse > r.metric.Bound:
		return "worse"
	case worse < -r.metric.Bound:
		return "better"
	}
	return "same"
}

func spreadText(xs []float64) string {
	if s, ok := spread(xs); ok {
		return fmt.Sprintf("%.1f%%", s*100)
	}
	return "n/a"
}

// compareSets prints one row per (workload, gated metric) both sets
// measured and reports whether any got worse or any fail ratio rose.
func compareSets(spec *benchmarkSpec, a, b *resultSet) (regressed bool) {
	fmt.Printf("%-12s %-26s %12s %12s  %-22s %6s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "bound", "spread-o", "spread-n", "verdict")
	for _, w := range workloads {
		for _, m := range spec.gated() {
			r := row{m, a.values(w.Name, m.Name), b.values(w.Name, m.Name)}
			if len(r.a) == 0 || len(r.b) == 0 {
				continue
			}
			v := r.verdict()
			ma, mb := median(r.a), median(r.b)
			fmt.Printf("%-12s %-26s %12.4f %12.4f  %-22s %5.0f%% %8s %8s  %s\n",
				w.Name, m.Name, ma, mb, fmt.Sprintf("%.3fx of %.4g %s", mb/ma, ma, m.Unit),
				m.Bound*100, spreadText(r.a), spreadText(r.b), v)
			regressed = regressed || v == "worse"
		}
		fa, fb := a.failRatio(w.Name), b.failRatio(w.Name)
		v := "same"
		if fb > fa {
			v, regressed = "worse", true
		}
		fmt.Printf("%-12s %-26s %12.6f %12.6f  %-22s %6s %8s %8s  %s\n", w.Name, "fail_ratio", fa, fb, "must stay 0", "0", "", "", v)
	}
	return regressed
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func cmdCompare(root string, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare old.json new.json")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	fmt.Print("old: ")
	printEnvironment(os.Stdout, a.Env)
	fmt.Print("new: ")
	printEnvironment(os.Stdout, b.Env)
	if compareSets(spec, a, b) {
		return errors.New("compare: at least one metric got worse")
	}
	return nil
}

// bypassViolations holds a traced record to the predictions of the
// README's interaction table: a layer a workload bypasses reports nothing.
// At full scale the layers a workload exists to exercise must also have
// done their work.
func bypassViolations(rec *record, fullScale bool) []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, rec.Workload+": "+fmt.Sprintf(format, args...))
	}
	value := func(name string) float64 { return rec.Metrics[name].Value }
	cold := rec.Workload == "cold-ssd"
	for name, m := range rec.Metrics {
		if strings.HasPrefix(name, "storage.") && !cold && (m.Value != 0 || m.N != 0) {
			bad("%s = %v on a hot workload", name, m.Value)
		}
	}
	if cold && value("storage.device_reads_per_query") <= 0 {
		bad("no device reads")
	}
	if rec.Workload == "mem-1nn" {
		for _, name := range []string{"messi.merges", "shard.search_us_p50", "shard.overhead_us", "serve.overhead_us"} {
			if m := rec.Metrics[name]; m.Value != 0 || m.N != 0 {
				bad("%s = %+v, want nothing", name, m)
			}
		}
	}
	if value("fail_ratio") != 0 {
		bad("fail_ratio = %v", value("fail_ratio"))
	}
	if !fullScale {
		return out
	}
	if cold && value("storage.device_reads_per_query") <= 100 {
		bad("storage.device_reads_per_query = %v, want more than 100", value("storage.device_reads_per_query"))
	}
	if rec.Workload == "churn" && value("messi.merges") < 3 {
		bad("messi.merges = %v, want at least 3", value("messi.merges"))
	}
	return out
}

// cmdSelfcheck is the acceptance procedure run against the benchmark
// itself: two sets of runs of the same code, each of -runs seeds per
// workload. Every end-to-end metric of BENCHMARK.json must spread within
// its bound inside each set, and the second set's median must not be worse
// than the first's by more than the bound; the workload-specific ones are
// compared and printed with their spreads, not held. One traced run per
// workload then checks the bypass predictions at full scale.
func cmdSelfcheck(root, outDir string, args []string) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "first input seed")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "measured seconds per run")
	runs := fs.Int("runs", 10, "runs per workload and set, each with another seed")
	fs.Parse(args)
	var sets [2]*resultSet
	for i := range sets {
		if sets[i], err = runSet(outDir, *seed+int64(i**runs), *seconds, *runs, i == 1); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i+1)), sets[i]); err != nil {
			return err
		}
	}
	printEnvironment(os.Stdout, sets[0].Env)
	compareSets(spec, sets[0], sets[1])
	failed := false
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL "+format+"\n", args...)
		failed = true
	}
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			r := row{m, sets[0].values(w.Name, m.Name), sets[1].values(w.Name, m.Name)}
			for i, xs := range [][]float64{r.a, r.b} {
				if s, ok := spread(xs); !ok || s > m.Bound {
					fail("%s %s: spread %s of set %d exceeds bound %.0f%%", w.Name, m.Name, spreadText(xs), i+1, m.Bound*100)
				}
			}
			if v := r.verdict(); v == "worse" {
				fail("%s %s: the second set's median is worse than the first's by more than %.0f%%", w.Name, m.Name, m.Bound*100)
			}
		}
		if sets[0].failRatio(w.Name) != 0 || sets[1].failRatio(w.Name) != 0 {
			fail("%s: fail_ratio is not 0", w.Name)
		}
	}
	for i := range sets[1].Records {
		if rec := &sets[1].Records[i]; rec.Trace == 1 {
			for _, v := range bypassViolations(rec, true) {
				fail("%s", v)
			}
		}
	}
	if failed {
		return errors.New("selfcheck: the benchmark does not repeat within its own bounds")
	}
	fmt.Println("selfcheck: every end-to-end metric agrees within its bound and the bypass predictions hold")
	return nil
}
