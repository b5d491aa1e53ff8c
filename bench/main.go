// Command bench is the repository's one benchmark: four workloads over the
// whole stack, end-to-end latency distributions from an untraced run and
// per-layer attribution from a traced one. See README.md.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench --workload mem-1nn --seed 2020 --seconds 20 --trace 0   one run, result as the last line
//	bench all [-runs n] [-seed s] [-seconds t] [-o file]          every workload in child processes
//	bench compare old.json new.json                               two result files, one row per metric
//	bench selfcheck [-runs n]                                     two sets back to back, held to the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"dsidx/internal/vector"
)

// metric is one emitted value; N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// environment heads every output: the numbers mean nothing without it.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	Vector     string `json:"vector"`
	Commit     string `json:"commit"`
}

// record is one invocation's full result.
type record struct {
	Env       environment       `json:"env"`
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checked   int               `json:"checked"`
	Ops       map[string]int    `json:"ops"`
	Metrics   map[string]metric `json:"metrics"`
}

func currentEnvironment() environment {
	env := environment{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Vector: vector.Impl(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json — from the root itself or from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func main() {
	// The index sizes its pool from GOMAXPROCS; cap it so a large host
	// measures the same configuration shape as a small one.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	outDir := filepath.Join(root, "bench", "out")
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "all":
			err = cmdAll(root, outDir, args[1:])
		case "compare":
			err = cmdCompare(root, args[1:])
		case "selfcheck":
			err = cmdSelfcheck(root, outDir, args[1:])
		default:
			err = fmt.Errorf("unknown command %q (want all, compare or selfcheck)", args[0])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	cfg := config{scale: collectionScale, outDir: outDir}
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 2020, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.Parse(args)
	cfg.trace = *trace == 1
	rec, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printRecord(os.Stderr, rec)
	if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("last-%s-t%d.json", rec.Workload, rec.Trace)), rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(driverLine(rec))
}

// runWorkload runs one invocation in this process and returns its record.
func runWorkload(cfg config) (rec *record, err error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			fe, ok := p.(fatalError)
			if !ok {
				panic(p)
			}
			rec, err = nil, fe
		}
	}()
	r := newRunner(cfg)
	def.run(r)
	return r.finish()
}

// finish closes the books: every metric of the invocation's class is
// present exactly once with its unit, and the trace is on disk. An
// untraced record also keeps the workload-specific end-to-end metrics its
// workload measured.
func (r *runner) finish() (*record, error) {
	trace := 0
	out := make(map[string]metric, len(perLayer))
	// take moves one metric to the record and reports whether it had been
	// emitted; one that was not reads 0 over no samples.
	take := func(d metricDef) bool {
		m, ok := r.metrics[d.Name]
		m.Unit = d.Unit
		out[d.Name] = m
		delete(r.metrics, d.Name)
		return ok
	}
	if r.cfg.trace {
		trace = 1
		r.put("fail_ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
		r.put("bench.gen_s", r.genDur.Seconds(), 1)
		if err := r.tr.write(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".jsonl")); err != nil {
			return nil, err
		}
		// A layer metric nobody emitted is a layer this workload bypasses.
		for _, d := range perLayer {
			take(d)
		}
	} else {
		for _, d := range endToEnd {
			if !take(d) {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.cfg.workload, d.Name)
			}
		}
		for _, d := range perLayer {
			if _, ok := r.metrics[d.Name]; ok && d.Layer == "e2e" {
				take(d)
			}
		}
	}
	for name := range r.metrics {
		return nil, fmt.Errorf("%s: metric %s is not declared in spec.go", r.cfg.workload, name)
	}
	return &record{
		Env: currentEnvironment(), Workload: r.cfg.workload, Trace: trace, Seed: r.cfg.seed,
		Seconds: r.cfg.seconds, Scale: r.cfg.scale,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Checked: r.checked,
		Ops: r.opCounts, Metrics: out,
	}, nil
}

// driverLine is the record as the driver's contract wants it: exactly
// correct, attempted, failed and metrics — the ones BENCHMARK.json lists
// for this kind of invocation — each metric a value and a unit.
func driverLine(rec *record) string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]valueUnit{}}
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		line.Metrics[d.Name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

func printEnvironment(w *os.File, env environment) {
	fmt.Fprintf(w, "# cpu=%q nproc=%d gomaxprocs=%d workers=%d %s vector=%s commit=%s\n",
		env.CPU, env.NProc, env.GOMAXPROCS, env.Workers, env.Go, env.Vector, env.Commit)
}

// printRecord writes the human-readable form: environment header, op
// counts, then every metric by name with its unit and sample count.
func printRecord(w *os.File, rec *record) {
	printEnvironment(w, rec.Env)
	fmt.Fprintf(w, "# workload=%s trace=%d seed=%d seconds=%g scale=%g ops=%v attempted=%d failed=%d checked=%d\n",
		rec.Workload, rec.Trace, rec.Seed, rec.Seconds, rec.Scale, rec.Ops, rec.Attempted, rec.Failed, rec.Checked)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
