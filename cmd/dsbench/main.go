// Command dsbench reproduces the paper's evaluation: it runs any (or all)
// of the figure/ablation experiments and prints tables shaped like the
// paper's plots.
//
// Usage:
//
//	dsbench -list
//	dsbench -experiment fig9
//	dsbench -experiment all -series 200000 -queries 5
//
// Each experiment prints its measured table followed by a note restating
// the paper's claim for that figure, so measured-vs-paper comparison is
// immediate. See EXPERIMENTS.md for recorded results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dsidx/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		expID   = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
		series  = flag.Int("series", 0, "collection size (default 200000)")
		queries = flag.Int("queries", 0, "queries per measurement (default 5)")
		seed    = flag.Int64("seed", 0, "generator seed (default 2020)")
		cores   = flag.Int("cores", 0, "maximum core count axis (default 24)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		SeriesCount: *series,
		QueryCount:  *queries,
		Seed:        *seed,
		MaxCores:    *cores,
	}

	var ids []string
	if *expID == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*expID, ",")
	}
	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "dsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if _, err := tbl.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  (experiment wall time: %v)\n\n", time.Since(t0).Round(time.Millisecond))
	}
}
