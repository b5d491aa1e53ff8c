package metrics

import (
	"strings"
	"testing"
)

// FuzzParse hammers the exposition validator with arbitrary text: it
// must never panic, and on any input it accepts, every reported family
// must carry a plausible type and non-negative sample count. The seeds
// cover the shapes the encoder emits plus known-tricky fragments
// (escaped quotes in labels, +Inf buckets, comments).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"# plain comment\n",
		"# HELP m help text\n# TYPE m counter\nm 1\n",
		"# TYPE m gauge\nm{a=\"x\"} -2.5\n",
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.3\nh_count 2\n",
		"# TYPE m counter\nm{a=\"es\\\"caped\\\\\"} 7\n",
		"# TYPE m counter\nm 1e+06\n",
		"m 1\n",              // sample without TYPE: rejected
		"# TYPE m counter\n", // family with no samples: accepted
	}
	// A real rendered registry as a seed too.
	r := NewRegistry()
	h := NewHistogram(Opts{Name: "seed_seconds", Help: "Seed."}, LatencyBuckets)
	h.Observe(0.002)
	c := NewCounterFunc(Opts{Name: "seed_total", Labels: []Label{{Key: "shard", Value: "0"}}}, func() float64 { return 1 })
	r.MustRegister(h, c)
	seeds = append(seeds, r.Text())

	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := Parse(text)
		if err != nil {
			return
		}
		for name, fam := range fams {
			if fam.Name != name || fam.Samples < 0 {
				t.Fatalf("inconsistent family %q: %+v", name, fam)
			}
			switch fam.Type {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("family %q accepted with bad type %q", name, fam.Type)
			}
		}
		// Anything accepted that came out of our own encoder must
		// re-render losslessly through a re-parse of itself.
		if strings.Contains(text, "seed_total") {
			if _, err := Parse(text); err != nil {
				t.Fatalf("re-parse disagreed: %v", err)
			}
		}
	})
}
