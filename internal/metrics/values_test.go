package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestInstrumentValuesLabelsAndEdgeFloats(t *testing.T) {
	c := NewCounterFunc(Opts{Name: "v_events_total"}, func() float64 { return 3 })

	h := NewHistogram(Opts{Name: "v_seconds"}, []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3) // lands in the implicit +Inf bucket
	if h.Count() != 2 {
		t.Fatalf("histogram count %d", h.Count())
	}

	up := NewGaugeFunc(Opts{Name: "v_up"}, func() float64 { return math.Inf(1) })
	down := NewGaugeFunc(Opts{Name: "v_down"}, func() float64 { return math.Inf(-1) })

	r := NewRegistry()
	r.MustRegister(WithLabels(c, Label{Key: "shard", Value: "0"}), h, up, down)
	text := r.Text()
	for _, want := range []string{
		`v_events_total{shard="0"} 3`,
		`v_seconds_bucket{le="1"} 1`,
		`v_seconds_bucket{le="+Inf"} 2`,
		"v_seconds_count 2",
		"v_up +Inf",
		"v_down -Inf",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	if _, err := Parse(text); err != nil {
		t.Fatalf("exposition failed validation: %v", err)
	}
}
