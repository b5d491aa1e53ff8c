package experiments

import (
	"strings"
	"testing"
)

// tiny returns a configuration small enough to smoke-run every experiment
// in CI time while still exercising every code path.
func tiny() Config {
	return Config{SeriesCount: 2000, QueryCount: 1, Seed: 4, MaxCores: 4}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.SeriesCount != 200_000 || c.QueryCount != 5 || c.Seed == 0 || c.MaxCores != 24 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestCoreAxisClipping(t *testing.T) {
	c := Config{MaxCores: 6}.Normalize()
	got := c.coreAxis(1, 4, 6, 12, 24)
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("coreAxis = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coreAxis = %v, want %v", got, want)
		}
	}
	// Never empty.
	if got := c.coreAxis(100); len(got) != 1 || got[0] != 6 {
		t.Fatalf("coreAxis(100) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Unit: "s", Columns: []string{"a", "b"}}
	tbl.AddRow("row1", 1.5, 0.25)
	tbl.AddRow("longer-label", 123, 0)
	tbl.Note("hello %d", 7)
	var sb strings.Builder
	if _, err := tbl.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"x — demo [s]", "row1", "longer-label", "1.50", "0.2500", "123", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Error("fig9 not registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID found")
	}
	// The paper's nine figures and its two ablations, in paper order.
	want := "fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 ablation-leafcap ablation-hardness"
	if got := strings.Join(IDs(), " "); got != want {
		t.Errorf("IDs = %s, want %s", got, want)
	}
}

// TestAllExperimentsSmoke runs every registered experiment at tiny scale
// and validates that each produces a well-formed, plausible table.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(tiny())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q != %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Fatalf("empty table: %+v", tbl)
			}
			for _, r := range tbl.Rows {
				if len(r.Values) != len(tbl.Columns) {
					t.Errorf("row %q has %d values for %d columns", r.Label, len(r.Values), len(tbl.Columns))
				}
				for i, v := range r.Values {
					if v < 0 {
						t.Errorf("row %q value %d negative: %v", r.Label, i, v)
					}
				}
			}
			var sb strings.Builder
			if _, err := tbl.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Error("rendered table missing ID")
			}
		})
	}
}
