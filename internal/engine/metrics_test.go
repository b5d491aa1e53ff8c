package engine

import (
	"strings"
	"testing"

	"dsidx/internal/metrics"
)

func TestRegisterMetricsSamplesStats(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)

	release := admit(e, "")
	end := beginQuery(e, "")
	g := e.NewGroup()
	g.Submit(func() {})
	g.Wait()
	end()
	release()

	text := r.Text()
	for _, want := range []string{
		"dsidx_engine_workers 2",
		"dsidx_engine_queries_total 1",
		"dsidx_engine_queries_inflight 0",
		"dsidx_engine_queries_inflight_peak 1",
		"dsidx_engine_tasks_total 1",
		"dsidx_engine_admit_waits_total",
		"dsidx_engine_admit_wait_seconds_total",
		"dsidx_engine_submit_fallbacks_total",
		"dsidx_engine_tasks_pending",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}
