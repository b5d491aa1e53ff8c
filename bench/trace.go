package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's exported functions, recorded from
// the benchmark's side of the boundary. Spans of one request share OpID;
// Parent is 0 for the request's root. A Replayed span was not observed
// inside the request: the layer was re-run in isolation afterwards with the
// request's own inputs and counts, and laid inside its parent so that the
// parent's self time is what the replays do not explain.
type span struct {
	Name     string             `json:"name"`
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent"`
	OpID     int64              `json:"op_id"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
	Replayed bool               `json:"replayed,omitempty"`
}

// tracer keeps spans in memory until the run ends. Clients record after
// their timed region, so the lock is never inside a measured latency.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns it.
func (t *tracer) add(name string, parent, opID int64, start, end time.Time, counts map[string]float64) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{
		Name: name, ID: int64(len(t.spans) + 1), Parent: parent, OpID: opID,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)), Counts: counts,
	}
	t.spans = append(t.spans, s)
	return s
}

// addReplayed lays a replayed child of width d inside its parent right
// after the previous child (cursor), clipped to the parent's end, and
// returns the new cursor.
func (t *tracer) addReplayed(name string, parent span, cursor int64, d time.Duration, counts map[string]float64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := min(max(cursor, parent.StartNs), parent.EndNs)
	end := min(start+int64(d), parent.EndNs)
	t.spans = append(t.spans, span{
		Name: name, ID: int64(len(t.spans) + 1), Parent: parent.ID, OpID: parent.OpID,
		StartNs: start, EndNs: end, Counts: counts, Replayed: true,
	})
	return end
}

// durationsUs returns the sorted lengths, in microseconds, of every span
// called name.
func (t *tracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it its children
// cover (children of one parent never overlap here: they are sequential
// calls or sequentially laid replays).
func selfTimes(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}
