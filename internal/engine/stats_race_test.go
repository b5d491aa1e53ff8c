package engine

// Stats-snapshot consistency under concurrency (run with -race): every
// monotonic counter must be non-decreasing across successive snapshots,
// PeakInFlight must never read below InFlight, and InFlight must respect
// the admission bound. The writers deliberately keep the semaphore and the
// run queue saturated so the blocking-admission and task counters see real
// traffic.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStatsConsistentUnderLoad(t *testing.T) {
	e := New(Options{Workers: 2, MaxInFlight: 2})
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Query traffic: more admitters than slots, so some admissions block.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				release := admit(e, "")
				end := beginQuery(e, "")
				end()
				release()
			}
		}()
	}
	// Task traffic; the busy sink keeps workers occupied so the queue
	// actually fills and submissions block (checked after the run).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink atomic.Uint64
		busy := func() {
			for i := 0; i < 100; i++ {
				sink.Add(1)
			}
		}
		for !stopped() {
			e.submit(busy)
		}
	}()

	dur := 1 * time.Second
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var prev Stats
	peakPending := 0
	for k := 0; ; k++ {
		if k%64 == 0 {
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched() // one CPU: let the writers interleave
		}
		st := e.Stats()
		if st.InFlight < 0 || st.InFlight > e.MaxInFlight() {
			t.Fatalf("sample %d: InFlight %d outside [0,%d]", k, st.InFlight, e.MaxInFlight())
		}
		if st.PeakInFlight < st.InFlight {
			t.Fatalf("sample %d: PeakInFlight %d < InFlight %d", k, st.PeakInFlight, st.InFlight)
		}
		if st.Queries < prev.Queries || st.Tasks < prev.Tasks ||
			st.AdmitWaits < prev.AdmitWaits || st.AdmitWaitNanos < prev.AdmitWaitNanos ||
			st.SubmitFallbacks < prev.SubmitFallbacks || st.PeakInFlight < prev.PeakInFlight {
			t.Fatalf("sample %d: counter regressed: %+v after %+v", k, st, prev)
		}
		prev = st
		peakPending = max(peakPending, st.PendingTasks)
	}
	close(stop)
	wg.Wait()

	st := e.Stats()
	if st.Queries == 0 {
		t.Fatal("no queries recorded during the stress run")
	}
	if peakPending != cap(e.tasks) {
		t.Fatalf("task queue peaked at %d of %d slots: submissions never blocked", peakPending, cap(e.tasks))
	}
	if st.AdmitWaits > 0 && st.AdmitWaitNanos == 0 {
		t.Fatalf("blocked admissions recorded with zero wait time: %+v", st)
	}
}
