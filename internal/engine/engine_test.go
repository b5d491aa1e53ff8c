package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsEveryTask(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	var n atomic.Int64
	g := e.NewGroup()
	for i := 0; i < 1000; i++ {
		g.Submit(func() { n.Add(1) })
	}
	g.Wait()
	if got := n.Load(); got != 1000 {
		t.Fatalf("ran %d tasks, want 1000", got)
	}
	if st := e.Stats(); st.Tasks != 1000 {
		t.Fatalf("stats counted %d tasks, want 1000", st.Tasks)
	}
}

// A panic in work the caller does beside its group's tasks is contained
// like a task's: Do returns, Wait still waits for the running task, and Err
// reports the panic.
func TestGroupDoContainsTheCallersPanic(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	g := e.NewGroup()
	release := make(chan struct{})
	var done atomic.Bool
	g.Submit(func() {
		<-release
		done.Store(true)
	})
	g.Do(func() { panic("caller") })
	close(release)
	g.Wait()
	if !done.Load() {
		t.Fatal("Wait returned before the submitted task finished")
	}
	var pe *PanicError
	if err := g.Err(); !errors.As(err, &pe) || pe.Value != "caller" {
		t.Fatalf("Err = %v, want the caller's contained panic", err)
	}
}

func TestGroupsInterleaveWithoutCrossWaiting(t *testing.T) {
	// Two groups on one pool: each Wait gates only its own tasks.
	e := New(Options{Workers: 2})
	defer e.Close()
	var a, b atomic.Int64
	ga, gb := e.NewGroup(), e.NewGroup()
	for i := 0; i < 100; i++ {
		ga.Submit(func() { a.Add(1) })
		gb.Submit(func() { b.Add(1) })
	}
	ga.Wait()
	if a.Load() != 100 {
		t.Fatalf("group a ran %d/100 at its own Wait", a.Load())
	}
	gb.Wait()
	if b.Load() != 100 {
		t.Fatalf("group b ran %d/100", b.Load())
	}
}

func TestSingleWorkerMakesProgress(t *testing.T) {
	// Tasks never depend on one another, so even one worker must finish
	// everything that many concurrent groups submit.
	e := New(Options{Workers: 1})
	defer e.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := e.NewGroup()
			for i := 0; i < 50; i++ {
				g.Submit(func() { n.Add(1) })
			}
			g.Wait()
		}()
	}
	wg.Wait()
	if n.Load() != 400 {
		t.Fatalf("ran %d tasks, want 400", n.Load())
	}
}

func TestSubmitAfterCloseRunsInline(t *testing.T) {
	e := New(Options{Workers: 2})
	e.Close()
	e.Close() // idempotent
	var n atomic.Int64
	g := e.NewGroup()
	g.Submit(func() { n.Add(1) })
	g.Wait()
	if n.Load() != 1 {
		t.Fatal("task submitted after Close did not run")
	}
}

func TestCloseConcurrentWithSubmitters(t *testing.T) {
	// Close racing many submitting goroutines: every task must still run
	// (pool or inline) and every Wait must return. The workers are held
	// until the submitters have filled the task queue, so Close also races
	// submitters blocked on a full queue.
	e := New(Options{Workers: 4})
	const submitters, perSubmitter = 16, 100
	if submitters*perSubmitter <= cap(e.tasks) {
		t.Fatalf("%d tasks cannot fill a %d-slot queue", submitters*perSubmitter, cap(e.tasks))
	}
	gate := make(chan struct{})
	var parked sync.WaitGroup
	parked.Add(e.Workers())
	hold := e.NewGroup()
	for w := 0; w < e.Workers(); w++ {
		hold.Submit(func() { parked.Done(); <-gate })
	}
	parked.Wait()
	var n atomic.Int64
	var wg sync.WaitGroup
	for q := 0; q < submitters; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := e.NewGroup()
			for i := 0; i < perSubmitter; i++ {
				g.Submit(func() { n.Add(1) })
			}
			g.Wait()
		}()
	}
	for e.Stats().PendingTasks < cap(e.tasks) {
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	close(gate)
	wg.Wait()
	hold.Wait()
	<-closed
	if n.Load() != submitters*perSubmitter {
		t.Fatalf("ran %d tasks, want %d", n.Load(), submitters*perSubmitter)
	}
}

func TestAdmissionBoundsInFlight(t *testing.T) {
	e := New(Options{Workers: 2, MaxInFlight: 3})
	defer e.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for q := 0; q < 20; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := admit(e, "")
			defer release()
			end := beginQuery(e, "")
			defer end()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			g := e.NewGroup()
			g.Submit(func() {})
			g.Wait()
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if peak.Load() > 3 {
		t.Fatalf("observed %d queries in flight, admission bound is 3", peak.Load())
	}
	st := e.Stats()
	if st.Queries != 20 {
		t.Fatalf("counted %d queries, want 20", st.Queries)
	}
	if st.PeakInFlight > 3 || st.PeakInFlight < 1 {
		t.Fatalf("peak in-flight %d out of range [1,3]", st.PeakInFlight)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after all queries released", st.InFlight)
	}
}

func TestAdmitContextUnblocksOnCancel(t *testing.T) {
	// A canceled waiter must not sit behind traffic holding every slot.
	e := New(Options{Workers: 1, MaxInFlight: 1})
	defer e.Close()
	release := admit(e, "") // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Admit(ctx, "")
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Admit returned a slot that was never free")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Admit did not unblock on cancel")
	}
	release()
	// With the slot free again, Admit succeeds.
	r2, err := e.Admit(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	r2()
}

func TestReleaseIsIdempotent(t *testing.T) {
	e := New(Options{Workers: 1, MaxInFlight: 1})
	defer e.Close()
	release := admit(e, "")
	release()
	release() // second call must not double-free the slot
	r2 := admit(e, "")
	r2()
	if got := e.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight %d, want 0", got)
	}
}

func TestFairShareScalesWithActiveQueries(t *testing.T) {
	e := New(Options{Workers: 8})
	defer e.Close()
	if got := e.FairShare(""); got != 8 {
		t.Fatalf("idle fair share = %d, want full pool 8", got)
	}
	end1 := beginQuery(e, "")
	if got := e.FairShare(""); got != 8 {
		t.Fatalf("solo fair share = %d, want full pool 8", got)
	}
	end2 := beginQuery(e, "")
	if got := e.FairShare(""); got != 4 {
		t.Fatalf("fair share with 2 active = %d, want 4", got)
	}
	ends := make([]func(), 0, 14)
	for i := 0; i < 14; i++ {
		ends = append(ends, beginQuery(e, ""))
	}
	if got := e.FairShare(""); got != 1 {
		t.Fatalf("fair share with 16 active = %d, want floor 1", got)
	}
	end1()
	end2()
	for _, end := range ends {
		end()
	}
	if got := e.ActiveQueries(); got != 0 {
		t.Fatalf("active = %d after all ended", got)
	}
}

func TestDefaults(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if e.Workers() <= 0 {
		t.Fatal("default workers not positive")
	}
	if e.MaxInFlight() != 2*e.Workers() {
		t.Fatalf("default MaxInFlight %d, want %d", e.MaxInFlight(), 2*e.Workers())
	}
}

func TestGoBackgroundJobCompletesBeforeClose(t *testing.T) {
	e := New(Options{Workers: 2})
	started := make(chan struct{})
	var finished atomic.Bool
	ok := e.Go(func() {
		close(started)
		// The job fans out on the pool mid-shutdown, like a merge does; the
		// pool must still execute its tasks.
		g := e.NewGroup()
		var ran atomic.Int64
		for i := 0; i < 8; i++ {
			g.Submit(func() { ran.Add(1) })
		}
		g.Wait()
		if ran.Load() != 8 {
			t.Error("background job's pool tasks did not all run")
		}
		finished.Store(true)
	})
	if !ok {
		t.Fatal("Go refused on an open engine")
	}
	<-started
	e.Close()
	if !finished.Load() {
		t.Fatal("Close returned before the background job finished")
	}
}

func TestGoRefusedAfterClose(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	if e.Go(func() { t.Error("job ran after Close") }) {
		t.Fatal("Go accepted a job after Close")
	}
	// Idempotent close with a refused job pending nowhere.
	e.Close()
}

func TestConcurrentCloseWithBackgroundJob(t *testing.T) {
	e := New(Options{Workers: 2})
	release := make(chan struct{})
	e.Go(func() { <-release })
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
	}
	// Give closers a moment to block on the job, then let it finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
}

// admit is Admit with no deadline, which cannot fail.
func admit(e *Engine, tenant string) (release func()) {
	release, _ = e.Admit(context.Background(), tenant)
	return release
}

// beginQuery counts a logical query and marks it executing, as an
// unsharded index does for every query.
func beginQuery(e *Engine, tenant string) (end func()) {
	e.CountQuery(tenant)
	return e.BeginSubQuery(tenant)
}
