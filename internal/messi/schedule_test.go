package messi

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
)

// setSchedule forces every query onto schedule m until the test ends.
func setSchedule(t *testing.T, m schedMode) {
	t.Helper()
	prev := schedule
	schedule = m
	t.Cleanup(func() { schedule = prev })
}

// scheduleWorkload is counterWorkload's collection and queries on a pool of
// four workers, with a three-block delta beside a merged suffix and
// tombstones in all three: the base (among them the nearest neighbours of
// four queries), the merged suffix and the delta. It returns the index, the
// collection it answers over (base, then appends) and its tombstones.
func scheduleWorkload(t *testing.T, opt Options) (*Index, *series.Collection, []series.Series, map[int]bool) {
	t.Helper()
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(20_000)
	opt.Workers = 4
	ix, err := Build(coll, core.Config{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	all := series.NewCollection(0, coll.SeriesLen())
	for i := 0; i < coll.Len(); i++ {
		all.Append(coll.At(i))
	}
	extra := gen.Generator{Kind: gen.Synthetic, Seed: 72}.Collection(3500)
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		all.Append(extra.At(i))
		if i == 999 {
			ix.Flush()
		}
	}
	var qs []series.Series
	for _, c := range []*series.Collection{g.Queries(8), g.PerturbedQueries(coll, 8, 0.05)} {
		for i := 0; i < c.Len(); i++ {
			qs = append(qs, c.At(i))
		}
	}
	dead := map[int]bool{}
	del := func(lo, hi int) {
		if _, err := ix.DeleteRange(lo, hi); err != nil {
			t.Fatal(err)
		}
		for p := lo; p < hi; p++ {
			dead[p] = true
		}
	}
	for _, q := range qs[8:12] {
		p := int(ucr.Scan(all, q).Pos)
		del(p, p+1)
	}
	del(100, 400)
	del(20_100, 20_300)
	del(21_200, 21_400)
	return ix, all, qs, dead
}

// scheduleFlavors are the four query flavors of counterWorkload, each with
// its serial oracle over the live part of all.
func scheduleFlavors(ix *Index, all *series.Collection, dead map[int]bool) map[string]struct {
	run    func(q series.Series, workers int) ([]core.Result, *QueryStats, error)
	oracle func(q series.Series) []core.Result
} {
	isDead := func(i int) bool { return dead[i] }
	const window = 12_000
	return map[string]struct {
		run    func(q series.Series, workers int) ([]core.Result, *QueryStats, error)
		oracle func(q series.Series) []core.Result
	}{
		"1nn": {
			func(q series.Series, w int) ([]core.Result, *QueryStats, error) {
				return ix.Query(Query{Kind: NN, Series: q, Workers: w, Scope: FullScope})
			},
			func(q series.Series) []core.Result { return []core.Result{ucr.ScanLive(all, q, 0, isDead)} },
		},
		"knn": {
			func(q series.Series, w int) ([]core.Result, *QueryStats, error) {
				return ix.Query(Query{Kind: KNN, Series: q, K: 5, Workers: w, Scope: FullScope})
			},
			func(q series.Series) []core.Result { return ucr.ScanLiveKNN(all, q, 5, 0, isDead) },
		},
		"dtw": {
			func(q series.Series, w int) ([]core.Result, *QueryStats, error) {
				return ix.Query(Query{Kind: DTW, Series: q, Warp: 8, Workers: w, Scope: FullScope})
			},
			func(q series.Series) []core.Result { return []core.Result{ucr.ScanLiveDTW(all, q, 8, 0, isDead)} },
		},
		"window": {
			func(q series.Series, w int) ([]core.Result, *QueryStats, error) {
				return ix.Query(Query{Kind: NN, Series: q, LastN: window, Workers: w, Scope: FullScope})
			},
			func(q series.Series) []core.Result {
				return []core.Result{ucr.ScanLive(all, q, all.Len()-window, isDead)}
			},
		},
	}
}

// settledTasks is the engine's count of finished pool tasks once the last
// helper of the latest query has booked its own: a worker counts a task just
// after the task's group has released its waiter.
func settledTasks(ix *Index) uint64 {
	n := ix.eng.Stats().Tasks
	for {
		time.Sleep(50 * time.Microsecond)
		m := ix.eng.Stats().Tasks
		if m == n {
			return n
		}
		n = m
	}
}

// TestSchedulesAgree runs counterWorkload's queries with every phase forced
// onto the caller and again with every phase handed to helpers, at 1, 2 and
// 4 workers. Both answer bit-identically to the serial scan. Both list the
// same leaves: the list is every leaf whose envelope bound is below the
// threshold phase A ends with, and that threshold comes from the probe and
// the whole delta, whoever scans it. With one worker the schedules are one
// sequence of work, so every counter agrees; with more, which leaves a
// helper pops depends on when the caller tightens the threshold. The inline
// schedule submits no pool task; the helper schedule does.
func TestSchedulesAgree(t *testing.T) {
	ix, all, qs, dead := scheduleWorkload(t, Options{})
	flavors := scheduleFlavors(ix, all, dead)
	setSchedule(t, schedMeasured) // restores the schedule however the test ends
	for _, name := range []string{"1nn", "knn", "dtw", "window"} {
		f := flavors[name]
		for qi, q := range qs {
			want := f.oracle(q)
			for _, workers := range []int{1, 2, 4} {
				var sts [2]QueryStats
				for m, mode := range []schedMode{schedInline, schedHelpers} {
					at := fmt.Sprintf("%s query %d, %d workers, schedule %d", name, qi, workers, mode)
					schedule = mode
					tasks := settledTasks(ix)
					got, st, err := f.run(q, workers)
					tasks = settledTasks(ix) - tasks
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %v, serial scan %v", at, got, want)
					}
					if mode == schedInline && tasks != 0 {
						t.Fatalf("%s: the inline schedule ran %d pool tasks", at, tasks)
					}
					if mode == schedHelpers && workers > 1 && st.LeavesInserted > 0 && tasks == 0 {
						t.Fatalf("%s: the helper schedule listed %d leaves and ran no pool task", at, st.LeavesInserted)
					}
					sts[m] = *st
				}
				in, out := sts[0], sts[1]
				if in.LeavesInserted != out.LeavesInserted {
					t.Fatalf("%s query %d, %d workers: %d leaves listed inline, %d with helpers",
						name, qi, workers, in.LeavesInserted, out.LeavesInserted)
				}
				count := func(st QueryStats) [5]int {
					return [5]int{st.ProbeLeaves, st.LeavesInserted, st.LeavesPopped, st.EntriesChecked, st.RawDistances}
				}
				if workers == 1 && count(in) != count(out) {
					t.Fatalf("%s query %d, one worker: inline %+v, with helpers %+v", name, qi, in, out)
				}
			}
		}
	}
}

// faultyReader serves a collection through the batch-read path a cold tier
// uses, and once armed with n fails its n-th batch read from then on the way
// a dead device does: with a *storage.BlockError panic. Past the fault it is
// slow, so a worker still draining is inside a read when the failed query
// returns, or starts one soon after: active counts the reads under way, late
// the reads started after the query returned.
type faultyReader struct {
	*series.Collection
	countdown atomic.Int64
	returned  atomic.Bool
	active    atomic.Int64
	late      atomic.Int64
}

func (r *faultyReader) ReadBatch(pos []int32, want func(k int) bool, visit func(k int, s series.Series)) {
	r.active.Add(1)
	defer r.active.Add(-1)
	if r.returned.Load() {
		r.late.Add(1)
	}
	switch n := r.countdown.Add(-1); {
	case n == 0:
		panic(&storage.BlockError{Block: int(pos[0]), Class: storage.FaultPermanent, Err: storage.ErrInjected})
	case n < 0:
		time.Sleep(100 * time.Microsecond)
	}
	for k, p := range pos {
		if want(k) {
			visit(k, r.At(int(p)))
		}
	}
}

// TestFaultDuringDrainIsContained arms a device fault once the probe has
// seeded the threshold, so the first, second or third device read of the
// exact phase fails — on the caller's own drain (always, under the measured
// schedule: the caller refines drainBudget leaves before any helper starts),
// or on whichever worker reaches it under the helper schedule. Every
// schedule must return the typed error, start no read after it returned (no
// helper outlived it), and answer the same query bit-identically afterwards.
func TestFaultDuringDrainIsContained(t *testing.T) {
	ix, all, qs, dead := scheduleWorkload(t, Options{DisableLeafRaw: true})
	dev := &faultyReader{Collection: ix.Raw().(*series.Collection)}
	ix.Rebase(dev)
	isDead := func(i int) bool { return dead[i] }
	for _, mode := range []schedMode{schedMeasured, schedInline, schedHelpers} {
		setSchedule(t, mode)
		for _, workers := range []int{1, 2, 4} {
			faults := 0
			for qi, q := range qs {
				at := fmt.Sprintf("schedule %d, %d workers, query %d", mode, workers, qi)
				query := Query{Kind: NN, Series: q, Workers: workers, Scope: FullScope}
				query.Scope.Seeded = func() { dev.countdown.Store(int64(1 + qi%3)) }
				sink := NewSink(query)
				dev.returned.Store(false)
				_, err := ix.Run(query, &sink, nil)
				dev.returned.Store(true)
				if n := dev.active.Load(); n != 0 {
					t.Fatalf("%s: the query returned with %d device reads under way", at, n)
				}
				if dev.countdown.Swap(0) > 0 {
					// The exact phase read the device too few times.
					if err != nil {
						t.Fatalf("%s: no fault injected, yet %v", at, err)
					}
					continue
				}
				faults++
				var be *storage.BlockError
				if !errors.As(err, &be) {
					t.Fatalf("%s: %v, want a *storage.BlockError", at, err)
				}
				time.Sleep(time.Millisecond)
				if n := dev.late.Swap(0); n != 0 {
					t.Fatalf("%s: %d device reads started after the failed query returned", at, n)
				}
				dev.returned.Store(false)
				got, _, err := ix.Search(q, workers)
				if want := ucr.ScanLive(all, q, 0, isDead); err != nil || got != want {
					t.Fatalf("%s: after the fault %+v (%v), serial scan %+v", at, got, err, want)
				}
			}
			if faults == 0 {
				t.Fatalf("schedule %d, %d workers: no query reached the device after its probe", mode, workers)
			}
		}
	}
}
