package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dsidx/internal/series"
)

// faultReader builds a DiskReader over a FaultStore so tests can script
// device failures under the block cache.
func faultReader(t *testing.T, n, length int, opt DiskReaderOptions) (*DiskReader, *FaultStore) {
	t.Helper()
	coll := makeCollection(n, length)
	fs := NewFaultStore(NewMemStore(), FaultPlan{})
	f, err := WriteCollection(fs, coll)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Retry.Sleep == nil {
		opt.Retry.Sleep = func(time.Duration) {} // instant backoff in tests
	}
	r, err := NewDiskReader(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r, fs
}

func TestFaultStoreDeterministic(t *testing.T) {
	// The same seed over the same serial read sequence injects the same
	// faults at the same positions.
	mem := NewMemStore()
	if _, err := mem.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	run := func() []bool {
		fs := NewFaultStore(mem, FaultPlan{Seed: 7, TransientProb: 0.3})
		outcomes := make([]bool, 64)
		buf := make([]byte, 16)
		for i := range outcomes {
			_, err := fs.ReadAt(buf, int64(i*16))
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(), run()
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: run A fault=%v, run B fault=%v (same seed)", i, a[i], b[i])
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("TransientProb 0.3 over 64 reads injected nothing")
	}
}

func TestFaultStorePermanentRange(t *testing.T) {
	mem := NewMemStore()
	if _, err := mem.WriteAt(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(mem, FaultPlan{PermanentRanges: []Range{{Start: 100, End: 200}}})
	buf := make([]byte, 50)
	if _, err := fs.ReadAt(buf, 0); err != nil {
		t.Fatalf("read outside dead range failed: %v", err)
	}
	_, err := fs.ReadAt(buf, 120)
	var re *ReadError
	if !errors.As(err, &re) || re.Class != FaultPermanent {
		t.Fatalf("read in dead range: err = %v, want permanent ReadError", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected fault does not unwrap to ErrInjected: %v", err)
	}
	if IsTransient(err) {
		t.Fatal("permanent fault classified transient")
	}
	// Overlap at the edge counts; adjacency does not.
	if _, err := fs.ReadAt(buf, 200); err != nil {
		t.Fatalf("read adjacent to dead range failed: %v", err)
	}
	if st := fs.Stats(); st.PermanentFaults != 1 {
		t.Fatalf("PermanentFaults = %d, want 1", st.PermanentFaults)
	}
}

func TestFaultStoreBurstAndHeal(t *testing.T) {
	mem := NewMemStore()
	if _, err := mem.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	// TransientProb 1 with burst 3: every burst is 3 consecutive failures.
	fs := NewFaultStore(mem, FaultPlan{Seed: 1, TransientProb: 1, TransientBurst: 3})
	buf := make([]byte, 8)
	for i := 0; i < 6; i++ {
		if _, err := fs.ReadAt(buf, 0); !IsTransient(err) {
			t.Fatalf("read %d: err = %v, want transient fault", i, err)
		}
	}
	fs.Heal()
	if _, err := fs.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after Heal failed: %v", err)
	}
	st := fs.Stats()
	if st.TransientFaults != 6 || st.Reads != 7 {
		t.Fatalf("stats = %+v, want 6 transient faults over 7 reads", st)
	}
}

func TestFaultStoreLatencySpike(t *testing.T) {
	mem := NewMemStore()
	if _, err := mem.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(mem, FaultPlan{Seed: 2, LatencyProb: 1, Latency: time.Millisecond})
	t0 := time.Now()
	if _, err := fs.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < time.Millisecond {
		t.Fatalf("latency spike slept %v, want >= 1ms", elapsed)
	}
	if st := fs.Stats(); st.LatencySpikes != 1 {
		t.Fatalf("LatencySpikes = %d, want 1", st.LatencySpikes)
	}
}

func TestDiskReaderRetriesTransient(t *testing.T) {
	// A 2-read burst under a 3-retry policy: the access succeeds after
	// retries, values intact, retry counter bumped, no fault recorded.
	r, fs := faultReader(t, 64, 8, DiskReaderOptions{BlockSeries: 16})
	// Script exactly two consecutive transient failures, then a clean device.
	fs.mu.Lock()
	fs.burst = 2
	fs.mu.Unlock()
	got := r.At(0)
	if len(got) != 8 {
		t.Fatalf("series length %d, want 8", len(got))
	}
	st := r.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.TransientFaults != 0 || st.PermanentFaults != 0 {
		t.Fatalf("faults = %d/%d after successful retry, want 0/0", st.TransientFaults, st.PermanentFaults)
	}
}

func TestDiskReaderRetryExhaustionPanicsTyped(t *testing.T) {
	var slept []time.Duration
	r, fs := faultReader(t, 64, 8, DiskReaderOptions{BlockSeries: 16,
		Retry: RetryPolicy{Sleep: func(d time.Duration) { slept = append(slept, d) }}})
	fs.SetPlan(FaultPlan{Seed: 4, TransientProb: 1, TransientBurst: 100})
	defer func() {
		rec := recover()
		be, ok := rec.(*BlockError)
		if !ok {
			t.Fatalf("panic payload %T (%v), want *BlockError", rec, rec)
		}
		if be.Class != FaultTransient || be.Block != 0 {
			t.Fatalf("BlockError = %+v, want transient block 0", be)
		}
		st := r.Stats()
		if st.Retries != MaxRetries || st.TransientFaults != 1 {
			t.Fatalf("retries/faults = %d/%d, want %d retries then 1 transient fault",
				st.Retries, st.TransientFaults, MaxRetries)
		}
		// The backoff doubles from RetryBackoff: 1, 2, 4 ms.
		if want := []time.Duration{RetryBackoff, 2 * RetryBackoff, 4 * RetryBackoff}; fmt.Sprint(slept) != fmt.Sprint(want) {
			t.Fatalf("backoff schedule %v, want %v", slept, want)
		}
		// The failed block was dropped: healing the store makes the same
		// access succeed — nothing is poisoned.
		fs.Heal()
		if got := r.At(0); len(got) != 8 {
			t.Fatalf("post-heal read length %d, want 8", len(got))
		}
	}()
	r.At(0)
}

func TestDiskReaderPermanentFailsFast(t *testing.T) {
	r, fs := faultReader(t, 64, 8, DiskReaderOptions{BlockSeries: 16})
	fs.SetPlan(FaultPlan{PermanentRanges: []Range{{Start: 0, End: 1 << 30}}})
	defer func() {
		rec := recover()
		be, ok := rec.(*BlockError)
		if !ok {
			t.Fatalf("panic payload %T (%v), want *BlockError", rec, rec)
		}
		if be.Class != FaultPermanent {
			t.Fatalf("class = %v, want permanent", be.Class)
		}
		var re *ReadError
		if !errors.As(be, &re) || re.Class != FaultPermanent {
			t.Fatalf("BlockError does not unwrap to the injected ReadError: %v", be)
		}
		st := r.Stats()
		if st.Retries != 0 {
			t.Fatalf("permanent fault was retried %d times, want 0", st.Retries)
		}
		if st.PermanentFaults != 1 {
			t.Fatalf("PermanentFaults = %d, want 1", st.PermanentFaults)
		}
	}()
	r.At(0)
}

// TestDiskReaderReadBatchFault: a dead device fails a batch read the way it
// fails At — one typed *BlockError panic naming the first block that failed,
// every block of the coalesced run counted as a failed load of its own — and
// leaves nothing poisoned behind.
func TestDiskReaderReadBatchFault(t *testing.T) {
	r, fs := faultReader(t, 64, 8, DiskReaderOptions{BlockSeries: 8})
	fs.SetPlan(FaultPlan{PermanentRanges: []Range{{Start: 0, End: 1 << 30}}})
	func() {
		defer func() {
			be, ok := recover().(*BlockError)
			if !ok || be.Class != FaultPermanent || be.Block != 0 {
				t.Fatalf("panic payload %+v, want a permanent *BlockError for block 0", be)
			}
		}()
		r.ReadBatch([]int32{0, 8, 16}, func(int) bool { return true },
			func(k int, _ series.Series) { t.Errorf("k=%d visited off a dead device", k) })
	}()
	if st := r.Stats(); st.PermanentFaults != 3 || st.ResidentBytes != 0 {
		t.Fatalf("after a failed 3-block run: %d permanent faults (want 3), %d bytes resident (want 0)",
			st.PermanentFaults, st.ResidentBytes)
	}
	fs.Heal()
	seen := 0
	r.ReadBatch([]int32{0, 8, 16}, func(int) bool { return true }, func(int, series.Series) { seen++ })
	if seen != 3 {
		t.Fatalf("post-heal batch visited %d of 3", seen)
	}
}

// TestDiskReaderReadBatchFaultNamesItsBlock: a dead region under the last
// block of a coalesced run fails that block alone, under its own index; the
// healthy blocks read with it stay cached.
func TestDiskReaderReadBatchFaultNamesItsBlock(t *testing.T) {
	const length, blockSeries = 8, 8
	r, fs := faultReader(t, 64, length, DiskReaderOptions{BlockSeries: blockSeries})
	blockBytes := int64(blockSeries * length * 4)
	start := r.file.offsetOf(2 * blockSeries)
	fs.SetPlan(FaultPlan{PermanentRanges: []Range{{Start: start, End: start + blockBytes}}})
	func() {
		defer func() {
			be, ok := recover().(*BlockError)
			if !ok || be.Class != FaultPermanent || be.Block != 2 {
				t.Fatalf("panic payload %+v, want a permanent *BlockError for block 2", be)
			}
		}()
		r.ReadBatch([]int32{0, 8, 16}, func(int) bool { return true }, func(int, series.Series) {})
	}()
	if st := r.Stats(); st.PermanentFaults != 1 || st.ResidentBytes != 2*blockBytes {
		t.Fatalf("%d permanent faults (want 1), %d bytes resident (want blocks 0 and 1: %d)",
			st.PermanentFaults, st.ResidentBytes, 2*blockBytes)
	}
	misses := r.Stats().Misses
	r.At(0)
	r.At(8)
	if st := r.Stats(); st.Misses != misses {
		t.Fatalf("blocks 0 and 1 were re-read after their neighbour failed: misses %d → %d", misses, st.Misses)
	}
}

func TestDiskReaderSingleFlightFaultSharedByWaiters(t *testing.T) {
	// Two goroutines race the same dead block: the single-flight load fails
	// once and both observe a typed *BlockError panic; afterwards the block
	// is reloadable.
	r, fs := faultReader(t, 64, 8, DiskReaderOptions{BlockSeries: 64})
	fs.SetPlan(FaultPlan{PermanentRanges: []Range{{Start: 0, End: 1 << 30}}})
	panics := make(chan any, 2)
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { panics <- recover() }()
			r.At(0)
			panics <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		rec := <-panics
		if _, ok := rec.(*BlockError); !ok {
			t.Fatalf("goroutine %d: panic payload %T, want *BlockError", i, rec)
		}
	}
	fs.Heal()
	if got := r.At(0); len(got) != 8 {
		t.Fatalf("post-heal read length %d, want 8", len(got))
	}
}

// FuzzFaultPlan drives random fault plans through a DiskReader: whatever
// the plan, an access either returns the exact stored values or panics with
// a typed *BlockError — never a corrupt result, never an untyped panic.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), 0.5, 3, false, 0)
	f.Add(int64(42), 0.0, 0, true, 5)
	f.Add(int64(7), 1.0, 8, false, 63)
	f.Fuzz(func(t *testing.T, seed int64, prob float64, burst int, dead bool, pos int) {
		if prob < 0 || prob > 1 || burst < 0 || burst > 1000 {
			t.Skip()
		}
		const n, length = 64, 8
		coll := makeCollection(n, length)
		fs := NewFaultStore(NewMemStore(), FaultPlan{})
		sf, err := WriteCollection(fs, coll)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewDiskReader(sf, DiskReaderOptions{
			BlockSeries: 8,
			CacheBytes:  1,
			Retry:       RetryPolicy{Sleep: func(time.Duration) {}},
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := FaultPlan{Seed: seed, TransientProb: prob, TransientBurst: burst}
		if dead {
			plan.PermanentRanges = []Range{{Start: 0, End: 256}}
		}
		fs.SetPlan(plan)
		i := ((pos % n) + n) % n
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(*BlockError); !ok {
						t.Fatalf("untyped panic %T: %v", rec, rec)
					}
				}
			}()
			got := r.At(i)
			want := coll.At(i)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("series %d differs at %d under plan %+v", i, k, plan)
				}
			}
		}()
		// After healing, every access succeeds with exact values.
		fs.Heal()
		got, want := r.At(i), coll.At(i)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("post-heal series %d differs at %d", i, k)
			}
		}
	})
}

// TestFaultStorePassthroughSurface pins the non-read surface: plans are
// readable back, Active distinguishes the zero plan, and writes, Size and
// Truncate pass through to the wrapped store untouched by any plan.
func TestFaultStorePassthroughSurface(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultPlan{})
	if fs.Plan().Active() {
		t.Fatal("zero plan reports Active")
	}
	plan := FaultPlan{Seed: 9, TransientProb: 0.5, PermanentRanges: []Range{{Start: 0, End: 4}}}
	fs.SetPlan(plan)
	if got := fs.Plan(); !got.Active() || got.TransientProb != plan.TransientProb || len(got.PermanentRanges) != 1 {
		t.Fatalf("Plan() = %+v, want the set plan back", got)
	}
	if _, err := fs.WriteAt([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0); err != nil {
		t.Fatal(err)
	}
	if got := fs.Size(); got != 8 {
		t.Fatalf("Size() = %d, want 8 (writes bypass the plan)", got)
	}
	if err := fs.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if got := fs.Size(); got != 4 {
		t.Fatalf("Size() = %d after Truncate(4)", got)
	}
	// The dead range still fires on reads, and its typed error renders the
	// class, range and cause.
	_, err := fs.ReadAt(make([]byte, 2), 1)
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("read in a dead range returned %v, want *ReadError", err)
	}
	msg := re.Error()
	for _, sub := range []string{"permanent", "[1,3)", "injected fault"} {
		if !strings.Contains(msg, sub) {
			t.Fatalf("ReadError %q lacks %q", msg, sub)
		}
	}
}

// TestBlockErrorRendering pins the typed panic payload's message and
// unwrap chain: logs must name the block and class, and errors.Is must
// reach the injected cause through it.
func TestBlockErrorRendering(t *testing.T) {
	be := &BlockError{Block: 3, Class: FaultPermanent,
		Err: &ReadError{Off: 64, Len: 32, Class: FaultPermanent, Err: ErrInjected}}
	msg := be.Error()
	for _, sub := range []string{"block 3", "permanent"} {
		if !strings.Contains(msg, sub) {
			t.Fatalf("BlockError %q lacks %q", msg, sub)
		}
	}
	if !errors.Is(be, ErrInjected) {
		t.Fatal("BlockError does not unwrap to the injected cause")
	}
	if IsTransient(be) {
		t.Fatal("permanent BlockError classified transient")
	}
}
