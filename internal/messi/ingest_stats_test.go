package messi

// Torn-snapshot regression suite for IngestStats (run with -race): the
// stats snapshot must be internally consistent while appenders and
// background merges run. The pre-fix implementation read a separate
// lifetime-appends counter before the snapshot and published count, so a
// concurrent append between the loads made Appended < Merged + Pending —
// exactly the arithmetic this test hammers.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dsidx/internal/gen"
	"dsidx/internal/series"
)

func TestIngestStatsConsistentUnderConcurrentAppends(t *testing.T) {
	base := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 61}.Collection(200)
	// Low threshold so merges (and snapshot swaps) happen mid-test.
	ix := newIngestIndex(t, base, 128)
	pool := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 62}.Collection(512)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%17 == 0 {
				batch := make([]series.Series, 8)
				for j := range batch {
					batch[j] = pool.At((i + j) % pool.Len())
				}
				if _, err := ix.AppendBatch(batch); err != nil {
					panic(err)
				}
			} else if _, err := ix.Append(pool.At(i % pool.Len())); err != nil {
				panic(err)
			}
		}
	}()

	// Sample for a fixed duration, yielding regularly: on one CPU an
	// unyielding load loop would starve the writer and sample a frozen
	// index. The deadline (not a sample count) bounds the run; the final
	// Merges check proves the writer actually interleaved.
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var prev IngestStats
	for k := 0; ; k++ {
		if k%64 == 0 {
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
		}
		st := ix.IngestStats()
		// The core consistency invariant: on a fresh index every accepted
		// append is either merged or pending — never both, never neither.
		if st.Appended != uint64(st.Merged+st.Pending) {
			t.Fatalf("sample %d: torn snapshot: Appended=%d != Merged=%d + Pending=%d",
				k, st.Appended, st.Merged, st.Pending)
		}
		if st.Pending < 0 {
			t.Fatalf("sample %d: negative Pending %d", k, st.Pending)
		}
		// Monotonic counters must never regress between snapshots.
		if st.Appended < prev.Appended || st.Merged < prev.Merged ||
			st.Merges < prev.Merges || st.SnapshotSwaps < prev.SnapshotSwaps {
			t.Fatalf("sample %d: counter regressed: %+v after %+v", k, st, prev)
		}
		prev = st
	}
	close(stop)
	wg.Wait()

	// Quiesced: the books must balance exactly.
	ix.Flush()
	st := ix.IngestStats()
	if st.Pending != 0 || st.Appended != uint64(st.Merged) {
		t.Fatalf("after flush: %+v", st)
	}
	if st.Appended == 0 || st.Merges == 0 || st.SnapshotSwaps == 0 {
		t.Fatalf("writer made no observable progress during the stress run: %+v", st)
	}
}

// TestIngestStatsRestoredBaseline pins the loaded-index semantics:
// Appended counts post-load appends only, while Merged+Pending cover the
// restored series too.
func TestIngestStatsRestoredBaseline(t *testing.T) {
	base := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 63}.Collection(150)
	ix := newIngestIndex(t, base, 1<<20)
	extra := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 64}.Collection(40)
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := ix.IngestStats(); st.Appended != 40 {
		t.Fatalf("fresh index: Appended=%d, want 40", st.Appended)
	}

	loaded, err := Decode(ix.Encode(), base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if st := loaded.IngestStats(); st.Appended != 0 || st.Merged+st.Pending != 40 {
		t.Fatalf("loaded index: %+v, want Appended=0 and Merged+Pending=40", st)
	}
	if _, err := loaded.Append(extra.At(0)); err != nil {
		t.Fatal(err)
	}
	if st := loaded.IngestStats(); st.Appended != 1 || st.Merged+st.Pending != 41 {
		t.Fatalf("loaded index after append: %+v", st)
	}
}
