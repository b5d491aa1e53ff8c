package dsidx_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dsidx"
	"dsidx/internal/core"
	"dsidx/internal/messi"
	"dsidx/internal/shard"
)

// poolGoroutines counts the goroutines engine.New started that are still
// running, its workers, whether or not they have reached their loop yet.
func poolGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by dsidx/internal/engine.New ")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseLeavesNoPoolGoroutine: whoever owns a worker pool stops it on
// Close. A MESSI, a hot 4-shard Sharded, an all-cold one and a standalone
// messi.Index each start a pool of three workers, serve a query and take an
// append; after Close (twice — the second is harmless) no worker of that
// pool is left, and a query still answers on the caller.
func TestCloseLeavesNoPoolGoroutine(t *testing.T) {
	const workers = 3
	coll := dsidx.Generate(dsidx.Synthetic, 2000, 64, 71)
	extra := dsidx.Generate(dsidx.Synthetic, 1, 64, 72).At(0)
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 64, 73).At(0)
	type index interface {
		Append(dsidx.Series) (int, error)
		Close()
	}
	mo := messi.Options{Workers: workers}
	cases := []struct {
		name   string
		open   func() (index, error)
		search func(x index) error
	}{
		{"MESSI", func() (index, error) { return dsidx.NewMESSI(coll, dsidx.WithWorkers(workers)) },
			func(x index) error { _, err := x.(*dsidx.MESSI).Search(q); return err }},
		{"hot 4-shard Sharded", func() (index, error) {
			return dsidx.NewSharded(coll, dsidx.WithShards(4), dsidx.WithWorkers(workers))
		}, func(x index) error { _, err := x.(*dsidx.Sharded).Search(q); return err }},
		{"all-cold Sharded", func() (index, error) {
			return shard.Build(coll, core.Config{}, shard.Options{Shards: 4, Options: mo, ColdStorage: &shard.ColdStorage{}})
		}, func(x index) error { _, _, err := x.(*shard.Sharded).Search(q, 0); return err }},
		{"standalone messi.Index", func() (index, error) { return messi.Build(coll, core.Config{}, mo) },
			func(x index) error { _, _, err := x.(*messi.Index).Search(q, 0); return err }},
	}
	for _, c := range cases {
		before := poolGoroutines()
		x, err := c.open()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := poolGoroutines() - before; n < workers {
			t.Fatalf("%s: %d pool goroutines started, want %d", c.name, n, workers)
		}
		if err := c.search(x); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := x.Append(extra); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		x.Close()
		x.Close()
		left := poolGoroutines()
		for deadline := time.Now().Add(5 * time.Second); left > before && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			left = poolGoroutines()
		}
		if left > before {
			t.Errorf("%s: %d pool goroutines left after Close", c.name, left-before)
		}
		if err := c.search(x); err != nil {
			t.Errorf("%s: a query after Close: %v", c.name, err)
		}
		runtime.KeepAlive(x)
	}
}
