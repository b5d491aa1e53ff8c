package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/storage"
)

// BenchmarkColdBlockSweep is the sweep storage.DefaultBlockSeries was chosen
// from (EXPERIMENTS.md has the table): the bench's cold-ssd shape — 20,000
// series of 256 points, 4 cold shards on storage.SSD at latency scale 0.25,
// 2 closed-loop clients of perturbed 1-NN — at every BlockSeries × cache
// share. One iteration is one pass of both clients over their query
// streams; the reported metrics are per query (reads, bytes, modeled device
// time, median latency), per build (setup-s, median of 5) and per series (resident-B,
// heap after the pass and two collections, the caller's collection dropped).
//
//	go test ./internal/shard -run '^$' -bench ColdBlockSweep -benchtime 1x
func BenchmarkColdBlockSweep(b *testing.B) {
	const n, seriesLen, perClient, clients = 20_000, 256, 1000, 2
	const latencyScale = 0.25
	g := gen.Generator{Kind: gen.Synthetic, Length: seriesLen, Seed: 2020}
	qg := gen.Generator{Kind: gen.Synthetic, Length: seriesLen, Seed: 2021}
	payload := int64(n) * seriesLen * 4
	for _, blockSeries := range []int{4, 8, 16, 32, 64} {
		for _, share := range []int64{16, 8, 4} {
			b.Run(fmt.Sprintf("block=%d/cache=1_%d", blockSeries, share), func(b *testing.B) {
				coll := g.Collection(n)
				queries := qg.PerturbedQueries(coll, perClient*clients, 0.05)
				opt := Options{
					Options: messi.Options{Workers: min(runtime.GOMAXPROCS(0), 4)},
					Shards:  4,
					ColdStorage: &ColdStorage{
						Profile:     storage.SSD,
						CacheBytes:  payload / share,
						BlockSeries: blockSeries,
					},
				}
				var setups []time.Duration
				var s *Sharded
				for range 5 {
					if s != nil {
						s.Close()
					}
					t0 := time.Now()
					var err error
					if s, err = Build(coll, core.Config{}, opt); err != nil {
						b.Fatal(err)
					}
					setups = append(setups, time.Since(t0))
				}
				defer s.Close()
				s.ColdDisk().SetScale(latencyScale)
				coll = nil

				lat := make([]time.Duration, 0, perClient*clients*b.N)
				var mu sync.Mutex
				c0 := s.ColdStats()
				b.ResetTimer()
				for range b.N {
					var wg sync.WaitGroup
					for c := range clients {
						wg.Add(1)
						go func() {
							defer wg.Done()
							mine := make([]time.Duration, 0, perClient)
							for i := range perClient {
								t0 := time.Now()
								if _, _, err := s.Search(queries.At(c*perClient+i), 0); err != nil {
									b.Error(err)
									return
								}
								mine = append(mine, time.Since(t0))
							}
							mu.Lock()
							lat = append(lat, mine...)
							mu.Unlock()
						}()
					}
					wg.Wait()
				}
				b.StopTimer()
				c1 := s.ColdStats()
				// Measured with the cache as full as the queries left it, so
				// the per-block bookkeeping of small blocks shows. The
				// MemStore standing in for the device is heap too; it is the
				// payload, not the index.
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				resident := float64(int64(ms.HeapAlloc)-payload) / n
				nq := float64(len(lat))
				slices.Sort(lat)
				slices.Sort(setups)
				b.ReportMetric(float64(c1.Device.ReadOps-c0.Device.ReadOps)/nq, "reads/query")
				b.ReportMetric(float64(c1.Device.BytesRead-c0.Device.BytesRead)/nq, "B/query")
				b.ReportMetric((c1.Device.ReadBusy-c0.Device.ReadBusy).Seconds()*1e3*latencyScale/nq, "device-ms/query")
				b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "p50-ms")
				b.ReportMetric(setups[len(setups)/2].Seconds(), "setup-s")
				b.ReportMetric(resident, "resident-B/series")
			})
		}
	}
}
