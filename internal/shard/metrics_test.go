package shard

import (
	"strings"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/messi"
)

func TestRegistryRendersPerShardAndColdFamilies(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 51}
	coll := g.Collection(400)
	s := buildSharded(t, coll, 2, RoundRobin{})
	extra := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 52}.Collection(10)
	for i := 0; i < extra.Len(); i++ {
		if _, err := s.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	r := s.Registry()
	if s.Registry() != r {
		t.Fatal("Registry not memoized")
	}
	text := r.Text()
	for _, want := range []string{
		"dsidx_shards 2",
		`dsidx_shard_base_series{shard="0"} 200`,
		`dsidx_shard_base_series{shard="1"} 200`,
		`dsidx_shard_appends_total{shard="0"} 5`,
		`dsidx_shard_appends_total{shard="1"} 5`,
		`dsidx_ingest_appended_total{shard="0"} 5`,
		`dsidx_ingest_merge_threshold{shard="1"} 1.073741824e+09`,
		"dsidx_cold_shards 0",
		"dsidx_cold_cache_hits_total 0",
		"dsidx_cold_device_reads_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if s.ShardBaseLen(0)+s.ShardBaseLen(1) != coll.Len() {
		t.Fatalf("base split %d+%d != %d", s.ShardBaseLen(0), s.ShardBaseLen(1), coll.Len())
	}
	if s.ShardAppends(0)+s.ShardAppends(1) != extra.Len() {
		t.Fatalf("append routing %d+%d != %d", s.ShardAppends(0), s.ShardAppends(1), extra.Len())
	}
}

// A one-shard index renders one index's families: the ingest and query
// counters read as they would on a plain index, with no shard label.
func TestRegistryRendersIngestFamilies(t *testing.T) {
	base := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 91}.Collection(300)
	s, err := Build(base, testConfig(), Options{Options: messi.Options{MergeThreshold: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.Registry()
	if s.Registry() != r {
		t.Fatal("Registry not memoized")
	}
	extra := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 93}.Collection(8)
	for i := 0; i < extra.Len(); i++ {
		if _, err := s.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Search(extra.At(0), 0); err != nil {
		t.Fatal(err)
	}
	text := r.Text()
	for _, want := range []string{
		"dsidx_engine_workers", "dsidx_ingest_appended_total 8", "dsidx_ingest_pending 8",
		"dsidx_ingest_merge_threshold 1024", "dsidx_index_queries_total 1",
		"dsidx_index_query_seconds_count 1", "dsidx_shard_base_series 300",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if strings.Contains(text, "shard=") {
		t.Errorf("one-shard exposition carries a shard label:\n%s", text)
	}
}
