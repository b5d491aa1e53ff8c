package shard

// Sharded persistence ("DSS1" manifest format): an envelope around the
// per-shard DSI1/DSL1 blobs the single-index persistence already writes,
// plus the routing metadata that cannot be re-derived — the shard each
// append landed on, in global arrival order. The build-time split is NOT
// persisted: it is a pure function of (collection, policy, shards), so
// Decode replays the policy over the supplied base collection instead —
// rebuilding the same zero-copy position-remapping views a fresh Build
// would use, so a loaded sharded index holds the base values once, too.
// The format carries no trace of the backing shape: files written by
// copy-split builds and view-split builds are byte-identical.
//
//	magic "DSS1", u32 version=1
//	u32 policy id, u32 shard count N (1 ≤ N ≤ MaxShards)
//	u64 base collection length, u64 appended count A
//	A × u8 shard id of each append, in global arrival order
//	N × { u64 blobLen, blob } per-shard index (DSI1 or DSL1)
//
// A file that does not start with the DSS1 magic is decoded as a plain
// single-index file and served as a 1-shard instance, so every pre-sharding
// index file keeps loading unchanged.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dsidx/internal/messi"
	"dsidx/internal/series"
)

const (
	manifestMagic   = "DSS1"
	manifestVersion = 1
	manifestHeader  = 4 + 4 + 4 + 4 + 8 + 8
)

// Encode serializes the sharded index: the manifest, the append route log,
// and every shard's own encoding (tree, summaries, append store). The base
// collection is not included and must be supplied again to Decode. Encode
// briefly holds the route lock, so the cut is a consistent global prefix;
// concurrent appends land after the save.
func (s *Sharded) Encode() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.routeLog.Len()
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	_ = binary.Write(&buf, binary.LittleEndian, uint32(manifestVersion))
	_ = binary.Write(&buf, binary.LittleEndian, s.policy.ID())
	_ = binary.Write(&buf, binary.LittleEndian, uint32(s.n))
	_ = binary.Write(&buf, binary.LittleEndian, uint64(s.baseLen))
	_ = binary.Write(&buf, binary.LittleEndian, uint64(a))
	for g := 0; g < a; g++ {
		buf.WriteByte(byte(s.routeLog.At(g)[0]))
	}
	for _, sh := range s.shards {
		blob := sh.Encode()
		_ = binary.Write(&buf, binary.LittleEndian, uint64(len(blob)))
		buf.Write(blob)
	}
	return buf.Bytes()
}

// Decode reconstructs a sharded index from Encode output over the same
// base collection it was built from. Non-DSS1 data is treated as a plain
// single-index file and loaded as a 1-shard instance. Corrupt or truncated
// input returns an error, never panics. opt.Shards and opt.Policy, when
// set, must match the file (the file defines the topology).
func Decode(data []byte, coll *series.Collection, opt Options) (*Sharded, error) {
	wantShards, wantPolicy := opt.Shards, opt.Policy
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(manifestMagic)) {
		return decodeLegacy(data, coll, opt, wantShards, wantPolicy)
	}
	if len(data) < manifestHeader {
		return nil, fmt.Errorf("shard: truncated DSS1 header (%d bytes)", len(data))
	}
	version := binary.LittleEndian.Uint32(data[4:])
	if version != manifestVersion {
		return nil, fmt.Errorf("shard: unsupported DSS1 version %d", version)
	}
	policy, err := policyByID(binary.LittleEndian.Uint32(data[8:]))
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(data[12:]))
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: manifest shard count %d outside [1, %d]", n, MaxShards)
	}
	baseLen := binary.LittleEndian.Uint64(data[16:])
	if baseLen != uint64(coll.Len()) {
		return nil, fmt.Errorf("shard: manifest is for a %d-series base collection, got %d",
			baseLen, coll.Len())
	}
	a64 := binary.LittleEndian.Uint64(data[24:])
	rest := data[manifestHeader:]
	if a64 > uint64(len(rest)) {
		return nil, fmt.Errorf("shard: manifest claims %d appends, only %d bytes remain", a64, len(rest))
	}
	a := int(a64)
	routes := rest[:a]
	rest = rest[a:]
	for g, r := range routes {
		if int(r) >= n {
			return nil, fmt.Errorf("shard: append %d routed to shard %d of %d", g, r, n)
		}
	}

	// The file defines the topology; explicitly conflicting options are a
	// caller bug worth surfacing, not silently overriding.
	if wantShards > 0 && wantShards != n {
		return nil, fmt.Errorf("shard: options ask for %d shards, file has %d", wantShards, n)
	}
	if wantPolicy != nil && wantPolicy.ID() != policy.ID() {
		return nil, fmt.Errorf("shard: options ask for policy %s, file has %s",
			wantPolicy.Name(), policy.Name())
	}
	opt.Shards, opt.Policy = n, policy

	s, views := newShell(coll, opt)
	routed := make([]int, n)
	for _, r := range routes {
		routed[r]++
	}
	for si := range s.shards {
		if len(rest) < 8 {
			s.Close()
			return nil, fmt.Errorf("shard: truncated blob length for shard %d", si)
		}
		blobLen := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if blobLen > uint64(len(rest)) {
			s.Close()
			return nil, fmt.Errorf("shard: shard %d blob claims %d bytes, %d remain", si, blobLen, len(rest))
		}
		blob := rest[:blobLen]
		rest = rest[blobLen:]
		sh, err := messi.Decode(blob, views[si], s.shardOptions(si))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("shard: decoding shard %d: %w", si, s.globalErr(si, err))
		}
		s.shards[si] = sh
		if want := views[si].Len() + routed[si]; sh.Count() != want {
			s.Close()
			return nil, fmt.Errorf("shard: shard %d holds %d series, route log implies %d",
				si, sh.Count(), want)
		}
	}
	if len(rest) != 0 {
		s.Close()
		return nil, fmt.Errorf("shard: %d trailing bytes after the last shard blob", len(rest))
	}
	s.replayRoutes(routes)
	if err := s.finish(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// decodeLegacy serves a pre-sharding single-index file as a 1-shard
// instance: identity position maps, every restored append routed to shard
// 0. Behavior, counts and answers are exactly those of the plain index.
// The instance re-encodes (and so behaves from then on) as round-robin,
// which is why an explicitly different policy is rejected here too — the
// same option must not be silently ignored on the first open and a hard
// mismatch error on the next.
func decodeLegacy(data []byte, coll *series.Collection, opt Options, wantShards int, wantPolicy Policy) (*Sharded, error) {
	if wantShards > 1 {
		return nil, fmt.Errorf("shard: options ask for %d shards, file is a single-index file", wantShards)
	}
	if wantPolicy != nil && wantPolicy.ID() != policyRoundRobinID {
		return nil, fmt.Errorf("shard: options ask for policy %s, single-index files load as round-robin",
			wantPolicy.Name())
	}
	opt.Shards, opt.Policy = 1, RoundRobin{}
	s, views := newShell(coll, opt)
	sh, err := messi.Decode(data, views[0], s.shardOptions(0))
	if err != nil {
		s.Close()
		return nil, s.globalErr(0, err)
	}
	s.shards[0] = sh
	routes := make([]byte, sh.Count()-coll.Len())
	s.replayRoutes(routes)
	if err := s.finish(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// replayRoutes rebuilds the in-memory append routing state — per-shard
// global position maps, the route log, the published cut vector — from the
// persisted shard-id sequence.
func (s *Sharded) replayRoutes(routes []byte) {
	cuts := make([]int32, s.n)
	for g, r := range routes {
		si := int(r)
		local := len(s.baseMap[si]) + s.appendMap[si].Len()
		s.appendMap[si].Append([]int32{int32(s.baseLen + g)})
		s.routeLog.Append([]int32{int32(si), int32(local)})
		cuts[si]++
	}
	s.cuts.Store(&cuts)
	s.appended.Store(int64(len(routes)))
}
