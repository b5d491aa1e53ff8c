package series

// BatchReader is implemented by Readers whose At may pay device time (a
// disk-backed base collection). A query that has already computed its lower
// bounds hands ReadBatch the positions that survived, and the reader
// delivers them in ITS cheapest order — ascending device offset, neighbours
// fetched in one operation — instead of the caller's:
//
//   - visit(k, s) receives s = At(pos[k]), once per delivered k, in an order
//     the reader chooses; s follows the Reader aliasing contract.
//   - want(k) is asked before the reader commits device time to pos[k] and
//     again before the visit, so positions a tightening threshold has pruned
//     in the meantime cost nothing; a false answer is final for that k.
//   - pos is scratch: the reader (and any View in front of it) may overwrite
//     it while translating positions.
//
// It is safe concurrently with At and other ReadBatch calls, and fails the
// way At does. In-memory Readers simply don't implement it; callers
// discover support through ResolveBatchReader, so hot paths over
// RAM-resident data pay nothing.
type BatchReader interface {
	ReadBatch(pos []int32, want func(k int) bool, visit func(k int, s Series))
}

// ResolveBatchReader returns r's batch read in r's own position space,
// unwrapping any chain of position-remapping Views down to the base Reader;
// it is nil when the base is not device-backed (does not implement
// BatchReader). A view's function translates local positions through its
// map — in place, pos being scratch — before delegating, so callers always
// pass the positions they would pass to r.At.
func ResolveBatchReader(r Reader) func(pos []int32, want func(k int) bool, visit func(k int, s Series)) {
	switch v := r.(type) {
	case BatchReader:
		return v.ReadBatch
	case *View:
		base := ResolveBatchReader(v.base)
		if base == nil {
			return nil
		}
		return func(pos []int32, want func(k int) bool, visit func(k int, s Series)) {
			for i, p := range pos {
				pos[i] = v.pos[p]
			}
			base(pos, want, visit)
		}
	default:
		return nil
	}
}
