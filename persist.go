package dsidx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dsidx/internal/paris"
	"dsidx/internal/shard"
	"dsidx/internal/storage"
)

// Index persistence: a built index can be saved to a file and reopened
// without rebuilding. The index file stores the tree and the summaries,
// not the build-time raw series — reopening requires the same collection
// (MESSI, Sharded) or the same DiskCollection (ParIS) the index was built
// over. Live appends are the exception: appended series exist nowhere but
// in the index, so Save includes them — raw values, on-arrival summaries,
// and the merged/pending split — and a reopened index restores the delta
// buffer exactly as it was, no Flush required before saving.
//
// MESSI and Sharded write one format: a DSS1 manifest wrapping each shard's
// own encoding (internal/shard), one shard for a MESSI. LoadMESSI opens
// every one-shard file, and the single-index files (DSI1, DSL1, DST1) that
// MESSI.Save wrote before a MESSI was a one-shard Sharded; OpenSharded
// opens all of them plus the multi-shard manifests.

// Save writes the index to path, including its live-append store (both
// merged and still-pending series), as a DSS1 manifest wrapping every
// shard's own encoding.
func (x *index) Save(path string) error {
	return writeFileAtomic(path, x.s.Encode())
}

// LoadMESSI reopens a saved MESSI index over the collection it was built
// from. The collection's shape is validated against the index; appended
// series are restored from the file itself. A file holding more than one
// shard is refused: OpenSharded opens it.
func LoadMESSI(path string, coll *Collection, opts ...Option) (*MESSI, error) {
	data, err := readIndexFile(path)
	if err != nil {
		return nil, err
	}
	s, err := shard.Decode(data, coll, shard.Options{Shards: 1, Options: buildOptions(opts).messiOptions()})
	if err != nil {
		return nil, err
	}
	return &MESSI{index{s}}, nil
}

// Save writes the ParIS index to path. The index remains bound to the
// DiskCollection it was built over (flushed leaves live on that device).
func (ix *ParIS) Save(path string) error {
	return writeFileAtomic(path, ix.inner.Encode())
}

// LoadParIS reopens a saved on-disk ParIS/ParIS+ index over its
// DiskCollection.
func LoadParIS(path string, dc *DiskCollection, opts ...Option) (*ParIS, error) {
	data, err := readIndexFile(path)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	inner, err := paris.Decode(data, dc.file, storage.NewLeafStore(dc.disk),
		paris.Options{Workers: o.workers, BatchSeries: o.batchSeries})
	if err != nil {
		return nil, err
	}
	return &ParIS{inner: inner}, nil
}

// LoadParISInMemory reopens a saved in-memory ParIS index over the
// collection it was built from.
func LoadParISInMemory(path string, coll *Collection, opts ...Option) (*ParIS, error) {
	data, err := readIndexFile(path)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	inner, err := paris.DecodeInMemory(data, coll, paris.Options{Workers: o.workers})
	if err != nil {
		return nil, err
	}
	return &ParIS{inner: inner}, nil
}

// Index files carry an 8-byte integrity trailer appended after the encoded
// envelope (DSI1/DSL1/DSS1 headers): the magic "DSC1" followed by a
// little-endian CRC32-C (Castagnoli) over everything before it. Load/Open
// verify it and surface a mismatch as storage.ErrCorrupt — bit rot or a
// torn write fails the open, it does not decode into a wrong index. Files
// saved before the trailer existed lack it and still load unchanged.
const (
	crcMagic   = "DSC1"
	crcTrailer = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sealEnvelope appends the CRC32-C trailer to an encoded index envelope.
func sealEnvelope(data []byte) []byte {
	out := make([]byte, len(data)+crcTrailer)
	copy(out, data)
	copy(out[len(data):], crcMagic)
	binary.LittleEndian.PutUint32(out[len(data)+4:], crc32.Checksum(data, crcTable))
	return out
}

// openEnvelope verifies and strips the CRC32-C trailer; data without one
// (legacy saves) passes through untouched.
func openEnvelope(data []byte) ([]byte, error) {
	if len(data) < crcTrailer || string(data[len(data)-crcTrailer:len(data)-4]) != crcMagic {
		return data, nil
	}
	body := data[:len(data)-crcTrailer]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("dsidx: index checksum mismatch (%08x != %08x): %w",
			got, want, storage.ErrCorrupt)
	}
	return body, nil
}

// readIndexFile reads a saved index and verifies its integrity trailer.
func readIndexFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dsidx: reading index: %w", err)
	}
	return openEnvelope(data)
}

// writeFileAtomic writes data (with its integrity trailer) to path via a
// temp file + rename, fsyncing both the file and its parent directory, so
// a crash mid-save never leaves a truncated index and a completed Save
// survives power loss.
func writeFileAtomic(path string, data []byte) error {
	data = sealEnvelope(data)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dsidx: writing index: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dsidx: writing index: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dsidx: syncing index: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dsidx: writing index: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dsidx: committing index: %w", err)
	}
	// Persist the rename itself: fsync the parent directory. Some
	// filesystems don't support directory fsync; a sync error there is
	// ignored rather than failing a save that already landed.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}
