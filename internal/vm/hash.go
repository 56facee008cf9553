package vm

import (
	"encoding/binary"
	"math/bits"
	"time"
)

// Content hashing for the content-addressed page store. A page is
// named by XXH64 (seed 0) of its full page-size image (short run
// tails hash as if zero-padded, matching Materialize's tail-clearing),
// so a page's name is independent of how its bytes happened to be
// sliced into runs. XXH64 takes eight bytes per multiply on four
// independent lanes, so one page is a short pass and no caller needs
// to batch pages. The hash is non-cryptographic: the store is a
// performance optimization inside one simulated cluster, not a
// security boundary, and a verify-on-lookup re-hash guards against
// recycled frames (see ContentIndex).

// ZeroHash is the reserved name of the all-zero page. HashPage never
// returns it for a non-zero page, so zero detection is a single
// comparison everywhere downstream (manifest classification, fault
// reply elision, insert-time reconstruction).
const ZeroHash uint64 = 0

const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// HashPage names a page image: data is the page's bytes (possibly a
// short final-page slice), pageSize the page stride. Missing tail bytes
// hash as zeros. The second result reports whether the page is entirely
// zero, in which case the hash is the ZeroHash sentinel; a non-zero
// page whose XXH64 is 0 is named 1. It does not allocate.
func HashPage(data []byte, pageSize int) (uint64, bool) {
	data = data[:min(len(data), pageSize)]
	if allZero(data) {
		return ZeroHash, true
	}
	var pad [32]byte // image bytes past the end of data
	var h uint64
	off := 0
	if pageSize >= 32 {
		// The lanes start at prime1+prime2, prime2, 0 and -prime1,
		// wrapped to 64 bits.
		v1, v2, v3, v4 := prime2, prime2, uint64(0), uint64(0)
		v1 += prime1
		v4 -= prime1
		// The whole stripes of data, then each stripe of the image
		// that data does not fill, zero-padded in pad.
		off = len(data) &^ 31
		for s := data[:off]; ; s = pad[:] {
			for ; len(s) >= 32; s = s[32:] {
				v1 = round(v1, binary.LittleEndian.Uint64(s[0:8:len(s)]))
				v2 = round(v2, binary.LittleEndian.Uint64(s[8:16:len(s)]))
				v3 = round(v3, binary.LittleEndian.Uint64(s[16:24:len(s)]))
				v4 = round(v4, binary.LittleEndian.Uint64(s[24:32:len(s)]))
			}
			if off+32 > pageSize {
				break
			}
			pad = [32]byte{}
			copy(pad[:], data[min(off, len(data)):])
			off += 32
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = merge(merge(merge(merge(h, v1), v2), v3), v4)
	} else {
		h = prime5
	}
	h += uint64(pageSize)

	// The last pageSize%32 bytes.
	t := data[min(off, len(data)):]
	if len(t) < pageSize-off {
		pad = [32]byte{}
		copy(pad[:], t)
		t = pad[:pageSize-off]
	}
	for ; len(t) >= 8; t = t[8:] {
		h = bits.RotateLeft64(h^round(0, binary.LittleEndian.Uint64(t)), 27)*prime1 + prime4
	}
	if len(t) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(t))*prime1, 23)*prime2 + prime3
		t = t[4:]
	}
	for _, b := range t {
		h = bits.RotateLeft64(h^uint64(b)*prime5, 11) * prime1
	}

	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	if h == ZeroHash {
		h = 1 // keep the sentinel unambiguous
	}
	return h, false
}

// round folds one eight-byte word into an XXH64 lane.
func round(acc, in uint64) uint64 {
	return bits.RotateLeft64(acc+in*prime2, 31) * prime1
}

// merge folds a finished lane into the XXH64 state.
func merge(h, v uint64) uint64 {
	return (h^round(0, v))*prime1 + prime4
}

// allZero reports whether every byte of b is zero, eight at a time. A
// non-zero page usually stops it at its first word.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// ModelCompressedSize estimates the post-compression size of a page
// image without actually compressing: a stride predictor (next byte =
// prev + last delta) counts mispredicted bytes, and the modeled output
// is a small header plus two bytes per misprediction, capped at the
// raw size. Synthetic workload pages with linear fill patterns model
// as highly compressible while random-looking content models as
// incompressible, which is the workload-dependent ratio the sweep
// needs. The estimate is deterministic and allocation-free.
func ModelCompressedSize(data []byte, pageSize int) int {
	raw := len(data)
	if raw == 0 {
		return 0
	}
	const header = 8
	miss := 1 // the first byte is always literal
	var prev, delta byte
	prev = data[0]
	for i := 1; i < raw; i++ {
		b := data[i]
		if b != prev+delta {
			miss++
		}
		delta = b - prev
		prev = b
	}
	size := header + 2*miss
	if size > raw {
		size = raw
	}
	return size
}

// DedupConfig parameterizes the content-addressed page store. The zero
// value disables it entirely: no hashing, no indexing, no manifest
// exchange, so the default simulation is byte-identical to a build
// without the store.
type DedupConfig struct {
	// Enabled turns on content hashing, the per-machine index, the
	// migration manifest exchange, and nearest-holder fault serving.
	Enabled bool
	// Compress adds the modeled per-run compression to shipped runs
	// (requires Enabled).
	Compress bool
	// Resume retains delivered page content across failed migration
	// attempts in a destination-side DeliveryLedger, so a retry's
	// manifest exchange elides pages that already made the crossing.
	// Resume works with or without Enabled: on its own it runs the
	// manifest exchange purely for ledger elision.
	Resume bool
	// Integrity stamps per-page checksums on migration payload
	// attachments, verifies them at install time, and repairs
	// mismatches by single-page hash reads back to the source.
	Integrity bool
}

// The content-addressed store's costs, charged only while the store
// is on. Hashing 512 bytes is a fast pass over one page (~a tenth of
// the 2 ms map-in cost); the modeled compressor costs about a quarter
// of the 13 ms fragment handling it can save; a local serve is a frame
// copy plus map-in bookkeeping.
const (
	// HashPerPageCPU is charged at the source for hashing one page when
	// building a manifest (and at any machine indexing a page).
	HashPerPageCPU = 200 * time.Microsecond
	// CompressPerPageCPU / DecompressPerPageCPU are charged per shipped
	// page at the source / destination when Compress is on.
	CompressPerPageCPU   = 3 * time.Millisecond
	DecompressPerPageCPU = 1 * time.Millisecond
	// LocalServeCPU is charged when a fault is satisfied from the
	// destination's own content index instead of the wire.
	LocalServeCPU = 1 * time.Millisecond
)

// ManifestActive reports whether migrations run the OpManifest
// exchange: for content elision (Enabled), for ledger-driven resume
// (Resume), or both.
func (c DedupConfig) ManifestActive() bool { return c.Enabled || c.Resume }
