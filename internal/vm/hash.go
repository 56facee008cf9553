package vm

import (
	"encoding/binary"
	"time"
)

// Content hashing for the content-addressed page store. Pages are named
// by a 64-bit FNV-1a hash over their full page-size image (short run
// tails hash as if zero-padded, matching Materialize's tail-clearing),
// so a page's name is independent of how its bytes happened to be
// sliced into runs. The hash is non-cryptographic: the store is a
// performance optimization inside one simulated cluster, not a
// security boundary, and a verify-on-lookup re-hash guards against
// recycled frames (see ContentIndex).

// ZeroHash is the reserved name of the all-zero page. HashPage never
// returns it for a non-zero page, so zero detection is a single
// comparison everywhere downstream (manifest classification, fault
// reply elision, insert-time reconstruction).
const ZeroHash uint64 = 0

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashPage names a page image: data is the page's bytes (possibly a
// short final-page slice), pageSize the page stride. Missing tail bytes
// hash as zeros. The second result reports whether the page is entirely
// zero, in which case the hash is the ZeroHash sentinel.
func HashPage(data []byte, pageSize int) (uint64, bool) {
	h := finishPage(fnvOffset64, data, 0, pageSize)
	return h, h == ZeroHash
}

// HashRun appends HashPage's name of every page of r to dst, in page
// order, and returns the extended slice. It is the sweep every hashing
// path uses: the pages go through HashPages four at a time. With enough
// capacity in dst it does not allocate.
func HashRun(dst []uint64, r PageRun, pageSize int) []uint64 {
	var group [4][]byte
	for i := 0; i < r.Count; i += len(group) {
		n := min(len(group), r.Count-i)
		for k := 0; k < n; k++ {
			group[k] = r.Page(i+k, pageSize)
		}
		dst = HashPages(dst, group[:n], pageSize)
	}
	return dst
}

// HashPages appends HashPage's name of each image in pages to dst and
// returns the extended slice. The images need not be contiguous or of
// one length. Four pages are hashed abreast, as four independent
// FNV-1a chains: one chain waits on its multiply for every byte, four
// keep the multiplier busy. With enough capacity in dst it does not
// allocate.
func HashPages(dst []uint64, pages [][]byte, pageSize int) []uint64 {
	for len(pages) > 1 {
		// Two or three pages left: the last one fills the spare lanes.
		// The chains run side by side, so a spare lane is nearly free.
		last := len(pages) - 1
		names := hash4(pages[0], pages[1], pages[min(2, last)], pages[min(3, last)], pageSize)
		n := min(4, len(pages))
		dst = append(dst, names[:n]...)
		pages = pages[n:]
	}
	if len(pages) == 1 {
		h, _ := HashPage(pages[0], pageSize)
		dst = append(dst, h)
	}
	return dst
}

// hash4 names four page images at once. The chains run together over
// the bytes all four pages have; each then finishes alone (a short
// final page ends early, and its tail is hashed as zeros).
func hash4(p0, p1, p2, p3 []byte, pageSize int) [4]uint64 {
	n := min(len(p0), len(p1), len(p2), len(p3), pageSize) &^ 1
	h0, h1, h2, h3 := fnvChains4(p0[:n], p1, p2, p3)
	return [4]uint64{
		finishPage(h0, p0, n, pageSize),
		finishPage(h1, p1, n, pageSize),
		finishPage(h2, p2, n, pageSize),
		finishPage(h3, p3, n, pageSize),
	}
}

// fnvChains4 runs four FNV-1a chains over len(a) bytes of each slice;
// len(a) must be even and no longer than the others. Two bytes per
// step halve the loop overhead. It is kept apart from hash4 so the
// eight live values (four chains, four slice bases) stay in registers.
func fnvChains4(a, b, c, d []byte) (h0, h1, h2, h3 uint64) {
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	h0, h1, h2, h3 = fnvOffset64, fnvOffset64, fnvOffset64, fnvOffset64
	for i := 1; i < len(a); i += 2 {
		h0 = (h0 ^ uint64(a[i-1])) * fnvPrime64
		h1 = (h1 ^ uint64(b[i-1])) * fnvPrime64
		h2 = (h2 ^ uint64(c[i-1])) * fnvPrime64
		h3 = (h3 ^ uint64(d[i-1])) * fnvPrime64
		h0 = (h0 ^ uint64(a[i])) * fnvPrime64
		h1 = (h1 ^ uint64(b[i])) * fnvPrime64
		h2 = (h2 ^ uint64(c[i])) * fnvPrime64
		h3 = (h3 ^ uint64(d[i])) * fnvPrime64
	}
	return h0, h1, h2, h3
}

// finishPage completes one chain that has hashed the first n bytes of
// data, returning what HashPage(data, pageSize) returns. The chain
// itself tells a zero page: after m zero bytes it holds exactly
// fnvOffset64·prime^m, so only a page that lands there is scanned.
// The zero tail of a short page is one multiply by prime^(pageSize-m).
func finishPage(h uint64, data []byte, n, pageSize int) uint64 {
	m := min(len(data), pageSize)
	for _, b := range data[n:m] {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	if h == fnvOffset64*primePow(m) && allZero(data[:m]) {
		return ZeroHash
	}
	h *= primePow(pageSize - m)
	if h == ZeroHash {
		h = 1 // keep the sentinel unambiguous, as HashPage does
	}
	return h
}

// primePow returns fnvPrime64^n mod 2^64 by square-and-multiply: the
// effect of n zero bytes on an FNV-1a chain, since h ^= 0 is a no-op.
func primePow(n int) uint64 {
	r, p := uint64(1), fnvPrime64
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r *= p
		}
		p *= p
	}
	return r
}

// allZero reports whether every byte of b is zero, eight at a time.
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
