package vm

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func TestHashPageZeroDetection(t *testing.T) {
	zero := make([]byte, DefaultPageSize)
	h, isZero := HashPage(zero, DefaultPageSize)
	if !isZero || h != ZeroHash {
		t.Fatalf("all-zero page: got hash %#x zero=%v, want sentinel", h, isZero)
	}
	// A short slice of zeros and a nil slice are the same zero page.
	if h, isZero := HashPage(nil, DefaultPageSize); !isZero || h != ZeroHash {
		t.Fatalf("nil page: got hash %#x zero=%v", h, isZero)
	}
	if h, isZero := HashPage(zero[:17], DefaultPageSize); !isZero || h != ZeroHash {
		t.Fatalf("short zero page: got hash %#x zero=%v", h, isZero)
	}
}

func TestHashPagePaddingInvariance(t *testing.T) {
	// A partial final-page slice must hash identically to the full
	// page-size image with a zeroed tail (Materialize clears tails, so
	// both representations of the same page coexist in the system).
	short := []byte("the last page is partial")
	full := make([]byte, DefaultPageSize)
	copy(full, short)
	hs, _ := HashPage(short, DefaultPageSize)
	hf, _ := HashPage(full, DefaultPageSize)
	if hs != hf {
		t.Fatalf("partial page hash %#x != padded page hash %#x", hs, hf)
	}
	if hs == ZeroHash {
		t.Fatal("non-zero page hashed to the zero sentinel")
	}
}

func TestHashPageDistinguishesContent(t *testing.T) {
	a := make([]byte, DefaultPageSize)
	b := make([]byte, DefaultPageSize)
	for i := range a {
		a[i] = byte(i * 7)
		b[i] = byte(i * 7)
	}
	b[100]++
	ha, _ := HashPage(a, DefaultPageSize)
	hb, _ := HashPage(b, DefaultPageSize)
	if ha == hb {
		t.Fatal("one-byte difference produced identical hashes")
	}
}

// refXXH64 is XXH64 as its specification states it: four lanes over
// 32-byte stripes, then eight-, four- and one-byte steps over the
// tail, then the avalanche.
func refXXH64(b []byte, seed uint64) uint64 {
	p := [5]uint64{0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5}
	rotl := bits.RotateLeft64
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
	round := func(acc, in uint64) uint64 { return rotl(acc+in*p[1], 31) * p[0] }
	n, i := len(b), 0
	var h uint64
	if n >= 32 {
		v := [4]uint64{seed + p[0] + p[1], seed + p[1], seed, seed - p[0]}
		for ; i+32 <= n; i += 32 {
			for l := range v {
				v[l] = round(v[l], u64(i+8*l))
			}
		}
		h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18)
		for _, x := range v {
			h = (h^round(0, x))*p[0] + p[3]
		}
	} else {
		h = seed + p[4]
	}
	h += uint64(n)
	for ; i+8 <= n; i += 8 {
		h = rotl(h^round(0, u64(i)), 27)*p[0] + p[3]
	}
	if i+4 <= n {
		h = rotl(h^uint64(binary.LittleEndian.Uint32(b[i:]))*p[0], 23)*p[1] + p[2]
		i += 4
	}
	for ; i < n; i++ {
		h = rotl(h^uint64(b[i])*p[4], 11) * p[0]
	}
	h ^= h >> 33
	h *= p[1]
	h ^= h >> 29
	h *= p[2]
	h ^= h >> 32
	return h
}

func TestRefXXH64Vectors(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := refXXH64([]byte(c.in), 0); got != c.want {
			t.Errorf("XXH64(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

// refHashPage is the definition HashPage must reproduce: XXH64 (seed 0)
// of the page-size image with its missing tail as zeros, the all-zero
// page named ZeroHash, and a non-zero page that lands on ZeroHash
// renamed 1.
func refHashPage(data []byte, pageSize int) uint64 {
	image := make([]byte, pageSize)
	copy(image, data)
	if bytes.Count(image, []byte{0}) == pageSize {
		return ZeroHash
	}
	if h := refXXH64(image, 0); h != ZeroHash {
		return h
	}
	return 1
}

// TestHashPageMatchesReference checks HashPage against refHashPage at
// every data length from 0 to the page size, for each page size the
// page-size ablation runs and two odd ones (an image shorter than one
// stripe, and one whose tail takes every step), with sparse content and
// with zeros, and requires that no length allocates.
func TestHashPageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ps := range []int{20, 45, 256, 512, 1024, 2048} {
		sparse := make([]byte, ps)
		for i := range sparse {
			if rng.Intn(8) == 0 {
				sparse[i] = byte(rng.Intn(256))
			}
		}
		sparse[ps-1] = 1 // the full-length page is non-zero
		zeros := make([]byte, ps)
		for n := 0; n <= ps; n++ {
			for _, data := range [][]byte{sparse[:n], zeros[:n]} {
				got, zero := HashPage(data, ps)
				if want := refHashPage(data, ps); got != want || zero != (want == ZeroHash) {
					t.Fatalf("page size %d, len %d: HashPage = %#x zero=%v, want %#x", ps, n, got, zero, want)
				}
			}
		}
		allocs := testing.AllocsPerRun(1, func() {
			for n := 0; n <= ps; n++ {
				HashPage(sparse[:n], ps)
			}
		})
		if allocs != 0 {
			t.Errorf("page size %d: HashPage allocates %.0f objects over every length", ps, allocs)
		}
	}
}

// TestHashPageNamesFillRowFlipsApart names every workload fill row (the
// 256 images byte(s + j*7) a real page can hold) and every single-bit
// flip of each, 256 × (1 + 4096) images, and fails on any two that
// share a name or on any named ZeroHash (none is all zero). Corruption
// faults flip bits, so a collision here would let an integrity check
// pass a corrupted fill page.
func TestHashPageNamesFillRowFlipsApart(t *testing.T) {
	ps := DefaultPageSize
	names := make([]uint64, 0, 256*(1+8*ps))
	img := make([]byte, ps)
	name := func(s, bit int) {
		h, zero := HashPage(img, ps)
		if zero || h == ZeroHash {
			t.Fatalf("fill row %d, bit %d flipped: named ZeroHash", s, bit)
		}
		names = append(names, h)
	}
	for s := 0; s < 256; s++ {
		for j := range img {
			img[j] = byte(s + j*7)
		}
		name(s, -1)
		for bit := 0; bit < 8*ps; bit++ {
			img[bit/8] ^= 1 << (bit % 8)
			name(s, bit)
			img[bit/8] ^= 1 << (bit % 8)
		}
	}
	slices.Sort(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Fatalf("two of %d images share the name %#x", len(names), names[i])
		}
	}
}

func TestModelCompressedSize(t *testing.T) {
	ps := DefaultPageSize
	linear := make([]byte, ps)
	for i := range linear {
		linear[i] = byte(i * 7) // constant stride: the workload fill idiom
	}
	if got := ModelCompressedSize(linear, ps); got >= ps/4 {
		t.Errorf("linear page models as %d bytes, want well under %d", got, ps/4)
	}
	noisy := make([]byte, ps)
	h := uint64(14695981039346656037)
	for i := range noisy {
		h = h*6364136223846793005 + 1442695040888963407
		noisy[i] = byte(h >> 56)
	}
	if got := ModelCompressedSize(noisy, ps); got != ps {
		t.Errorf("pseudo-random page models as %d bytes, want incompressible %d", got, ps)
	}
	if got := ModelCompressedSize(nil, ps); got != 0 {
		t.Errorf("empty image models as %d bytes, want 0", got)
	}
}

func TestContentIndexLookupVerifies(t *testing.T) {
	ps := DefaultPageSize
	ix := NewContentIndex(ps)
	frame := make([]byte, ps)
	for i := range frame {
		frame[i] = byte(i)
	}
	h, _ := HashPage(frame, ps)
	ix.Put(h, frame)
	if got, ok := ix.Lookup(h); !ok || &got[0] != &frame[0] {
		t.Fatal("lookup of live entry failed")
	}
	// Recycle the frame under the index's feet: the entry must degrade
	// to a miss, not serve wrong bytes.
	frame[0] ^= 0xFF
	if _, ok := ix.Lookup(h); ok {
		t.Fatal("lookup served a stale frame")
	}
	if ix.Len() != 0 {
		t.Fatalf("stale entry not evicted: len %d", ix.Len())
	}
	st := ix.Stats()
	if st.Stale != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 hit and 1 stale", st)
	}
}

func TestContentIndexNilAndZero(t *testing.T) {
	var ix *ContentIndex
	ix.Put(42, []byte{1})
	if _, ok := ix.Lookup(42); ok {
		t.Fatal("nil index hit")
	}
	if ix.Len() != 0 || ix.Contains(42) {
		t.Fatal("nil index not inert")
	}
	live := NewContentIndex(DefaultPageSize)
	live.Put(ZeroHash, make([]byte, DefaultPageSize))
	if live.Len() != 0 {
		t.Fatal("zero sentinel was stored")
	}
}
