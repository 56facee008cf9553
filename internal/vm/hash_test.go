package vm

import (
	"math/rand"
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

// refHashPage is the definition HashPage and the four-abreast kernel
// must reproduce: one byte-serial FNV-1a chain over the page image with
// its missing tail as zeros, the all-zero page named ZeroHash, and a
// non-zero page that lands on ZeroHash renamed 1.
func refHashPage(data []byte, pageSize int) uint64 {
	h := fnvOffset64
	zero := true
	for i := 0; i < pageSize; i++ {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		if b != 0 {
			zero = false
		}
		h = (h ^ uint64(b)) * fnvPrime64
	}
	switch {
	case zero:
		return ZeroHash
	case h == ZeroHash:
		return 1
	}
	return h
}

func TestHashPageMatchesReference(t *testing.T) {
	ps := DefaultPageSize
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 500; it++ {
		data := make([]byte, rng.Intn(ps+1))
		for i := range data {
			if rng.Intn(8) == 0 {
				data[i] = byte(rng.Intn(256))
			}
		}
		got, zero := HashPage(data, ps)
		if want := refHashPage(data, ps); got != want || zero != (want == ZeroHash) {
			t.Fatalf("len %d: HashPage = %#x zero=%v, want %#x", len(data), got, zero, want)
		}
	}
}

// TestHashRun checks the four-abreast kernel against HashPage page by
// page: every run length from 0 to 9 (so every lane count and every
// remainder), zero pages mixed in at every lane, and a short final page.
func TestHashRun(t *testing.T) {
	ps := DefaultPageSize
	rng := rand.New(rand.NewSource(2))
	for count := 0; count <= 9; count++ {
		for _, tail := range []int{ps, ps - 1, 17, 1} {
			if count == 0 && tail != ps {
				continue
			}
			size := count * ps
			if count > 0 {
				size = (count-1)*ps + tail
			}
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			for p := 0; p < count; p++ {
				if rng.Intn(3) == 0 { // a zero page
					clear(data[p*ps : min((p+1)*ps, size)])
				}
			}
			r := PageRun{Index: 5, Count: count, Data: data}
			dst := make([]uint64, 1, 1+count)
			dst[0] = 99
			got := HashRun(dst, r, ps)
			if len(got) != 1+count || got[0] != 99 {
				t.Fatalf("count %d tail %d: HashRun returned %d entries %v, want 99 then %d names", count, tail, len(got), got, count)
			}
			for p := 0; p < count; p++ {
				want, _ := HashPage(r.Page(p, ps), ps)
				if got[1+p] != want {
					t.Errorf("count %d tail %d page %d: HashRun %#x, HashPage %#x", count, tail, p, got[1+p], want)
				}
			}
		}
	}
}

func TestHashPagesMixedLengths(t *testing.T) {
	ps := DefaultPageSize
	full := make([]byte, ps)
	for i := range full {
		full[i] = byte(i*7 + 1)
	}
	pages := [][]byte{full, nil, full[:3], make([]byte, ps), full[:ps-1], {0, 0, 9}, full}
	got := HashPages(nil, pages, ps)
	for i, pg := range pages {
		if want := refHashPage(pg, ps); got[i] != want {
			t.Errorf("page %d (len %d): %#x, want %#x", i, len(pg), got[i], want)
		}
	}
}

func TestAllocsHashRun(t *testing.T) {
	ps := DefaultPageSize
	data := make([]byte, 64*ps)
	for i := range data {
		data[i] = byte(i)
	}
	r := PageRun{Count: 64, Data: data}
	dst := make([]uint64, 0, r.Count)
	allocs := testing.AllocsPerRun(50, func() {
		dst = HashRun(dst[:0], r, ps)
	})
	if allocs != 0 {
		t.Errorf("HashRun into a preallocated dst allocates %.1f objects/op, want 0", allocs)
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
	h := uint64(fnvOffset64)
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
