package vm

import (
	"testing"
	"testing/quick"
)

func mustSpace(t *testing.T) *AddressSpace {
	t.Helper()
	as, err := NewAddressSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewAddressSpace(Config{PageSize: 500}); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := NewAddressSpace(Config{PageSize: 4}); err == nil {
		t.Error("tiny page size accepted")
	}
	as, err := NewAddressSpace(Config{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if as.PageSize() != 1024 {
		t.Errorf("PageSize = %d", as.PageSize())
	}
	if mustSpace(t).PageSize() != DefaultPageSize {
		t.Error("default page size not applied")
	}
}

func TestValidateAndClassify(t *testing.T) {
	as := mustSpace(t)
	r, err := as.Validate(0x1000, 4*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4*512 {
		t.Errorf("region size = %d", r.Size())
	}
	if got := as.Classify(0x1000); got != RealZeroMem {
		t.Errorf("fresh page classify = %v, want RealZeroMem", got)
	}
	if got := as.Classify(0x0fff); got != BadMem {
		t.Errorf("below region = %v, want BadMem", got)
	}
	if got := as.Classify(0x1000 + 4*512); got != BadMem {
		t.Errorf("past region = %v, want BadMem", got)
	}
	// Touch one page.
	pl, ok := as.Resolve(0x1200)
	if !ok {
		t.Fatal("Resolve failed inside region")
	}
	pl.Seg.MaterializeZero(pl.PageIdx)
	if got := as.Classify(0x1200); got != RealMem {
		t.Errorf("touched page = %v, want RealMem", got)
	}
	if got := as.Classify(0x1000); got != RealZeroMem {
		t.Errorf("untouched neighbour = %v, want RealZeroMem", got)
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	as := mustSpace(t)
	if _, err := as.Validate(0, 2048, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Validate(1024, 2048, "b"); err == nil {
		t.Error("overlapping validate accepted")
	}
	if _, err := as.Validate(2048, 512, "c"); err != nil {
		t.Errorf("abutting validate rejected: %v", err)
	}
}

func TestValidateRejectsUnaligned(t *testing.T) {
	as := mustSpace(t)
	if _, err := as.Validate(100, 512, "x"); err == nil {
		t.Error("unaligned start accepted")
	}
}

func TestValidateRoundsSizeUp(t *testing.T) {
	as := mustSpace(t)
	r, err := as.Validate(0, 700, "x")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1024 {
		t.Errorf("size = %d, want 1024 (two pages)", r.Size())
	}
}

func TestMapBeyond4GBRejected(t *testing.T) {
	as := mustSpace(t)
	if _, err := as.Validate(Addr(MaxSpace-512), 1024, "x"); err == nil {
		t.Error("mapping past 4 GB accepted")
	}
}

func TestImaginaryClassification(t *testing.T) {
	as := mustSpace(t)
	seg := NewImaginarySegment("owed", 8*512, 512, 77, 1)
	if _, err := as.MapSegment(0x2000, 8*512, seg, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	if got := as.Classify(0x2000); got != ImagMem {
		t.Errorf("unfetched imaginary = %v, want ImagMem", got)
	}
	// Fetch the page: becomes locally backed.
	seg.Materialize(0, []byte{1, 2, 3})
	if got := as.Classify(0x2000); got != RealMem {
		t.Errorf("fetched imaginary = %v, want RealMem", got)
	}
}

func TestUsageAccounting(t *testing.T) {
	as := mustSpace(t)
	r, _ := as.Validate(0, 10*512, "d")
	for i := uint64(0); i < 3; i++ {
		r.Seg.MaterializeZero(i)
	}
	pg := r.Seg.Page(0)
	pg.State.Resident = true
	iseg := NewImaginarySegment("owed", 4*512, 512, 9, 1)
	if _, err := as.MapSegment(1<<20, 4*512, iseg, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	iseg.Materialize(1, []byte("hi"))
	u := as.Usage()
	if u.Total != 14*512 {
		t.Errorf("Total = %d, want %d", u.Total, 14*512)
	}
	if u.Real != 4*512 {
		t.Errorf("Real = %d, want %d", u.Real, 4*512)
	}
	if u.RealZero != 7*512 {
		t.Errorf("RealZero = %d, want %d", u.RealZero, 7*512)
	}
	if u.Imag != 3*512 {
		t.Errorf("Imag = %d, want %d", u.Imag, 3*512)
	}
	if u.Resident != 512 {
		t.Errorf("Resident = %d, want 512", u.Resident)
	}
	if as.TouchedPages() != 4 {
		t.Errorf("TouchedPages = %d, want 4", as.TouchedPages())
	}
}

func TestHugeSparseSpaceIsCheap(t *testing.T) {
	as := mustSpace(t)
	// A Lisp-style process: validate the whole 4 GB.
	r, err := as.Validate(0, MaxSpace, "lisp-heap")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		r.Seg.MaterializeZero(i * 37)
	}
	u := as.Usage()
	if u.Total != MaxSpace {
		t.Errorf("Total = %d, want 4GB", u.Total)
	}
	if u.Real != 100*512 {
		t.Errorf("Real = %d", u.Real)
	}
	if want := uint64(MaxSpace - 100*512); u.RealZero != want {
		t.Errorf("RealZero = %d, want %d", u.RealZero, want)
	}
}

func TestUnmapDropsSegmentRef(t *testing.T) {
	as := mustSpace(t)
	died := false
	seg := NewImaginarySegment("owed", 512, 512, 1, 1)
	seg.OnDeath(func() { died = true })
	r, err := as.MapSegment(0, 512, seg, 0, "owed")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Refs() != 1 {
		t.Fatalf("Refs = %d", seg.Refs())
	}
	if err := as.Unmap(r); err != nil {
		t.Fatal(err)
	}
	if !died {
		t.Error("death callback not fired on last unmap")
	}
	if as.Lookup(0) != nil {
		t.Error("region still present after Unmap")
	}
}

func TestClearUnrefsAll(t *testing.T) {
	as := mustSpace(t)
	deaths := 0
	for i := 0; i < 3; i++ {
		seg := NewSegment("s", 512, 512)
		seg.OnDeath(func() { deaths++ })
		if _, err := as.MapSegment(Addr(i*4096), 512, seg, 0, "s"); err != nil {
			t.Fatal(err)
		}
	}
	as.Clear()
	if deaths != 3 {
		t.Errorf("deaths = %d, want 3", deaths)
	}
	if len(as.Regions()) != 0 {
		t.Error("regions remain after Clear")
	}
}

func TestLookupBinarySearch(t *testing.T) {
	as := mustSpace(t)
	for i := 0; i < 50; i++ {
		if _, err := as.Validate(Addr(i*8192), 512, "r"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if r := as.Lookup(Addr(i*8192 + 100)); r == nil {
			t.Fatalf("Lookup missed region %d", i)
		}
		if r := as.Lookup(Addr(i*8192 + 600)); r != nil {
			t.Fatalf("Lookup hit a hole at region %d", i)
		}
	}
}

// TestTranslationCacheFollowsUnmapAndClear resolves an address, so
// the space caches its region, then takes the region away: a cache
// that outlived its region would still resolve the address. A region
// later mapped over the old range must be found, up to its own end.
func TestTranslationCacheFollowsUnmapAndClear(t *testing.T) {
	as := mustSpace(t)
	a, err := as.Validate(0x10000, 4*512, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Validate(0x40000, 4*512, "b")
	if err != nil {
		t.Fatal(err)
	}
	in := func(addr Addr, want *Region) {
		t.Helper()
		pl, ok := as.Resolve(addr)
		switch {
		case want == nil && ok:
			t.Fatalf("Resolve(%#x) found %q, want BadMem", addr, pl.Region.Name)
		case want != nil && (!ok || pl.Region != want):
			t.Fatalf("Resolve(%#x) = %v, %v; want %q", addr, pl.Region, ok, want.Name)
		}
		if want == nil && as.Classify(addr) != BadMem {
			t.Fatalf("Classify(%#x) = %v, want BadMem", addr, as.Classify(addr))
		}
	}

	in(0x10000+512, a)
	if err := as.Unmap(a); err != nil {
		t.Fatal(err)
	}
	in(0x10000+512, nil)
	in(0x40000, b)

	// Unmapping a region the cache does not hold keeps the one it does.
	c, err := as.Validate(0x10000, 2*512, "c")
	if err != nil {
		t.Fatal(err)
	}
	in(0x40000+512, b)
	if err := as.Unmap(c); err != nil {
		t.Fatal(err)
	}
	in(0x40000+3*512, b)

	// A region mapped over the old range is found, and the old range
	// past its end stays BadMem.
	d, err := as.Validate(0x10000, 2*512, "d")
	if err != nil {
		t.Fatal(err)
	}
	in(0x10000+512, d)
	in(0x10000+3*512, nil)

	in(0x40000, b)
	as.Clear()
	in(0x40000, nil)
	in(0x10000, nil)
	e, err := as.Validate(0x40000, 512, "e")
	if err != nil {
		t.Fatal(err)
	}
	in(0x40000, e)
	in(0x40000+512, nil)
}

// Property: Classify agrees with a fresh AMap's Classify at arbitrary
// probe addresses for arbitrary sparse layouts.
func TestQuickClassifyMatchesAMap(t *testing.T) {
	f := func(starts []uint16, touches []uint8, probes []uint32) bool {
		as := MustNewAddressSpace(Config{})
		var regions []*Region
		for _, s := range starts {
			start := Addr(uint64(s) * 4096)
			r, err := as.Validate(start, 2048, "r")
			if err != nil {
				continue // overlap; fine
			}
			regions = append(regions, r)
		}
		for i, tc := range touches {
			if len(regions) == 0 {
				break
			}
			r := regions[i%len(regions)]
			r.Seg.MaterializeZero(uint64(tc) % 4)
		}
		m := BuildAMap(as)
		for _, p := range probes {
			a := Addr(p)
			if as.Classify(a) != m.Classify(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
