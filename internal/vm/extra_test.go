package vm

import (
	"testing"
	"testing/quick"
)

func TestMapSegmentWithOffset(t *testing.T) {
	as := mustSpace(t)
	seg := NewSegment("big", 16*512, 512)
	seg.Materialize(4, []byte("fourth page"))
	// Map pages [4,8) of the segment at VA 0x8000.
	if _, err := as.MapSegment(0x8000, 4*512, seg, 4*512, "window"); err != nil {
		t.Fatal(err)
	}
	pl, ok := as.Resolve(0x8000)
	if !ok {
		t.Fatal("Resolve failed")
	}
	if pl.PageIdx != 4 {
		t.Errorf("PageIdx = %d, want 4 (offset applied)", pl.PageIdx)
	}
	if got := as.Classify(0x8000); got != RealMem {
		t.Errorf("Classify = %v, want RealMem", got)
	}
	if got := as.Classify(0x8000 + 512); got != RealZeroMem {
		t.Errorf("Classify(+1 page) = %v, want RealZeroMem", got)
	}
	// Reads through the window hit the offset page.
	if got := string(seg.Read(pl.PageIdx, 0, 11)); got != "fourth page" {
		t.Errorf("Read = %q", got)
	}
}

func TestSegmentAliasedByTwoRegions(t *testing.T) {
	// Two windows onto one segment (the collapsed-RIMAS trick): a page
	// materialized once is visible through both.
	as := mustSpace(t)
	seg := NewSegment("shared", 8*512, 512)
	if _, err := as.MapSegment(0, 4*512, seg, 0, "lo"); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapSegment(0x10000, 4*512, seg, 4*512, "hi"); err != nil {
		t.Fatal(err)
	}
	if seg.Refs() != 2 {
		t.Errorf("Refs = %d, want 2", seg.Refs())
	}
	seg.Materialize(5, []byte("aliased"))
	if got := as.Classify(0x10000 + 512); got != RealMem {
		t.Errorf("page 5 via hi window = %v, want RealMem", got)
	}
	if got := as.Classify(512); got != RealZeroMem {
		t.Errorf("page 1 via lo window = %v, want RealZeroMem", got)
	}
	// Death fires only after both windows unmap.
	died := false
	seg.OnDeath(func() { died = true })
	regs := as.Regions()
	if err := as.Unmap(regs[0]); err != nil {
		t.Fatal(err)
	}
	if died {
		t.Error("death fired with one window still mapped")
	}
	if err := as.Unmap(as.Regions()[0]); err != nil {
		t.Fatal(err)
	}
	if !died {
		t.Error("death never fired")
	}
}

func TestUsageWithWindowedSegment(t *testing.T) {
	// Usage must count only pages inside the mapped window, not the
	// whole segment.
	as := mustSpace(t)
	seg := NewSegment("big", 16*512, 512)
	seg.Materialize(0, []byte("outside"))
	seg.Materialize(6, []byte("inside"))
	if _, err := as.MapSegment(0, 4*512, seg, 4*512, "window"); err != nil {
		t.Fatal(err)
	}
	u := as.Usage()
	if u.Total != 4*512 {
		t.Errorf("Total = %d", u.Total)
	}
	if u.Real != 512 {
		t.Errorf("Real = %d, want 512 (only page 6 is in-window)", u.Real)
	}
}

func TestAMapWindowedSegment(t *testing.T) {
	as := mustSpace(t)
	seg := NewSegment("big", 16*512, 512)
	seg.Materialize(5, nil)
	if _, err := as.MapSegment(0x4000, 4*512, seg, 4*512, "window"); err != nil {
		t.Fatal(err)
	}
	m := BuildAMap(as)
	// Window covers segment pages 4..7; page 5 is real.
	want := []AMapEntry{
		{0x4000, 0x4000 + 512, RealZeroMem},
		{0x4000 + 512, 0x4000 + 2*512, RealMem},
		{0x4000 + 2*512, 0x4000 + 4*512, RealZeroMem},
	}
	if len(m.Entries) != len(want) {
		t.Fatalf("entries = %+v", m.Entries)
	}
	for i := range want {
		if m.Entries[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, m.Entries[i], want[i])
		}
	}
}

func TestPageVersioning(t *testing.T) {
	s := NewSegment("s", 2*512, 512)
	pg := s.MaterializeZero(0)
	if pg.Version != 0 {
		t.Errorf("fresh version = %d", pg.Version)
	}
	s.Write(0, 0, []byte("a"))
	s.Write(0, 1, []byte("b"))
	if pg.Version != 2 {
		t.Errorf("version after two writes = %d", pg.Version)
	}
	pg.MarkWritten()
	if pg.Version != 3 || !pg.State.Dirty {
		t.Errorf("MarkWritten: version=%d dirty=%v", pg.Version, pg.State.Dirty)
	}
}

func TestValidateZeroSizeRejected(t *testing.T) {
	as := mustSpace(t)
	if _, err := as.Validate(0, 0, "empty"); err == nil {
		t.Error("zero-size validate accepted")
	}
}

func TestResolveAtRegionBoundaries(t *testing.T) {
	as := mustSpace(t)
	if _, err := as.Validate(0x1000, 2*512, "r"); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.Resolve(0x0fff); ok {
		t.Error("resolved below region")
	}
	if pl, ok := as.Resolve(0x1000); !ok || pl.Offset != 0 {
		t.Error("first byte unresolved or misoffset")
	}
	last := Addr(0x1000 + 2*512 - 1)
	if pl, ok := as.Resolve(last); !ok || pl.Offset != 511 || pl.PageIdx != 1 {
		t.Errorf("last byte: %+v ok=%v", func() Place { p, _ := as.Resolve(last); return p }(), ok)
	}
	if _, ok := as.Resolve(last + 1); ok {
		t.Error("resolved past region")
	}
}

// Property: Usage().Total always equals the sum of region sizes, and
// Real+RealZero+Imag == Total for any mix of real and imaginary maps.
func TestQuickUsagePartition(t *testing.T) {
	f := func(spec []struct {
		Start uint8
		Pages uint8
		Imag  bool
		Mat   uint8
	}) bool {
		as := MustNewAddressSpace(Config{})
		var regionSum uint64
		for _, sp := range spec {
			pages := uint64(sp.Pages%16) + 1
			start := Addr(uint64(sp.Start) * 32 * 512)
			var seg *Segment
			if sp.Imag {
				seg = NewImaginarySegment("i", pages*512, 512, 1, 1)
			} else {
				seg = NewSegment("r", pages*512, 512)
			}
			if _, err := as.MapSegment(start, pages*512, seg, 0, "x"); err != nil {
				continue
			}
			regionSum += pages * 512
			for m := uint64(0); m < uint64(sp.Mat%8) && m < pages; m++ {
				seg.MaterializeZero(m)
			}
		}
		u := as.Usage()
		return u.Total == regionSum && u.Real+u.RealZero+u.Imag == u.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
