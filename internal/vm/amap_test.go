package vm

import "testing"

func TestAMapCoalescing(t *testing.T) {
	as := mustSpace(t)
	r, _ := as.Validate(0, 10*512, "d")
	// Touch pages 2,3,4 and 7.
	for _, i := range []uint64{2, 3, 4, 7} {
		r.Seg.MaterializeZero(i)
	}
	m := BuildAMap(as)
	want := []AMapEntry{
		{0, 2 * 512, RealZeroMem},
		{2 * 512, 5 * 512, RealMem},
		{5 * 512, 7 * 512, RealZeroMem},
		{7 * 512, 8 * 512, RealMem},
		{8 * 512, 10 * 512, RealZeroMem},
	}
	if len(m.Entries) != len(want) {
		t.Fatalf("entries = %+v, want %+v", m.Entries, want)
	}
	for i, e := range want {
		if m.Entries[i] != e {
			t.Errorf("entry %d = %+v, want %+v", i, m.Entries[i], e)
		}
	}
	if m.Stats.Runs != 5 || m.Stats.Regions != 1 || m.Stats.MaterializedPages != 4 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestAMapImaginaryRuns(t *testing.T) {
	as := mustSpace(t)
	seg := NewImaginarySegment("owed", 6*512, 512, 3, 1)
	if _, err := as.MapSegment(0x10000, 6*512, seg, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	seg.Materialize(2, []byte("x"))
	m := BuildAMap(as)
	want := []AMapEntry{
		{0x10000, 0x10000 + 2*512, ImagMem},
		{0x10000 + 2*512, 0x10000 + 3*512, RealMem},
		{0x10000 + 3*512, 0x10000 + 6*512, ImagMem},
	}
	for i, e := range want {
		if m.Entries[i] != e {
			t.Errorf("entry %d = %+v, want %+v", i, m.Entries[i], e)
		}
	}
}

func TestAMapClassifyAndGaps(t *testing.T) {
	as := mustSpace(t)
	as.Validate(0, 512, "a")
	as.Validate(4096, 512, "b")
	m := BuildAMap(as)
	if got := m.Classify(0); got != RealZeroMem {
		t.Errorf("Classify(0) = %v", got)
	}
	if got := m.Classify(2048); got != BadMem {
		t.Errorf("Classify(gap) = %v, want BadMem", got)
	}
	if got := m.Classify(4096); got != RealZeroMem {
		t.Errorf("Classify(4096) = %v", got)
	}
	if got := m.Classify(Addr(MaxSpace)); got != BadMem {
		t.Errorf("Classify(end) = %v", got)
	}
}

func TestAMapTotalBytes(t *testing.T) {
	as := mustSpace(t)
	r, _ := as.Validate(0, 4*512, "d")
	r.Seg.MaterializeZero(0)
	seg := NewImaginarySegment("i", 2*512, 512, 1, 1)
	as.MapSegment(1<<20, 2*512, seg, 0, "i")
	tot := BuildAMap(as).TotalBytes()
	if tot[RealMem] != 512 || tot[RealZeroMem] != 3*512 || tot[ImagMem] != 2*512 {
		t.Errorf("TotalBytes = %v", tot)
	}
}

func TestAMapMergesAdjacentRegions(t *testing.T) {
	as := mustSpace(t)
	as.Validate(0, 512, "a")
	as.Validate(512, 512, "b")
	m := BuildAMap(as)
	if len(m.Entries) != 1 {
		t.Errorf("adjacent same-class regions not merged: %+v", m.Entries)
	}
}

func TestAMapHugeSparse(t *testing.T) {
	as := mustSpace(t)
	r, err := as.Validate(0, MaxSpace, "lisp")
	if err != nil {
		t.Fatal(err)
	}
	r.Seg.MaterializeZero(1000)
	r.Seg.MaterializeZero(1001)
	m := BuildAMap(as)
	if len(m.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(m.Entries))
	}
	if m.Stats.ValidatedPages != MaxSpace/512 {
		t.Errorf("ValidatedPages = %d", m.Stats.ValidatedPages)
	}
	tot := m.TotalBytes()
	if tot[RealMem] != 1024 {
		t.Errorf("RealMem = %d, want 1024", tot[RealMem])
	}
	if tot[RealZeroMem] != MaxSpace-1024 {
		t.Errorf("RealZeroMem = %d", tot[RealZeroMem])
	}
}

func TestAMapWireBytesGrowsWithEntries(t *testing.T) {
	as := mustSpace(t)
	as.Validate(0, 512, "a")
	small := BuildAMap(as).WireBytes()
	as2 := mustSpace(t)
	for i := 0; i < 20; i++ {
		as2.Validate(Addr(i*4096), 512, "r")
	}
	big := BuildAMap(as2).WireBytes()
	if big <= small {
		t.Errorf("WireBytes small=%d big=%d", small, big)
	}
}
