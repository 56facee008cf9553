package vm

import (
	"bytes"
	"testing"
)

// lender returns a page image and a pristine copy to compare it with
// after the test: a borrowed page must never write through to it.
func lender() (data, want []byte) {
	data = make([]byte, DefaultPageSize)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	return data, bytes.Clone(data)
}

// pooledSegment is a one-segment fixture drawing frames from its own
// pool.
func pooledSegment(pages int) (*Segment, *FramePool) {
	pool := NewFramePool(DefaultPageSize)
	s := NewSegment("s", uint64(pages*DefaultPageSize), DefaultPageSize)
	s.SetPool(pool)
	return s, pool
}

func TestBorrowReadsInPlaceWithoutFrames(t *testing.T) {
	s, pool := pooledSegment(4)
	data, want := lender()
	pg := s.Borrow(2, data)
	if &pg.Data[0] != &data[0] {
		t.Error("Borrow copied the data; want it read in place")
	}
	if pg.Shared() {
		t.Error("a borrowed page reports Shared; the mark must stay host-side")
	}
	if got := s.Read(2, 0, DefaultPageSize); !bytes.Equal(got, want) {
		t.Error("borrowed page reads back different bytes")
	}
	if st := pool.Stats(); st.Gets != 0 {
		t.Errorf("Borrow drew %d pool frames, want 0", st.Gets)
	}
}

func TestWriteToBorrowedPageCopiesFirst(t *testing.T) {
	s, pool := pooledSegment(1)
	data, want := lender()
	s.Borrow(0, data)
	if s.BreakCOW(0) {
		t.Error("BreakCOW on an unshared borrowed page reported a COW break")
	}
	if got := pool.Stats().Gets; got != 1 {
		t.Errorf("BreakCOW drew %d pool frames, want 1", got)
	}
	s.Write(0, 0, []byte("private"))
	if got := pool.Stats().Gets; got != 1 {
		t.Errorf("write after the copy drew more frames: %d gets, want 1", got)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("write reached the borrowed bytes")
	}
	got := s.Read(0, 0, DefaultPageSize)
	if string(got[:7]) != "private" || !bytes.Equal(got[7:], want[7:]) {
		t.Error("page does not hold the borrowed image with the write applied")
	}

	// A direct Write (no BreakCOW first) copies just the same.
	s2, pool2 := pooledSegment(1)
	s2.Borrow(0, data)
	s2.Write(0, 100, []byte{0xFF})
	if got := pool2.Stats().Gets; got != 1 {
		t.Errorf("Write to a borrowed page drew %d pool frames, want 1", got)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("Write reached the borrowed bytes")
	}
}

func TestMaterializeOverBorrowedPageKeepsLenderIntact(t *testing.T) {
	s, pool := pooledSegment(1)
	data, want := lender()
	s.Borrow(0, data)
	pg := s.Materialize(0, []byte("new contents"))
	if !bytes.Equal(data, want) {
		t.Fatal("Materialize wrote into the borrowed bytes")
	}
	if &pg.Data[0] == &data[0] {
		t.Error("Materialize kept the borrowed slice")
	}
	if string(s.Read(0, 0, 12)) != "new contents" {
		t.Error("Materialize result not visible")
	}
	s.Write(0, 0, []byte("again"))
	s.ReleaseFrames()
	if st := pool.Stats(); st.Gets != 1 || st.Puts != 1 {
		t.Errorf("pool traffic %+v, want the one materialized frame out and back", st)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("later write reached the borrowed bytes")
	}
}

func TestAdoptSharedFromBorrowedPage(t *testing.T) {
	pool := NewFramePool(DefaultPageSize)
	src := NewSegment("src", DefaultPageSize, DefaultPageSize)
	src.SetPool(pool)
	dst := NewSegment("dst", DefaultPageSize, DefaultPageSize)
	dst.SetPool(pool)
	data, want := lender()
	spg := src.Borrow(0, data)
	dpg := dst.AdoptShared(0, spg)
	if !spg.Shared() || !dpg.Shared() {
		t.Fatal("AdoptShared did not make both pages COW sharers")
	}
	if !dpg.borrowed {
		t.Error("AdoptShared dropped the borrowed mark")
	}

	// The first write breaks the share exactly as for an owned page.
	if !dst.BreakCOW(0) {
		t.Error("breaking a real COW share of a borrowed page reported no copy")
	}
	dst.Write(0, 0, []byte("dst"))
	// The survivor is no longer shared but still borrows: its write is
	// an uncharged host-side copy.
	if src.BreakCOW(0) {
		t.Error("the last sharer's copy of borrowed data reported a COW break")
	}
	src.Write(0, 0, []byte("src"))
	if !bytes.Equal(data, want) {
		t.Fatal("a sharer's write reached the borrowed bytes")
	}
	if string(dst.Read(0, 0, 3)) != "dst" || string(src.Read(0, 0, 3)) != "src" {
		t.Error("sharers do not see their own writes")
	}
	src.ReleaseFrames()
	dst.ReleaseFrames()
	if got := pool.InUse(); got != 0 {
		t.Errorf("InUse = %d after both sharers released, want 0", got)
	}
}

func TestReleaseFramesNeverRecyclesBorrowedData(t *testing.T) {
	s, pool := pooledSegment(8)
	data, _ := lender()
	for i := uint64(0); i < 8; i++ {
		s.Borrow(i, data)
	}
	s.ReleaseFrames()
	if st := pool.Stats(); st.Puts != 0 || pool.FreeFrames() != 0 {
		t.Errorf("ReleaseFrames recycled borrowed data: %+v, %d free", st, pool.FreeFrames())
	}
	if got := pool.InUse(); got != 0 {
		t.Errorf("InUse = %d, want 0", got)
	}

	// An AdoptShared over a borrowed page must not recycle it either.
	s2, pool2 := pooledSegment(1)
	s2.Borrow(0, data)
	other := NewSegment("o", DefaultPageSize, DefaultPageSize)
	s2.AdoptShared(0, other.Materialize(0, []byte("x")))
	if st := pool2.Stats(); st.Puts != 0 {
		t.Errorf("AdoptShared recycled a borrowed slice: %+v", st)
	}
	if got := pool2.InUse(); got != 0 {
		t.Errorf("InUse = %d, want 0", got)
	}
}

func TestBorrowOverMaterializedPagePanics(t *testing.T) {
	s, _ := pooledSegment(1)
	s.Materialize(0, []byte("owned"))
	defer func() {
		if recover() == nil {
			t.Error("no panic borrowing over a materialized page")
		}
	}()
	data, _ := lender()
	s.Borrow(0, data)
}

// TestReadPastShortPage: a page whose data is shorter than the page (a
// short slice given to Borrow, or shared through AdoptShared) reads as
// zeros past its data, whatever the offset, as ReadInto already does.
func TestReadPastShortPage(t *testing.T) {
	s, _ := pooledSegment(2)
	short := bytes.Repeat([]byte{0x5A}, 100)
	s.Borrow(0, short)
	sharer := NewSegment("sharer", DefaultPageSize, DefaultPageSize)
	sharer.AdoptShared(0, s.Page(0))
	for _, seg := range []*Segment{s, sharer} {
		if got := seg.Read(0, 200, 50); !bytes.Equal(got, make([]byte, 50)) {
			t.Errorf("%s: read past the data = %x, want zeros", seg.Name, got)
		}
		want := append(bytes.Repeat([]byte{0x5A}, 40), make([]byte, 60)...)
		if got := seg.Read(0, 60, 100); !bytes.Equal(got, want) {
			t.Errorf("%s: read across the end of the data = %x, want %x", seg.Name, got, want)
		}
		into := bytes.Repeat([]byte{0xFF}, 100)
		seg.ReadInto(0, 60, into)
		if !bytes.Equal(into, want) {
			t.Errorf("%s: ReadInto across the end of the data = %x, want %x", seg.Name, into, want)
		}
	}
}
