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
	s.BreakCOW(0)
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
// short slice given to Borrow) reads as zeros past its data, whatever
// the offset.
func TestReadPastShortPage(t *testing.T) {
	s, _ := pooledSegment(2)
	short := bytes.Repeat([]byte{0x5A}, 100)
	s.Borrow(0, short)
	if got := s.Read(0, 200, 50); !bytes.Equal(got, make([]byte, 50)) {
		t.Errorf("read past the data = %x, want zeros", got)
	}
	want := append(bytes.Repeat([]byte{0x5A}, 40), make([]byte, 60)...)
	if got := s.Read(0, 60, 100); !bytes.Equal(got, want) {
		t.Errorf("read across the end of the data = %x, want %x", got, want)
	}
}
