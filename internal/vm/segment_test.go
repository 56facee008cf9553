package vm

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestPageIs48Bytes pins the Page layout. Pages live by value in the
// page table's slab, one per materialized page of every trial, so a
// field that widens Page costs every install; the prefetch bit and the
// borrowed mark share a word with the frame link and a 32-bit Version.
func TestPageIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Page{}); n != 48 {
		t.Errorf("Page is %d bytes, want 48", n)
	}
}

func TestMaterializeAndRead(t *testing.T) {
	s := NewSegment("s", 4*512, 512)
	s.Materialize(2, []byte("hello"))
	got := s.Read(2, 0, 5)
	if string(got) != "hello" {
		t.Errorf("Read = %q", got)
	}
	// Remainder of page is zero.
	rest := s.Read(2, 5, 507)
	for _, b := range rest {
		if b != 0 {
			t.Fatal("page tail not zero-filled")
		}
	}
	// Unmaterialized page reads as zeros.
	z := s.Read(0, 0, 16)
	if !bytes.Equal(z, make([]byte, 16)) {
		t.Error("unmaterialized page not zero")
	}
}

func TestMaterializeBeyondSegmentPanics(t *testing.T) {
	s := NewSegment("s", 512, 512)
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range materialize")
		}
	}()
	s.Materialize(1, nil)
}

func TestWriteMarksDirty(t *testing.T) {
	s := NewSegment("s", 512, 512)
	s.MaterializeZero(0)
	s.Write(0, 10, []byte("abc"))
	pg := s.Page(0)
	if !pg.State.Dirty {
		t.Error("write did not mark page dirty")
	}
	if string(s.Read(0, 10, 3)) != "abc" {
		t.Error("write not visible")
	}
}

func TestWriteUnmaterializedPanics(t *testing.T) {
	s := NewSegment("s", 512, 512)
	defer func() {
		if recover() == nil {
			t.Error("no panic writing unmaterialized page")
		}
	}()
	s.Write(0, 0, []byte("x"))
}

func TestRefcountDeath(t *testing.T) {
	s := NewSegment("s", 512, 512)
	died := 0
	s.OnDeath(func() { died++ })
	s.Ref()
	s.Ref()
	s.Unref()
	if died != 0 {
		t.Error("death fired early")
	}
	s.Unref()
	if died != 1 {
		t.Errorf("died = %d, want 1", died)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on over-unref")
		}
	}()
	s.Unref()
}

func TestPagesCount(t *testing.T) {
	s := NewSegment("s", 1000, 512)
	if s.Pages() != 2 {
		t.Errorf("Pages = %d, want 2", s.Pages())
	}
}
