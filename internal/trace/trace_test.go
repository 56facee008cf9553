package trace

import (
	"testing"
	"time"

	"accentmig/internal/vm"
)

func TestMigrateIndex(t *testing.T) {
	pr := &Program{Ops: []Op{Compute{time.Second}, MigratePoint{}, Touch{Addr: 0}}}
	if got := pr.MigrateIndex(); got != 1 {
		t.Errorf("MigrateIndex = %d, want 1", got)
	}
	none := &Program{Ops: []Op{Compute{time.Second}}}
	if got := none.MigrateIndex(); got != -1 {
		t.Errorf("MigrateIndex = %d, want -1", got)
	}
}

func TestSeqScanTouches(t *testing.T) {
	pr := &Program{Ops: []Op{SeqScan{Start: 0x1000, Bytes: 4 * 512}}}
	got := pr.Touches(0, 512)
	if len(got) != 4 {
		t.Fatalf("touches = %d, want 4", len(got))
	}
	for i, a := range got {
		if a != vm.Addr(0x1000+i*512) {
			t.Errorf("touch %d = %#x", i, a)
		}
	}
}

func TestSeqScanCustomStride(t *testing.T) {
	pr := &Program{Ops: []Op{SeqScan{Start: 0, Bytes: 2048, Stride: 1024}}}
	if got := pr.Touches(0, 512); len(got) != 2 {
		t.Errorf("touches = %d, want 2", len(got))
	}
}

func TestWSLoopTouches(t *testing.T) {
	pr := &Program{Ops: []Op{WSLoop{Start: 0, Pages: 3, Iters: 2}}}
	got := pr.Touches(0, 512)
	if len(got) != 6 {
		t.Fatalf("touches = %d, want 6", len(got))
	}
	if pr.UniquePages(0, 512) != 3 {
		t.Errorf("UniquePages = %d, want 3", pr.UniquePages(0, 512))
	}
}

func TestTouchesFromIndex(t *testing.T) {
	pr := &Program{Ops: []Op{
		Touch{Addr: 0},
		MigratePoint{},
		Touch{Addr: 512},
	}}
	post := pr.Touches(pr.MigrateIndex()+1, 512)
	if len(post) != 1 || post[0] != 512 {
		t.Errorf("post-migration touches = %v", post)
	}
}

func TestUniquePagesCollapsesOffsets(t *testing.T) {
	pr := &Program{Ops: []Op{Touch{Addr: 0}, Touch{Addr: 100}, Touch{Addr: 511}}}
	if got := pr.UniquePages(0, 512); got != 1 {
		t.Errorf("UniquePages = %d, want 1", got)
	}
}
