package vm

import "testing"

func TestPhysInsertAndTouch(t *testing.T) {
	pm := NewPhysMem(2)
	s := NewSegment("s", 4*512, 512)
	for i := uint64(0); i < 2; i++ {
		s.MaterializeZero(i)
		if ev := pm.Insert(s, i); ev != nil {
			t.Errorf("unexpected eviction: %+v", ev)
		}
	}
	if pm.Len() != 2 {
		t.Errorf("Len = %d", pm.Len())
	}
	if !pm.Resident(s, 0) || !pm.Resident(s, 1) {
		t.Error("pages not resident")
	}
	if !s.Page(0).State.Resident {
		t.Error("page state not marked resident")
	}
	if pm.Touch(s.MaterializeZero(3)) {
		t.Error("Touch of a non-resident page returned true")
	}
}

func TestPhysLRUEviction(t *testing.T) {
	pm := NewPhysMem(2)
	s := NewSegment("s", 4*512, 512)
	for i := uint64(0); i < 3; i++ {
		s.MaterializeZero(i)
	}
	pm.Insert(s, 0)
	pm.Insert(s, 1)
	pm.Touch(s.Page(0)) // 1 becomes LRU
	ev := pm.Insert(s, 2)
	if len(ev) != 1 || ev[0].Index != 1 {
		t.Fatalf("evicted %+v, want page 1", ev)
	}
	if pm.Resident(s, 1) {
		t.Error("evicted page still resident in physmem")
	}
	pg := s.Page(1)
	if pg.State.Resident || !pg.State.OnDisk {
		t.Errorf("evicted page state = %+v, want on-disk non-resident", pg.State)
	}
}

func TestPhysEvictionReportsDirty(t *testing.T) {
	pm := NewPhysMem(1)
	s := NewSegment("s", 2*512, 512)
	s.MaterializeZero(0)
	s.MaterializeZero(1)
	pm.Insert(s, 0)
	s.Write(0, 0, []byte("dirty"))
	ev := pm.Insert(s, 1)
	if len(ev) != 1 || !ev[0].WasDirty {
		t.Errorf("eviction = %+v, want dirty page 0", ev)
	}
	if s.Page(0).State.Dirty {
		t.Error("dirty bit not cleared after write-back transition")
	}
}

func TestPhysReinsertIsTouch(t *testing.T) {
	pm := NewPhysMem(2)
	s := NewSegment("s", 3*512, 512)
	for i := uint64(0); i < 3; i++ {
		s.MaterializeZero(i)
	}
	pm.Insert(s, 0)
	pm.Insert(s, 1)
	pm.Insert(s, 0) // refresh 0; 1 is LRU now
	ev := pm.Insert(s, 2)
	if len(ev) != 1 || ev[0].Index != 1 {
		t.Errorf("evicted %+v, want page 1", ev)
	}
}

func TestPhysRemoveSegment(t *testing.T) {
	pm := NewPhysMem(4)
	a := NewSegment("a", 2*512, 512)
	b := NewSegment("b", 2*512, 512)
	for i := uint64(0); i < 2; i++ {
		a.MaterializeZero(i)
		b.MaterializeZero(i)
		pm.Insert(a, i)
		pm.Insert(b, i)
	}
	pm.RemoveSegment(a)
	if pm.Len() != 2 {
		t.Errorf("Len = %d after RemoveSegment, want 2", pm.Len())
	}
	if pm.Resident(a, 0) || a.Page(0).State.Resident {
		t.Error("segment a pages still resident")
	}
	if !pm.Resident(b, 1) {
		t.Error("segment b pages lost")
	}
}

func TestPhysResidentPagesOrder(t *testing.T) {
	pm := NewPhysMem(3)
	s := NewSegment("s", 3*512, 512)
	for i := uint64(0); i < 3; i++ {
		s.MaterializeZero(i)
		pm.Insert(s, i)
	}
	pm.Touch(s.Page(0))
	rp := pm.ResidentPages()
	if len(rp) != 3 || rp[0].Index != 0 || rp[1].Index != 2 || rp[2].Index != 1 {
		t.Errorf("ResidentPages order = %+v", rp)
	}
}

func TestPhysInsertUnmaterializedPanics(t *testing.T) {
	pm := NewPhysMem(1)
	s := NewSegment("s", 512, 512)
	defer func() {
		if recover() == nil {
			t.Error("no panic inserting unmaterialized page")
		}
	}()
	pm.Insert(s, 0)
}

func TestPhysCapacityInvariant(t *testing.T) {
	pm := NewPhysMem(5)
	s := NewSegment("s", 100*512, 512)
	for i := uint64(0); i < 100; i++ {
		s.MaterializeZero(i)
		pm.Insert(s, i)
		if pm.Len() > pm.Capacity() {
			t.Fatalf("Len %d exceeds capacity %d", pm.Len(), pm.Capacity())
		}
	}
	if pm.Len() != 5 {
		t.Errorf("final Len = %d", pm.Len())
	}
}
