package vm

import "testing"

// The zero-alloc gates below pin the memory data plane's steady state:
// once a process is warm, servicing resident references, re-filling
// pages, and rebuilding AMaps must not touch the heap at all. These run
// in short mode too, so every `go test` catches an allocation regression
// the moment it lands.

// warmSpace builds a space with n materialized resident pages at VA 0,
// backed by a pooled segment.
func warmSpace(t testing.TB, n int) (*AddressSpace, *Region, *PhysMem) {
	t.Helper()
	pool := NewFramePool(DefaultPageSize)
	as := MustNewAddressSpace(Config{Pool: pool})
	reg, err := as.Validate(0, uint64(n)*uint64(as.PageSize()), "data")
	if err != nil {
		t.Fatal(err)
	}
	phys := NewPhysMem(n + 16)
	for i := 0; i < n; i++ {
		pg := reg.Seg.Materialize(uint64(i), []byte{byte(i)})
		pg.State.Resident = true
		phys.Insert(reg.Seg, uint64(i))
	}
	return as, reg, phys
}

func TestAllocsResidentFaultResolution(t *testing.T) {
	as, _, phys := warmSpace(t, 64)
	ps := Addr(as.PageSize())
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		addr := Addr(i%64) * ps
		pl, ok := as.Resolve(addr)
		if !ok {
			t.Fatal("resolve failed")
		}
		pg := pl.Seg.Page(pl.PageIdx)
		if pg == nil || !pg.State.Resident {
			t.Fatal("page not resident")
		}
		phys.Touch(pg)
		i++
	})
	if allocs != 0 {
		t.Errorf("resident reference allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsRematerializeExistingPage(t *testing.T) {
	_, reg, _ := warmSpace(t, 8)
	data := []byte("fresh contents")
	allocs := testing.AllocsPerRun(200, func() {
		reg.Seg.Materialize(3, data)
	})
	if allocs != 0 {
		t.Errorf("re-materialize allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsEvictReinsertSteadyState(t *testing.T) {
	// Over-committed physical memory: every Insert evicts the LRU page.
	// The evicted-set scratch buffer must absorb the churn allocation-
	// free once warm.
	pool := NewFramePool(DefaultPageSize)
	as := MustNewAddressSpace(Config{Pool: pool})
	const pages = 32
	reg, err := as.Validate(0, pages*DefaultPageSize, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		reg.Seg.Materialize(i, []byte{byte(i)})
	}
	phys := NewPhysMem(8)
	for i := uint64(0); i < pages; i++ { // warm the free list and scratch
		for _, ev := range phys.Insert(reg.Seg, i) {
			ev.Seg.Page(ev.Index).State.Resident = false
		}
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		for _, ev := range phys.Insert(reg.Seg, i%pages) {
			ev.Seg.Page(ev.Index).State.Resident = false
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("evicting insert allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsPoolRecycleCycle(t *testing.T) {
	pool := NewFramePool(DefaultPageSize)
	f := pool.Get()
	pool.Put(f)
	allocs := testing.AllocsPerRun(200, func() {
		pool.Put(pool.Get())
	})
	if allocs != 0 {
		t.Errorf("pool Get/Put cycle allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsAMapRebuildUnchanged(t *testing.T) {
	as, _, _ := warmSpace(t, 64)
	m := BuildAMap(as)
	entries := len(m.Entries)
	allocs := testing.AllocsPerRun(100, func() {
		m.Rebuild(as)
	})
	if allocs != 0 {
		t.Errorf("AMap rebuild allocates %.1f objects/op, want 0", allocs)
	}
	if len(m.Entries) != entries {
		t.Errorf("rebuild changed entry count: %d -> %d", entries, len(m.Entries))
	}
}

func TestAllocsDedupOff(t *testing.T) {
	// With the content-addressed store disabled, a machine carries a nil
	// ContentIndex and every dedup-aware call site degrades to a nil
	// check: the warm materialize/touch path must stay allocation-free
	// with those calls present, proving hashing and indexing are off the
	// hot path rather than merely cheap.
	as, reg, phys := warmSpace(t, 64)
	ps := Addr(as.PageSize())
	var ix *ContentIndex // the disabled store
	data := []byte("refill")
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		addr := Addr(i%64) * ps
		pl, ok := as.Resolve(addr)
		if !ok {
			t.Fatal("resolve failed")
		}
		phys.Touch(pl.Seg.Page(pl.PageIdx))
		pg := reg.Seg.Materialize(uint64(i%64), data)
		ix.Put(42, pg.Data)
		if _, hit := ix.Lookup(42); hit {
			t.Fatal("disabled index hit")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("disabled-store hot path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsSegmentReadMissingPage(t *testing.T) {
	seg := NewSegment("sparse", 16*DefaultPageSize, DefaultPageSize)
	allocs := testing.AllocsPerRun(200, func() {
		if b := seg.Read(5, 0, 64); b[0] != 0 {
			t.Fatal("zero read returned nonzero")
		}
	})
	if allocs != 0 {
		t.Errorf("missing-page read allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsIntegrityOff(t *testing.T) {
	// With per-page checksums off, RIMAS attachments carry no Sums and
	// the destination's install loop reduces to a slice-length check:
	// the warm install path must stay allocation-free with the guard
	// present, proving verification is off the hot path rather than
	// merely cheap.
	_, reg, phys := warmSpace(t, 64)
	var sums []uint64 // integrity disabled: no checksums travelled
	data := []byte("refill")
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		idx := uint64(i % 64)
		pg := reg.Seg.Materialize(idx, data)
		if int(idx) < len(sums) {
			if h, _ := HashPage(pg.Data, DefaultPageSize); h != sums[idx] {
				t.Fatal("checksum mismatch")
			}
		}
		phys.Touch(pg)
		i++
	})
	if allocs != 0 {
		t.Errorf("integrity-off install path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsLedgerOff(t *testing.T) {
	// With resumable retries off, a machine carries a nil DeliveryLedger
	// and every transport call site degrades to a nil check: crediting
	// and lookup on the warm transfer path must not touch the heap.
	var led *DeliveryLedger // resume disabled
	_, reg, phys := warmSpace(t, 64)
	data := []byte("in flight")
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		idx := uint64(i % 64)
		pg := reg.Seg.Materialize(idx, data)
		phys.Touch(pg)
		led.Credit("proc", 42, pg.Data)
		if led.Lookup("proc", 42, DefaultPageSize) != nil {
			t.Fatal("disabled ledger hit")
		}
		if led.Pages("proc") != 0 {
			t.Fatal("disabled ledger holds pages")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("ledger-off transfer path allocates %.1f objects/op, want 0", allocs)
	}
}
