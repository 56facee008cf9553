package pager

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"accentmig/internal/disk"
	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

type rig struct {
	k    *sim.Kernel
	cpu  *sim.Resource
	sys  *ipc.System
	dsk  *disk.Disk
	phys *vm.PhysMem
	pg   *Pager
	as   *vm.AddressSpace
}

// newRigQuick builds a rig without a testing.T, for property tests.
func newRigQuick(frames int) *rig {
	k := sim.New()
	cpu := sim.NewResource(k, "cpu", 1)
	sys := ipc.NewSystem(k, "m0", cpu, vm.DefaultPageSize, ipc.Config{})
	dsk := disk.New(k, "d0", disk.Config{})
	phys := vm.NewPhysMem(frames)
	pg := New(k, "m0", cpu, phys, dsk, sys, Config{})
	as := vm.MustNewAddressSpace(vm.Config{})
	return &rig{k: k, cpu: cpu, sys: sys, dsk: dsk, phys: phys, pg: pg, as: as}
}

func newRig(t *testing.T, frames int) *rig {
	t.Helper()
	k := sim.New()
	cpu := sim.NewResource(k, "cpu", 1)
	sys := ipc.NewSystem(k, "m0", cpu, vm.DefaultPageSize, ipc.Config{})
	dsk := disk.New(k, "d0", disk.Config{})
	phys := vm.NewPhysMem(frames)
	pg := New(k, "m0", cpu, phys, dsk, sys, Config{})
	as := vm.MustNewAddressSpace(vm.Config{})
	return &rig{k: k, cpu: cpu, sys: sys, dsk: dsk, phys: phys, pg: pg, as: as}
}

// startBacker runs a store-based backer on a fresh port and returns the
// port. dropFirst makes it ignore its first request, to exercise retry.
func (r *rig) startBacker(store *imag.Store, dropFirst bool) *ipc.Port {
	port := r.sys.AllocPort("backer")
	r.k.Go("backer", func(p *sim.Proc) {
		dropped := false
		for {
			m := r.sys.Receive(p, port)
			if m.Op != imag.OpReadRequest {
				continue
			}
			if dropFirst && !dropped {
				dropped = true
				continue
			}
			req := m.Body.(*imag.ReadRequest)
			seg, ok := store.Segment(req.SegID)
			if !ok {
				continue
			}
			rep := seg.Serve(req)
			if rep == nil {
				continue
			}
			r.sys.Send(p, &ipc.Message{
				Op:           imag.OpReadReply,
				To:           m.ReplyTo,
				Body:         rep,
				BodyBytes:    rep.Bytes(),
				FaultSupport: true,
			})
		}
	})
	return port
}

func TestFillZeroFault(t *testing.T) {
	r := newRig(t, 16)
	reg, _ := r.as.Validate(0, 4*512, "data")
	var elapsed time.Duration
	r.k.Go("u", func(p *sim.Proc) {
		if err := r.pg.Touch(p, r.as, 100, false); err != nil {
			t.Errorf("Touch: %v", err)
		}
		elapsed = p.Now()
	})
	r.k.Run()
	if elapsed != 3*time.Millisecond {
		t.Errorf("FillZero took %v, want 3ms", elapsed)
	}
	if r.pg.Stats().FillZero != 1 {
		t.Errorf("FillZero count = %d", r.pg.Stats().FillZero)
	}
	if r.dsk.Reads() != 0 {
		t.Error("FillZero consulted the disk")
	}
	if !reg.Seg.Page(0).State.Resident {
		t.Error("page not resident after FillZero")
	}
}

func TestResidentTouchIsFree(t *testing.T) {
	r := newRig(t, 16)
	r.as.Validate(0, 512, "d")
	var first, second time.Duration
	r.k.Go("u", func(p *sim.Proc) {
		r.pg.Touch(p, r.as, 0, false)
		first = p.Now()
		r.pg.Touch(p, r.as, 0, false)
		second = p.Now()
	})
	r.k.Run()
	if second != first {
		t.Errorf("resident touch consumed time: %v", second-first)
	}
}

func TestDiskFaultNear40ms(t *testing.T) {
	r := newRig(t, 16)
	reg, _ := r.as.Validate(0, 512, "d")
	pg0 := reg.Seg.MaterializeZero(0)
	pg0.State.OnDisk = true
	var elapsed time.Duration
	r.k.Go("u", func(p *sim.Proc) {
		r.pg.Touch(p, r.as, 0, false)
		elapsed = p.Now()
	})
	r.k.Run()
	// Paper's local page access: ≈40.8 ms.
	if elapsed < 30*time.Millisecond || elapsed > 50*time.Millisecond {
		t.Errorf("disk fault took %v, want ≈40ms", elapsed)
	}
	if r.pg.Stats().DiskFaults != 1 {
		t.Errorf("DiskFaults = %d", r.pg.Stats().DiskFaults)
	}
}

func TestBadMemTouch(t *testing.T) {
	r := newRig(t, 16)
	var err error
	r.k.Go("u", func(p *sim.Proc) {
		err = r.pg.Touch(p, r.as, 0xdeadbeef, false)
	})
	r.k.Run()
	if !errors.Is(err, ErrAddressError) {
		t.Errorf("err = %v, want ErrAddressError", err)
	}
}

func TestImaginaryFaultFetchesData(t *testing.T) {
	r := newRig(t, 16)
	store := imag.NewStore()
	port := r.startBacker(store, false)
	iseg := vm.NewImaginarySegment("owed", 8*512, 512, uint64(port.ID))
	sseg := store.AddSegment(iseg.ID, 8*512, 512)
	want := []byte("remote page content")
	page := make([]byte, 512)
	copy(page, want)
	sseg.Put(2, page)
	r.as.MapSegment(0, 8*512, iseg, 0, "owed")

	var got []byte
	r.k.Go("u", func(p *sim.Proc) {
		var err error
		got, err = r.pg.Read(p, r.as, 2*512, len(want))
		if err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	r.k.Run()
	if string(got) != string(want) {
		t.Errorf("fetched %q, want %q", got, want)
	}
	if r.pg.Stats().ImagFaults != 1 {
		t.Errorf("ImagFaults = %d", r.pg.Stats().ImagFaults)
	}
	// Second touch is now local.
	var again time.Duration
	r.k.Go("u2", func(p *sim.Proc) {
		start := p.Now()
		r.pg.Touch(p, r.as, 2*512, false)
		again = p.Now() - start
	})
	r.k.Run()
	if again != 0 {
		t.Errorf("refetched a fetched page (took %v)", again)
	}
}

func TestPrefetchDeliveryAndHits(t *testing.T) {
	r := newRig(t, 64)
	store := imag.NewStore()
	port := r.startBacker(store, false)
	iseg := vm.NewImaginarySegment("owed", 16*512, 512, uint64(port.ID))
	sseg := store.AddSegment(iseg.ID, 16*512, 512)
	for i := uint64(0); i < 16; i++ {
		sseg.Put(i, make([]byte, 512))
	}
	r.as.MapSegment(0, 16*512, iseg, 0, "owed")
	r.pg.SetPrefetch(3)

	r.k.Go("u", func(p *sim.Proc) {
		r.pg.Touch(p, r.as, 0, false)     // demand 0, prefetch 1,2,3
		r.pg.Touch(p, r.as, 512, false)   // hit on prefetched 1
		r.pg.Touch(p, r.as, 2*512, false) // hit on prefetched 2
		r.pg.Touch(p, r.as, 8*512, false) // new fault; prefetch 9,10,11
	})
	r.k.Run()
	st := r.pg.Stats()
	if st.ImagFaults != 2 {
		t.Errorf("ImagFaults = %d, want 2", st.ImagFaults)
	}
	if st.PrefetchedPages != 6 {
		t.Errorf("PrefetchedPages = %d, want 6", st.PrefetchedPages)
	}
	if st.PrefetchHits != 2 {
		t.Errorf("PrefetchHits = %d, want 2", st.PrefetchHits)
	}
	if got := st.HitRatio(); got < 0.32 || got > 0.34 {
		t.Errorf("HitRatio = %.3f, want 1/3", got)
	}
}

// TestPrefetchHitCountsOnce checks the page's prefetch bit as the
// hit-ratio accounting reads it: a prefetched page counts one hit on
// its first touch, read or write, and none on any later touch. A
// duplicate delivery of its image through Segment.Receive, as a repair
// or a bulk flush makes, neither re-arms the bit after the hit nor
// clears it before.
func TestPrefetchHitCountsOnce(t *testing.T) {
	r := newRig(t, 64)
	store := imag.NewStore()
	port := r.startBacker(store, false)
	iseg := vm.NewImaginarySegment("owed", 16*512, 512, uint64(port.ID))
	sseg := store.AddSegment(iseg.ID, 16*512, 512)
	for i := uint64(0); i < 16; i++ {
		sseg.Put(i, make([]byte, 512))
	}
	r.as.MapSegment(0, 16*512, iseg, 0, "owed")
	r.pg.SetPrefetch(3)

	hits := func(step string, want uint64) {
		t.Helper()
		if got := r.pg.Stats().PrefetchHits; got != want {
			t.Errorf("after %s: PrefetchHits = %d, want %d", step, got, want)
		}
	}
	r.k.Go("u", func(p *sim.Proc) {
		r.pg.Touch(p, r.as, 0, false) // demand 0, prefetch 1,2,3
		hits("the demand fault", 0)
		iseg.Receive(1, make([]byte, 512)) // before page 1's first touch
		r.pg.Touch(p, r.as, 512, false)
		hits("page 1's first touch", 1)
		iseg.Receive(1, make([]byte, 512)) // re-borrows the still borrowed page
		r.pg.Touch(p, r.as, 512, true)
		hits("a write after a duplicate delivery to the borrowed page", 1)
		iseg.Receive(1, make([]byte, 512)) // copies into the now owned page
		r.pg.Touch(p, r.as, 512, false)
		hits("a touch after a duplicate delivery to the owned page", 1)
		r.pg.Touch(p, r.as, 2*512, true)
		hits("page 2's first touch, a write", 2)
		r.pg.Touch(p, r.as, 2*512, false)
		r.pg.Touch(p, r.as, 0, false)
		hits("touches of page 2 and the demand page", 2)
	})
	r.k.Run()
	st := r.pg.Stats()
	if st.PrefetchedPages != 3 {
		t.Errorf("PrefetchedPages = %d, want 3", st.PrefetchedPages)
	}
	for idx, want := range []bool{false, false, false, true} {
		if got := iseg.Page(uint64(idx)).Prefetched; got != want {
			t.Errorf("page %d Prefetched = %v, want %v", idx, got, want)
		}
	}
}

func TestWriteMarksDirtyAndPageoutOnEviction(t *testing.T) {
	r := newRig(t, 2)
	r.as.Validate(0, 8*512, "d")
	r.k.Go("u", func(p *sim.Proc) {
		if err := r.pg.Write(p, r.as, 0, []byte("dirty")); err != nil {
			t.Errorf("Write: %v", err)
		}
		// Fill memory so page 0 is evicted.
		r.pg.Touch(p, r.as, 512, false)
		r.pg.Touch(p, r.as, 2*512, false)
	})
	r.k.Run()
	if r.dsk.Writes() != 1 {
		t.Errorf("disk writes = %d, want 1 (dirty write-back)", r.dsk.Writes())
	}
	// Evicted page faults back from disk.
	var st Stats
	r.k.Go("u2", func(p *sim.Proc) {
		r.pg.Touch(p, r.as, 0, false)
		st = r.pg.Stats()
	})
	r.k.Run()
	if st.DiskFaults != 1 {
		t.Errorf("DiskFaults = %d, want 1", st.DiskFaults)
	}
}

func TestWriteAcrossPageBoundaryRejected(t *testing.T) {
	r := newRig(t, 4)
	r.as.Validate(0, 2*512, "d")
	var err error
	r.k.Go("u", func(p *sim.Proc) {
		err = r.pg.Write(p, r.as, 510, []byte("toolong"))
	})
	r.k.Run()
	if err == nil {
		t.Error("page-crossing write accepted")
	}
}

func TestRetryAfterLostRequest(t *testing.T) {
	r := newRig(t, 16)
	r.pg.cfg.RetryTimeout = 500 * time.Millisecond
	store := imag.NewStore()
	port := r.startBacker(store, true) // drops first request
	iseg := vm.NewImaginarySegment("owed", 512, 512, uint64(port.ID))
	sseg := store.AddSegment(iseg.ID, 512, 512)
	sseg.Put(0, make([]byte, 512))
	r.as.MapSegment(0, 512, iseg, 0, "owed")
	var err error
	r.k.Go("u", func(p *sim.Proc) {
		err = r.pg.Touch(p, r.as, 0, false)
	})
	r.k.Run()
	if err != nil {
		t.Fatalf("Touch failed despite retry: %v", err)
	}
	if r.pg.Stats().Retries != 1 {
		t.Errorf("Retries = %d, want 1", r.pg.Stats().Retries)
	}
}

func TestBackerLostAfterMaxRetries(t *testing.T) {
	r := newRig(t, 16)
	r.pg.cfg.RetryTimeout = 100 * time.Millisecond
	r.pg.cfg.MaxRetries = 2
	// A port with no server behind it: requests pile up unanswered.
	port := r.sys.AllocPort("deaf")
	iseg := vm.NewImaginarySegment("owed", 512, 512, uint64(port.ID))
	r.as.MapSegment(0, 512, iseg, 0, "owed")
	var err error
	r.k.Go("u", func(p *sim.Proc) {
		err = r.pg.Touch(p, r.as, 0, false)
	})
	r.k.Run()
	if !errors.Is(err, ErrBackerLost) {
		t.Errorf("err = %v, want ErrBackerLost", err)
	}
}

// Property: after an arbitrary sequence of touches on a validated
// region, every touched page is materialized, the resident count never
// exceeds physical memory, and written content survives faulting.
func TestQuickTouchSequenceInvariants(t *testing.T) {
	f := func(ops []struct {
		Page  uint8
		Write bool
	}) bool {
		r := newRigQuick(4) // tiny memory to force eviction traffic
		reg, err := r.as.Validate(0, 32*512, "d")
		if err != nil {
			return false
		}
		okAll := true
		r.k.Go("u", func(p *sim.Proc) {
			written := map[uint64]byte{}
			for i, op := range ops {
				pgIdx := uint64(op.Page % 32)
				addr := vm.Addr(pgIdx * 512)
				if op.Write {
					b := byte(i)
					if err := r.pg.Write(p, r.as, addr, []byte{b}); err != nil {
						okAll = false
						return
					}
					written[pgIdx] = b
				} else {
					got, err := r.pg.Read(p, r.as, addr, 1)
					if err != nil {
						okAll = false
						return
					}
					want := byte(0)
					if b, ok := written[pgIdx]; ok {
						want = b
					}
					if got[0] != want {
						okAll = false
						return
					}
				}
				if r.phys.Len() > r.phys.Capacity() {
					okAll = false
					return
				}
				if reg.Seg.Page(pgIdx) == nil {
					okAll = false
					return
				}
			}
		})
		r.k.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLocalHitIsAPrivateCopy: the content index aliases live frames, so
// a fault served from it installs a private copy, and the frame's page
// writing afterwards leaves the served page as it was.
func TestLocalHitIsAPrivateCopy(t *testing.T) {
	r := newRig(t, 16)
	content := []byte("indexed content")
	live := vm.NewSegment("live", 512, 512)
	h, _ := vm.HashPage(live.Materialize(0, content).Data, 512)
	ix := vm.NewContentIndex(512)
	ix.Put(h, live.Page(0).Data)
	r.pg.SetContentIndex(ix)
	owed := vm.NewImaginarySegment("owed", 512, 512, 99)
	if _, err := r.as.MapSegment(0x4000, 512, owed, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	r.pg.RegisterHints(owed.ID, 0, []uint64{h})
	r.k.Go("faulter", func(p *sim.Proc) {
		if err := r.pg.Touch(p, r.as, 0x4000, false); err != nil {
			t.Errorf("Touch: %v", err)
		}
	})
	r.k.Run()
	if r.pg.Stats().LocalServes != 1 {
		t.Fatalf("pager stats %+v: the fault was not served locally", r.pg.Stats())
	}
	live.Write(0, 0, []byte("overwritten"))
	if got := owed.Read(0, 0, len(content)); string(got) != string(content) {
		t.Errorf("a write to the indexed frame reached the served page: %q", got)
	}
}

// TestHintsMatchPerPageMap drives RegisterHints and dropHint with
// random registrations and drops over a few segments, and checks every
// lookup against the per-page map the runs replaced: a registration
// sets each page it names with a non-zero hash, and a drop deletes the
// page's entry. Each segment always registers the same run, zero
// hashes included, as an absorbed attachment does.
func TestHintsMatchPerPageMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type run struct {
		first  uint64
		hashes []uint64
	}
	runs := make([]run, 4)
	for seg := range runs {
		r := &runs[seg]
		r.first = uint64(rng.Intn(20))
		r.hashes = make([]uint64, rng.Intn(30))
		for i := range r.hashes {
			if rng.Intn(3) > 0 {
				r.hashes[i] = uint64(1 + rng.Intn(5))
			}
		}
	}
	pg := &Pager{}
	ref := map[pageKey]uint64{}
	for step := 0; step < 2000; step++ {
		seg, idx := rng.Intn(len(runs)), uint64(rng.Intn(60))
		if rng.Intn(5) == 0 {
			r := runs[seg]
			for i, h := range r.hashes {
				if h != vm.ZeroHash {
					ref[pageKey{uint64(seg), r.first + uint64(i)}] = h
				}
			}
			pg.RegisterHints(uint64(seg), r.first, append([]uint64(nil), r.hashes...))
		} else {
			pg.dropHint(uint64(seg), idx)
			delete(ref, pageKey{uint64(seg), idx})
		}
		for s := range runs {
			for i := uint64(0); i < 60; i++ {
				want, hinted := ref[pageKey{uint64(s), i}]
				if got, ok := pg.hint(uint64(s), i); ok != hinted || got != want {
					t.Fatalf("step %d: hint %d/%d = %d, %v; want %d, %v", step, s, i, got, ok, want, hinted)
				}
			}
		}
	}
}
