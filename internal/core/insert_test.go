package core

import (
	"strings"
	"testing"

	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// mixedProc builds a process whose AMap interleaves every class: a heap
// with scattered real runs between zero gaps, an imaginary region mapped
// at a segment offset, and a stack whose first real page directly
// follows the imaginary region.
func mixedProc(t *testing.T, m *machine.Machine) *machine.Process {
	t.Helper()
	pr, err := m.NewProcess("mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pr.AS.Validate(0, 32*512, "heap")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{2, 3, 4, 5, 9, 10, 11, 20, 30, 31} {
		heap.Seg.Materialize(i, pattern(i)).State.OnDisk = true
	}
	owed := vm.NewImaginarySegment("owed", 16*512, 512, 77, 1)
	if _, err := pr.AS.MapSegment(40*512, 8*512, owed, 4*512, "owed"); err != nil {
		t.Fatal(err)
	}
	stack, err := pr.AS.Validate(48*512, 8*512, "stack")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{0, 7} {
		stack.Seg.Materialize(i, pattern(100+i)).State.OnDisk = true
	}
	if err := m.MakeResident(pr, []vm.Addr{3 * 512, 10 * 512, 48 * 512}); err != nil {
		t.Fatal(err)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	return pr
}

// TestInsertUnfoldsInAddressOrder: under every strategy, the inserted
// regions tile the source's AMap exactly. Zero and imaginary entries
// come back as one region each with their own bounds, class and segment
// offset, and the collapsed runs of each real entry sit back to back at
// their running offsets in the collapsed segments.
func TestInsertUnfoldsInAddressOrder(t *testing.T) {
	for _, strat := range Strategies() {
		tb := newTestbed(t)
		pr := mixedProc(t, tb.src)
		amap := vm.BuildAMap(pr.AS)
		var got *machine.Process
		var err error
		tb.k.Go("driver", func(p *sim.Proc) {
			var ctx *Context
			if ctx, err = ExciseProcess(p, tb.src, pr, strat, 0, DefaultTuning()); err == nil {
				got, _, err = InsertProcess(p, tb.dst, ctx.Core, ctx.RIMAS, DefaultTuning())
			}
		})
		tb.k.Run()
		tb.k.Close()
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}

		regions := got.AS.Regions()
		offs := map[*vm.Segment]uint64{} // running offset per collapsed segment
		ri := 0
		for _, e := range amap.Entries {
			if e.Access != vm.RealMem {
				if ri == len(regions) {
					t.Fatalf("%v: no region for %v entry [%#x,%#x)", strat, e.Access, e.Start, e.End)
				}
				r := regions[ri]
				ri++
				wantClass, wantOff := vm.RealSeg, uint64(0)
				if e.Access == vm.ImagMem {
					wantClass, wantOff = vm.ImagSeg, 4*512
				}
				if r.Start != e.Start || r.End != e.End || r.Seg.Class != wantClass || r.SegOff != wantOff {
					t.Errorf("%v: %v entry [%#x,%#x) unfolded as %v [%#x,%#x)+%d",
						strat, e.Access, e.Start, e.End, r.Seg.Class, r.Start, r.End, r.SegOff)
				}
				continue
			}
			for at := e.Start; at < e.End; {
				if ri == len(regions) {
					t.Fatalf("%v: real entry [%#x,%#x) uncovered from %#x", strat, e.Start, e.End, at)
				}
				r := regions[ri]
				ri++
				if r.Start != at || r.End > e.End || r.Seg.Class != vm.RealSeg || !strings.Contains(r.Seg.Name, "collapsed") {
					t.Fatalf("%v: real entry [%#x,%#x) at %#x unfolded as %q [%#x,%#x)",
						strat, e.Start, e.End, at, r.Seg.Name, r.Start, r.End)
				}
				if r.SegOff != offs[r.Seg] {
					t.Errorf("%v: run at %#x maps collapsed offset %d, want %d", strat, r.Start, r.SegOff, offs[r.Seg])
				}
				offs[r.Seg] += r.Size()
				at = r.End
			}
		}
		if ri != len(regions) {
			t.Errorf("%v: %d regions beyond the AMap", strat, len(regions)-ri)
		}
		for _, a := range []vm.Addr{2 * 512, 31 * 512} {
			pl, _ := got.AS.Resolve(a)
			if data := pl.Seg.Read(pl.PageIdx, 0, 512); string(data) != string(pattern(uint64(a/512))) {
				t.Errorf("%v: page %#x arrived with the wrong contents", strat, a)
			}
		}
	}
}
