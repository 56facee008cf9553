package core

import (
	"fmt"
	"reflect"
	"testing"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// referenceCollapse is the straightforward collapse the exact-size one
// must match: it walks the AMap page by page, appending each page image
// (zero-padded to a full page) onto the tail of its collapsed
// attachment, and returns what ExciseProcess ships for pr under strat.
// It only reads the address space, so it can run just before the
// excision it checks.
func referenceCollapse(t *testing.T, pr *machine.Process, strat Strategy) (atts []*ipc.MemAttachment, runs []CollapsedRun, real, resident int) {
	as := pr.AS
	ps := uint64(as.PageSize())
	lazy := &ipc.MemAttachment{Kind: ipc.AttachData, Collapsed: true}
	res := &ipc.MemAttachment{Kind: ipc.AttachData, Collapsed: true, Resident: true, Copy: true}
	appendPage := func(dst *ipc.MemAttachment, data []byte) {
		if len(dst.Runs) == 0 {
			dst.Runs = append(dst.Runs, vm.PageRun{Index: 0})
		}
		run := &dst.Runs[0]
		run.Data = append(run.Data, data...)
		run.Data = append(run.Data, make([]byte, uint64(run.Count+1)*ps-uint64(len(run.Data)))...)
		run.Count++
		dst.Size += ps
	}
	var imagAtts []*ipc.MemAttachment
	for _, e := range vm.BuildAMap(as).Entries {
		switch e.Access {
		case vm.RealMem:
			first := len(runs)
			for a := e.Start; a < e.End; a += vm.Addr(ps) {
				pl, ok := as.Resolve(a)
				if !ok {
					continue
				}
				pg := pl.Seg.Page(pl.PageIdx)
				if pg == nil {
					continue
				}
				real++
				if pg.State.Resident {
					resident++
				}
				markRes := strat == ResidentSet && pg.State.Resident
				if n := len(runs); n > first && runs[n-1].Resident == markRes &&
					a == runs[n-1].VA+vm.Addr(uint64(runs[n-1].Pages)*ps) {
					runs[n-1].Pages++
				} else {
					runs = append(runs, CollapsedRun{VA: a, Pages: 1, Resident: markRes})
				}
				switch {
				case strat == PreCopied:
				case markRes:
					appendPage(res, pg.Data)
				default:
					appendPage(lazy, pg.Data)
				}
			}
		case vm.ImagMem:
			att, err := collapseImagRun(as, e)
			if err != nil {
				t.Fatal(err)
			}
			imagAtts = append(imagAtts, att)
		}
	}
	for _, a := range []*ipc.MemAttachment{res, lazy} {
		if a.PageCount() > 0 {
			atts = append(atts, a)
		}
	}
	atts = append(atts, imagAtts...)
	if strat != ResidentSet {
		runs = nil
	}
	return atts, runs, real, resident
}

// checkCollapse excises pr from m under strat and compares the RIMAS
// message with the reference collapse taken just before.
func checkCollapse(t *testing.T, k *sim.Kernel, m *machine.Machine, pr *machine.Process, strat Strategy) {
	t.Helper()
	wantAtts, wantRuns, wantReal, wantRes := referenceCollapse(t, pr, strat)
	var ctx *Context
	var err error
	k.Go("excise", func(p *sim.Proc) {
		ctx, err = ExciseProcess(p, m, pr, strat, 0, DefaultTuning())
	})
	k.Run()
	k.Close()
	if err != nil {
		t.Fatalf("ExciseProcess: %v", err)
	}
	if !reflect.DeepEqual(ctx.RIMAS.Mem, wantAtts) {
		t.Errorf("attachments differ from the reference collapse:\n got %s\nwant %s", describeAtts(ctx.RIMAS.Mem), describeAtts(wantAtts))
	}
	if got := ctx.RIMAS.Body.(*RIMASBody).Runs; !reflect.DeepEqual(got, wantRuns) {
		t.Errorf("run table: got %d runs %v, want %d runs %v", len(got), got, len(wantRuns), wantRuns)
	}
	if ctx.RealPages != wantReal || ctx.ResidentPages != wantRes {
		t.Errorf("RealPages/ResidentPages = %d/%d, want %d/%d", ctx.RealPages, ctx.ResidentPages, wantReal, wantRes)
	}
	for i, a := range ctx.RIMAS.Mem {
		for _, run := range a.Runs {
			if a.Collapsed && cap(run.Data) != len(run.Data) {
				t.Errorf("attachment %d: collapsed run has len %d but cap %d", i, len(run.Data), cap(run.Data))
			}
		}
	}
}

// describeAtts summarizes attachments for a failure message without
// dumping page images.
func describeAtts(atts []*ipc.MemAttachment) string {
	s := ""
	for _, a := range atts {
		s += fmt.Sprintf("{kind %d size %d collapsed %v resident %v copy %v pages %d bytes %d} ",
			a.Kind, a.Size, a.Collapsed, a.Resident, a.Copy, a.PageCount(), a.DataBytes())
	}
	return s
}

var collapseStrategies = []Strategy{PureCopy, PureIOU, ResidentSet, PreCopied}

// TestCollapseMatchesReference: the exact-size collapse ships the same
// attachments, run table and page counts as the per-page reference for
// every paper workload under every strategy that collapses RealMem.
func TestCollapseMatchesReference(t *testing.T) {
	for _, kind := range workload.Kinds() {
		for _, strat := range collapseStrategies {
			t.Run(fmt.Sprintf("%v/%v", kind, strat), func(t *testing.T) {
				k := sim.New()
				m := machine.New(k, "src", machine.Config{})
				b, err := workload.Build(m, kind)
				if err != nil {
					t.Fatal(err)
				}
				checkCollapse(t, k, m, b.Proc, strat)
			})
		}
	}
}

// TestCollapsePadsShortAndMissingImages: a page whose image is short or
// absent still occupies a full, zero-padded page of its collapsed
// attachment.
func TestCollapsePadsShortAndMissingImages(t *testing.T) {
	damage := map[string]func(pg *vm.Page){
		"short":    func(pg *vm.Page) { pg.Data = pg.Data[:100] },
		"nil-data": func(pg *vm.Page) { pg.Data = nil },
	}
	for name, hurt := range damage {
		for _, strat := range collapseStrategies {
			t.Run(fmt.Sprintf("%s/%v", name, strat), func(t *testing.T) {
				tb := newTestbed(t)
				pr := tb.makeProc(t, "job", 12, 5, 0)
				// Damage the last page; with five of twelve resident the
				// resident-set split puts it in the lazy attachment.
				pl, _ := pr.AS.Resolve(11 * 512)
				hurt(pl.Seg.Page(pl.PageIdx))
				// And one resident page, for the resident attachment.
				pl, _ = pr.AS.Resolve(4 * 512)
				hurt(pl.Seg.Page(pl.PageIdx))
				checkCollapse(t, tb.k, tb.src, pr, strat)
			})
		}
	}
}
