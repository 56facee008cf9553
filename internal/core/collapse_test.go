package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// refAtt is what the reference collapse expects of one attachment:
// its fields (Runs aside) and, for a collapsed one, the page images in
// collapse order, each zero-padded to a full page, with the source
// page's image as the collapse found it.
type refAtt struct {
	att    ipc.MemAttachment
	images [][]byte
	srcs   [][]byte
}

// referenceCollapse is the straightforward collapse ExciseProcess must
// match: it walks the AMap page by page, appending a zero-padded copy
// of each page image to its collapsed attachment, and returns what
// ExciseProcess ships for pr under strat. It only reads the address
// space, so it can run just before the excision it checks.
func referenceCollapse(t *testing.T, pr *machine.Process, strat Strategy) (atts []refAtt, runs []CollapsedRun, real, resident int) {
	as := pr.AS
	ps := uint64(as.PageSize())
	lazy := &refAtt{att: ipc.MemAttachment{Kind: ipc.AttachData, Collapsed: true}}
	res := &refAtt{att: ipc.MemAttachment{Kind: ipc.AttachData, Collapsed: true, Resident: true, Copy: true}}
	appendPage := func(dst *refAtt, data []byte) {
		img := make([]byte, ps)
		copy(img, data)
		dst.images = append(dst.images, img)
		dst.srcs = append(dst.srcs, data)
		dst.att.Size += ps
	}
	var imagAtts []refAtt
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
			imagAtts = append(imagAtts, refAtt{att: *att})
		}
	}
	for _, a := range []*refAtt{res, lazy} {
		if len(a.images) > 0 {
			atts = append(atts, *a)
		}
	}
	atts = append(atts, imagAtts...)
	if strat != ResidentSet {
		runs = nil
	}
	return atts, runs, real, resident
}

// checkCollapse excises pr from m under strat and compares the RIMAS
// message with the reference collapse taken just before: the same
// attachments, and in each collapsed one the same page images in the
// same order, zero-padded, one page-size run per page. A full-size
// image must travel by reference — the run aliases the source page's
// image — and a short or missing one as a padded copy.
func checkCollapse(t *testing.T, k *sim.Kernel, m *machine.Machine, pr *machine.Process, strat Strategy) {
	t.Helper()
	want, wantRuns, wantReal, wantRes := referenceCollapse(t, pr, strat)
	ps := pr.AS.PageSize()
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
	got := ctx.RIMAS.Mem
	if len(got) != len(want) {
		t.Fatalf("%d attachments, want %d:\n got %s", len(got), len(want), describeAtts(got))
	}
	for i, a := range got {
		w := want[i]
		meta := *a
		meta.Runs = nil
		if !reflect.DeepEqual(meta, w.att) {
			t.Errorf("attachment %d: got %s, want %s", i, describeAtts([]*ipc.MemAttachment{a}), describeAtts([]*ipc.MemAttachment{&w.att}))
		}
		if len(a.Runs) != len(w.images) {
			t.Errorf("attachment %d: %d runs, want one for each of %d pages", i, len(a.Runs), len(w.images))
			continue
		}
		for j, run := range a.Runs {
			switch {
			case run.Index != uint64(j) || run.Count != 1:
				t.Errorf("attachment %d run %d: {index %d, count %d}, want {%d, 1}", i, j, run.Index, run.Count, j)
			case len(run.Data) != ps || cap(run.Data) != ps:
				t.Errorf("attachment %d page %d: len %d cap %d, want a capped page of %d", i, j, len(run.Data), cap(run.Data), ps)
			case !bytes.Equal(run.Data, w.images[j]):
				t.Errorf("attachment %d page %d: image differs from the zero-padded source", i, j)
			case len(w.srcs[j]) == ps && &run.Data[0] != &w.srcs[j][0]:
				t.Errorf("attachment %d page %d: full-size image copied instead of shared", i, j)
			case len(w.srcs[j]) > 0 && len(w.srcs[j]) < ps && &run.Data[0] == &w.srcs[j][0]:
				t.Errorf("attachment %d page %d: short image shared instead of padded", i, j)
			}
		}
	}
	if got := ctx.RIMAS.Body.(*RIMASBody).Runs; !reflect.DeepEqual(got, wantRuns) {
		t.Errorf("run table: got %d runs %v, want %d runs %v", len(got), got, len(wantRuns), wantRuns)
	}
	if ctx.RealPages != wantReal || ctx.ResidentPages != wantRes {
		t.Errorf("RealPages/ResidentPages = %d/%d, want %d/%d", ctx.RealPages, ctx.ResidentPages, wantReal, wantRes)
	}
	// The dead process's frames leave the pool with a context that
	// carries them and return to it when a pre-copied context does not.
	if st := m.Pool.Stats(); strat == PreCopied && st.Disowned != 0 || strat != PreCopied && st.Puts != 0 {
		t.Errorf("%v excise: %d frames recycled, %d disowned", strat, st.Puts, st.Disowned)
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

// TestCollapseMatchesReference: the by-reference collapse ships the
// same attachments, page images, run table and page counts as the
// copying reference for every paper workload under every strategy that
// collapses RealMem, and shares every full-size image instead of
// copying it.
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
// attachment, as a copy of its own.
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
