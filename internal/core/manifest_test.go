package core

import (
	"testing"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// newDedupTestbed is newTestbed with the content-addressed store
// enabled on both machines (plus optional compression).
func newDedupTestbed(t *testing.T, compress bool) *testbed {
	t.Helper()
	k := sim.New()
	cfg := machine.Config{Dedup: vm.DedupConfig{Enabled: true, Compress: compress}}
	src := machine.New(k, "src", cfg)
	dst := machine.New(k, "dst", cfg)
	link := machine.Connect(src, dst, netlink.Config{})
	srcM := NewManager(src, DefaultTuning())
	dstM := NewManager(dst, DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")
	return &testbed{k: k, src: src, dst: dst, srcM: srcM, dstM: dstM, link: link}
}

// dupProc builds a process whose pages cycle through `distinct`
// patterns — pages i and i+distinct are byte-identical.
func dupProc(t *testing.T, m *machine.Machine, name string, pages, distinct int) *machine.Process {
	t.Helper()
	pr, err := m.NewProcess(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, uint64(pages)*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		pg := reg.Seg.Materialize(uint64(i), pattern(uint64(i%distinct)))
		pg.State.OnDisk = true
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	return pr
}

// checkPages verifies every page of the migrated process against the
// cycling pattern.
func checkPages(t *testing.T, tb *testbed, name string, pages, distinct int) {
	t.Helper()
	npr, ok := tb.dst.Process(name)
	if !ok {
		t.Fatal("process missing on destination")
	}
	tb.k.Go("checker", func(p *sim.Proc) {
		for i := 0; i < pages; i++ {
			got, err := tb.dst.Pager.Read(p, npr.AS, vm.Addr(i*512), 512)
			if err != nil {
				t.Errorf("read page %d: %v", i, err)
				return
			}
			want := pattern(uint64(i % distinct))
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("page %d corrupt at byte %d", i, j)
					return
				}
			}
		}
	})
	tb.k.Run()
}

// TestManifestElidesIntraMessageDuplicates: under pure-copy with the
// store on, only one copy of each distinct page ships; the rest are
// rebuilt at the destination as twins, byte-for-byte intact.
func TestManifestElidesIntraMessageDuplicates(t *testing.T) {
	tb := newDedupTestbed(t, false)
	pr := dupProc(t, tb.src, "job", 32, 4)
	tb.src.Start(pr)
	rep := tb.migrate(t, "job", Options{Strategy: PureCopy, HoldAtDest: true})
	if rep.Insert.ElidedPages != 32-4 {
		t.Errorf("ElidedPages = %d, want %d", rep.Insert.ElidedPages, 32-4)
	}
	if rep.Insert.ArrivedPages != 4 {
		t.Errorf("ArrivedPages = %d, want 4", rep.Insert.ArrivedPages)
	}
	checkPages(t, tb, "job", 32, 4)
}

// TestManifestElidesPriorVisitPages: a second migration carrying the
// same contents the destination has already indexed ships nothing —
// every page is a verified local hit.
func TestManifestElidesPriorVisitPages(t *testing.T) {
	tb := newDedupTestbed(t, false)
	first := dupProc(t, tb.src, "first", 8, 8)
	tb.src.Start(first)
	tb.migrate(t, "first", Options{Strategy: PureCopy, HoldAtDest: true})

	second := dupProc(t, tb.src, "second", 8, 8)
	tb.src.Start(second)
	rep := tb.migrate(t, "second", Options{Strategy: PureCopy, HoldAtDest: true})
	if rep.Insert.ElidedPages != 8 {
		t.Errorf("ElidedPages = %d, want 8 (all local hits)", rep.Insert.ElidedPages)
	}
	if rep.Insert.ArrivedPages != 0 {
		t.Errorf("ArrivedPages = %d, want 0", rep.Insert.ArrivedPages)
	}
	checkPages(t, tb, "second", 8, 8)
}

// TestManifestElidesZeroPages: materialized all-zero pages never ship.
func TestManifestElidesZeroPages(t *testing.T) {
	tb := newDedupTestbed(t, false)
	pr, err := tb.src.NewProcess("job", 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, 8*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 512)
	for i := uint64(0); i < 8; i++ {
		data := zero
		if i%2 == 0 {
			data = pattern(i)
		}
		pg := reg.Seg.Materialize(i, data)
		pg.State.OnDisk = true
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	tb.src.Start(pr)
	rep := tb.migrate(t, "job", Options{Strategy: PureCopy, HoldAtDest: true})
	if rep.Insert.ElidedPages != 4 {
		t.Errorf("ElidedPages = %d, want 4 (the zero pages)", rep.Insert.ElidedPages)
	}
	npr, _ := tb.dst.Process("job")
	tb.k.Go("checker", func(p *sim.Proc) {
		got, err := tb.dst.Pager.Read(p, npr.AS, 512, 512)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		for j, b := range got {
			if b != 0 {
				t.Errorf("zero page dirty at byte %d", j)
				return
			}
		}
	})
	tb.k.Run()
}

// TestManifestHintsServeFaultsLocally: under the resident-set strategy
// the lazy half rides IOUs with hash hints; faults on pages whose
// content already arrived with the resident set are served from the
// local index — no round trip to the backer.
func TestManifestHintsServeFaultsLocally(t *testing.T) {
	tb := newDedupTestbed(t, false)
	pr := dupProc(t, tb.src, "job", 16, 4)
	var res []vm.Addr
	for i := 0; i < 4; i++ {
		res = append(res, vm.Addr(i*512))
	}
	if err := tb.src.MakeResident(pr, res); err != nil {
		t.Fatal(err)
	}
	// Touch every page after landing: the 12 lazy ones are all
	// duplicates of the 4 resident pages that shipped.
	ops := []trace.Op{trace.MigratePoint{}}
	for i := 0; i < 16; i++ {
		ops = append(ops, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	pr.Program = &trace.Program{Ops: ops}
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: ResidentSet})

	npr, _ := tb.dst.Process("job")
	var doneErr error
	tb.k.Go("wait", func(p *sim.Proc) { doneErr = npr.WaitDone(p) })
	tb.k.Run()
	if doneErr != nil {
		t.Fatal(doneErr)
	}
	st := tb.dst.Pager.Stats()
	if st.LocalServes == 0 {
		t.Errorf("no faults served from the local content index (imag faults: %d)", st.ImagFaults)
	}
	checkPages(t, tb, "job", 16, 4)
}

// TestManifestCompressionShrinksTransfer: the same migration with the
// modeled compressor on finishes its RIMAS transfer faster — pattern
// pages are stride-predictable, so they compress well.
func TestManifestCompressionShrinksTransfer(t *testing.T) {
	run := func(compress bool) time.Duration {
		tb := newDedupTestbed(t, compress)
		pr := dupProc(t, tb.src, "job", 64, 64)
		tb.src.Start(pr)
		rep := tb.migrate(t, "job", Options{Strategy: PureCopy, HoldAtDest: true})
		return rep.RIMASTransfer
	}
	plain := run(false)
	compressed := run(true)
	if compressed >= plain {
		t.Errorf("RIMAS transfer %v with compression, %v without — expected a win", compressed, plain)
	}
}

// TestManifestDisabledIsInert: with the store off (the default config)
// no manifest is exchanged and reports carry no elisions.
func TestManifestDisabledIsInert(t *testing.T) {
	tb := newTestbed(t)
	pr := dupProc(t, tb.src, "job", 16, 2)
	tb.src.Start(pr)
	rep := tb.migrate(t, "job", Options{Strategy: PureCopy, HoldAtDest: true})
	if rep.Insert.ElidedPages != 0 {
		t.Errorf("ElidedPages = %d with store disabled", rep.Insert.ElidedPages)
	}
	if rep.Insert.ArrivedPages != 16 {
		t.Errorf("ArrivedPages = %d, want 16", rep.Insert.ArrivedPages)
	}
	checkPages(t, tb, "job", 16, 2)
}

// TestManifestRollbackSurvivesElision: a migration that fails after
// the manifest exchange must roll back with the full page set — the
// elided attachments alias, never mutate, the originals.
func TestManifestRollbackSurvivesElision(t *testing.T) {
	tb := newDedupTestbed(t, false)
	pr := dupProc(t, tb.src, "job", 16, 2)
	// Touch every page after the failed migration resumes locally.
	ops := []trace.Op{trace.MigratePoint{}}
	for i := 0; i < 16; i++ {
		ops = append(ops, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	pr.Program = &trace.Program{Ops: ops}
	tb.src.Start(pr)

	// Kill the destination manager port the moment the manifest has
	// been classified: the attachments are already elided when the
	// RIMAS transfer then dies.
	tb.k.Go("saboteur", func(p *sim.Proc) {
		for len(tb.dstM.recipes) == 0 {
			p.Sleep(10 * time.Millisecond)
		}
		tb.dst.IPC.RemovePort(tb.dstM.Port)
	})
	var migErr, doneErr error
	tb.k.Go("driver", func(p *sim.Proc) {
		_, migErr = tb.srcM.MigrateTo(p, "job", tb.dstM.Port.ID, Options{
			Strategy: PureCopy, AckTimeout: 5 * time.Second,
		})
		if migErr == nil {
			return
		}
		npr, ok := tb.src.Process("job")
		if !ok {
			t.Error("process missing at source after abort")
			return
		}
		doneErr = npr.WaitDone(p)
		// The rolled-back memory must be the full original set, not the
		// elided remnant the failed attempt had on the wire.
		for i := 0; i < 16; i++ {
			got, err := tb.src.Pager.Read(p, npr.AS, vm.Addr(i*512), 512)
			if err != nil {
				t.Errorf("read page %d after rollback: %v", i, err)
				return
			}
			want := pattern(uint64(i % 2))
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("page %d corrupt after rollback at byte %d", i, j)
					return
				}
			}
		}
	})
	tb.k.RunUntil(10 * time.Minute)
	if migErr == nil {
		t.Fatal("migration to a dead manager succeeded")
	}
	if doneErr != nil {
		t.Fatalf("post-rollback execution: %v", doneErr)
	}
}

// TestDenseFromZero: the manifest describes an attachment only when its
// runs number its pages densely from zero, however they are split.
func TestDenseFromZero(t *testing.T) {
	run := func(idx uint64, n int) vm.PageRun { return vm.PageRun{Index: idx, Count: n, Data: make([]byte, n*512)} }
	for _, c := range []struct {
		runs []vm.PageRun
		want bool
	}{
		{[]vm.PageRun{run(0, 3)}, true},
		{[]vm.PageRun{run(0, 1), run(1, 1), run(2, 1)}, true},
		{[]vm.PageRun{run(0, 2), run(2, 1)}, true},
		{[]vm.PageRun{run(1, 2)}, false},
		{[]vm.PageRun{run(0, 1), run(2, 1)}, false},
		{[]vm.PageRun{run(0, 2), run(1, 1)}, false},
		{nil, false},
	} {
		if got := denseFromZero(&ipc.MemAttachment{Kind: ipc.AttachData, Runs: c.runs}); got != c.want {
			t.Errorf("runs %v: denseFromZero = %v, want %v", c.runs, got, c.want)
		}
	}
}
