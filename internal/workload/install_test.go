package workload_test

import (
	"sync"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/faults"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/workload"
)

// requireFillRowsIntact fails the test if any shared page image changed.
func requireFillRowsIntact(t *testing.T, after string) {
	t.Helper()
	if row, ok := workload.FillRowsIntact(); !ok {
		t.Fatalf("fill row %d no longer matches its formula after %s", row, after)
	}
}

// TestAllocsBuildDrawsNoFrames: an install borrows every real page, so
// it draws no frame from the machine's pool, and excising the process
// leaves none in use.
func TestAllocsBuildDrawsNoFrames(t *testing.T) {
	for _, k := range workload.Kinds() {
		m := machine.New(sim.New(), "host", machine.Config{})
		b, err := workload.Build(m, k)
		if err != nil {
			t.Fatal(err)
		}
		if gets := m.Pool.Stats().Gets; gets != 0 {
			t.Errorf("%v: Build drew %d pool frames, want 0", k, gets)
		}
		m.K.Go("excise", func(p *sim.Proc) {
			_, err = core.ExciseProcess(p, m, b.Proc, core.PureCopy, 0, core.DefaultTuning())
		})
		m.K.Run()
		m.K.Close()
		if err != nil {
			t.Fatalf("%v: excise: %v", k, err)
		}
		if n := m.Pool.InUse(); n != 0 {
			t.Errorf("%v: %d pool frames in use after excision, want 0", k, n)
		}
	}
}

// TestBorrowedRowsSurviveTrials drives installed processes through every
// path that owns page data — a migration under each strategy, a
// rollback after a partitioned migration aborts, and a direct write —
// and then checks that no shared page image changed.
func TestBorrowedRowsSurviveTrials(t *testing.T) {
	for _, s := range core.Strategies() {
		if _, err := experiments.RunTrial(experiments.Config{}, workload.PMEnd, s, 1); err != nil {
			t.Fatalf("%v trial: %v", s, err)
		}
		requireFillRowsIntact(t, s.String()+" trial")
	}

	cfg := experiments.Config{
		Faults: &faults.Plan{Seed: 1, Partitions: []faults.Window{
			{Start: 0, End: faults.Duration(60 * time.Second)},
		}},
		Recovery: &experiments.ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: 2 * time.Second},
	}
	out, err := experiments.RunResilienceTrial(cfg, workload.LispDel, core.PureIOU)
	if err != nil {
		t.Fatal(err)
	}
	if out.Migrated || !out.Aborted || !out.Completed {
		t.Fatalf("partition@start: migrated=%v aborted=%v completed=%v, want a rollback that completes at the source",
			out.Migrated, out.Aborted, out.Completed)
	}
	requireFillRowsIntact(t, "a rolled-back trial")

	m := machine.New(sim.New(), "host", machine.Config{})
	b, err := workload.Build(m, workload.Chess)
	if err != nil {
		t.Fatal(err)
	}
	addr := b.RealAddrs[0]
	m.K.Go("writer", func(p *sim.Proc) {
		err = m.Pager.Write(p, b.Proc.AS, addr, []byte{0xde, 0xad, 0xbe, 0xef})
	})
	m.K.Run()
	m.K.Close()
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := b.Proc.AS.Resolve(addr)
	if got := pl.Seg.Read(pl.PageIdx, 0, 4); string(got) != "\xde\xad\xbe\xef" {
		t.Errorf("written page reads %x", got)
	}
	requireFillRowsIntact(t, "Pager.Write")
}

// TestConcurrentTrialsShareTemplate runs Lisp-Del trials from one
// template on four goroutines at once; under -race it checks that the
// shared template and page images are only ever read.
func TestConcurrentTrialsShareTemplate(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]*experiments.TrialResult, 4)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = experiments.RunTrial(experiments.Config{}, workload.LispDel, core.PureIOU, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	for i, r := range results[1:] {
		if r.EndToEnd != results[0].EndToEnd || r.BytesTotal != results[0].BytesTotal {
			t.Errorf("trial %d: end-to-end %v, %d bytes; trial 0: %v, %d bytes",
				i+1, r.EndToEnd, r.BytesTotal, results[0].EndToEnd, results[0].BytesTotal)
		}
	}
	requireFillRowsIntact(t, "concurrent trials")
}
