package experiments

import (
	"slices"
	"sync"
	"testing"

	"accentmig/internal/core"
	"accentmig/internal/imag"
	"accentmig/internal/workload"
)

// trialIDs runs one pure-IOU Minprog trial on a fresh testbed and lists
// the ids it numbered: the managers' and backers' ports, the migrated
// process's port rights and the segments the source's backer owes it.
func trialIDs() ([]uint64, error) {
	cfg := Config{}
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, workload.Minprog)
	if err != nil {
		return nil, err
	}
	m := tb.migrate(cfg, built.Proc, core.Options{Strategy: core.PureIOU})
	if err := m.remoteErr(built.Proc.Name); err != nil {
		return nil, err
	}
	ids := []uint64{uint64(tb.SrcMgr.Port.ID), uint64(tb.DstMgr.Port.ID),
		uint64(tb.Src.Net.BackingPort()), uint64(tb.Dst.Net.BackingPort())}
	pr, _ := tb.Dst.Process(built.Proc.Name)
	for _, p := range pr.Ports {
		ids = append(ids, uint64(p.ID))
	}
	var segs []uint64
	tb.Src.Net.Store().Each(func(g *imag.StoreSegment) { segs = append(segs, g.ID) })
	slices.Sort(segs)
	return append(ids, segs...), nil
}

// TestTrialsNumberAlike: a trial's kernel numbers its ports and backer
// segments, so the same trial hands out the same ids when run again in
// one process and when two run at once on two workers.
func TestTrialsNumberAlike(t *testing.T) {
	want, err := trialIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 6 {
		t.Fatalf("ids = %v, want port rights and a backer segment beside the four service ports", want)
	}
	runs := make([][]uint64, 3)
	errs := make([]error, len(runs))
	runs[0], errs[0] = trialIDs()
	var wg sync.WaitGroup
	for i := 1; i < len(runs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = trialIDs()
		}()
	}
	wg.Wait()
	for i, got := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(got, want) {
			t.Errorf("run %d numbered %v, want %v", i, got, want)
		}
	}
}
