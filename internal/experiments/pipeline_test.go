package experiments

import (
	"reflect"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/workload"
)

// TestWindowOneIsStopAndWait pins the tentpole's compatibility
// contract: an explicit Window=1 must be indistinguishable from the
// default config — same transfer times, same wire bytes, same fault
// profile — because W<=1 takes the original stop-and-wait code path.
func TestWindowOneIsStopAndWait(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Minprog, workload.LispDel} {
		for _, strat := range []core.Strategy{core.PureCopy, core.ResidentSet, core.PureIOU} {
			def, err := RunTrial(Config{}, kind, strat, 3)
			if err != nil {
				t.Fatalf("default trial %v/%v: %v", kind, strat, err)
			}
			cfg := Config{}
			cfg.Machine.Net.Window = 1
			w1, err := RunTrial(cfg, kind, strat, 3)
			if err != nil {
				t.Fatalf("W=1 trial %v/%v: %v", kind, strat, err)
			}
			if !reflect.DeepEqual(def, w1) {
				t.Errorf("%v/%v: W=1 trial differs from default stop-and-wait trial", kind, strat)
			}
		}
	}
}

// TestWindowedTransferSpeedup pins the headline acceptance number: a
// W=16 send window must cut the pure-copy RIMAS transfer of a
// Lisp-sized migration to well under half the stop-and-wait time.
func TestWindowedTransferSpeedup(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Minprog, workload.LispDel} {
		base, err := RunTrial(Config{}, kind, core.PureCopy, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{}
		cfg.Machine.Net.Window = 16
		win, err := RunTrial(cfg, kind, core.PureCopy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if win.Report.RIMASTransfer > base.Report.RIMASTransfer*6/10 {
			t.Errorf("%v: W=16 transfer %v, want <= 60%% of stop-and-wait %v",
				kind, win.Report.RIMASTransfer, base.Report.RIMASTransfer)
		}
	}
}

// TestWindowedPartitionAborts drives a migration over a dead link with
// the pipelined transport enabled: a partition in the middle of a send
// window must still resolve into a clean abort with rollback to the
// source, exactly like the stop-and-wait recovery path.
func TestWindowedPartitionAborts(t *testing.T) {
	cfg := Config{Recovery: &ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: 2 * time.Second}}
	cfg.Machine.Net.Window = 16
	cfg.Faults = &faults.Plan{Seed: 1, Partitions: []faults.Window{
		{Start: 0, End: faults.Duration(60 * time.Second)},
	}}
	o, err := RunResilienceTrial(cfg, workload.Minprog, core.PureIOU)
	if err != nil {
		t.Fatal(err)
	}
	if o.Migrated || !o.Aborted || !o.Completed {
		t.Errorf("partition under W=16: migrated=%v aborted=%v completed=%v, want abort + local completion",
			o.Migrated, o.Aborted, o.Completed)
	}
}

// TestStreamingCutsFaultStalls pins the windowed IOU acceptance
// criterion: with K=4 outstanding fetches the mean remote fault stall
// of a pure-IOU Lisp migration must drop well below the serial
// baseline, and the split-reply machinery must actually be exercised
// (streamed pages arrive, some faults park on in-flight pages).
func TestStreamingCutsFaultStalls(t *testing.T) {
	base := Config{}
	base.Machine.Net.Window = 16
	b, err := RunTrial(base, workload.LispDel, core.PureIOU, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Machine.Pager.Outstanding = 4
	s, err := RunTrial(cfg, workload.LispDel, core.PureIOU, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.RemoteFaultMean > b.RemoteFaultMean*3/4 {
		t.Errorf("K=4 fault mean %v, want <= 75%% of K=1 mean %v", s.RemoteFaultMean, b.RemoteFaultMean)
	}
	if s.DestPager.StreamedPages == 0 {
		t.Error("K=4 trial delivered no streamed prefetch replies")
	}
	if s.DestPager.StreamWaits == 0 {
		t.Error("K=4 trial parked no faults on in-flight streamed pages")
	}
	if s.DestPager.PrefetchHits < b.DestPager.PrefetchHits {
		t.Errorf("K=4 prefetch hits %d < K=1 hits %d: streaming lost prefetch coverage",
			s.DestPager.PrefetchHits, b.DestPager.PrefetchHits)
	}
}
