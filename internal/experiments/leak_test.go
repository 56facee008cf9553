package experiments

import (
	"runtime"
	"testing"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/workload"
)

// TestFinishedTrialsLeaveNothingBehind runs grid and resilience trials
// (one under a crash plan) and a small shard-stress run, then checks
// that every kernel was reaped: no proc goroutine stays parked, and the
// live heap holds the results, not the testbeds behind them.
func TestFinishedTrialsLeaveNothingBehind(t *testing.T) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	goBefore, heapBefore := runtime.NumGoroutine(), ms.HeapAlloc

	e := NewEngine(1)
	for _, s := range []core.Strategy{core.PureCopy, core.PureIOU, core.ResidentSet} {
		if _, err := e.Trial(Config{}, workload.LispDel, s, 0); err != nil {
			t.Fatal(err)
		}
	}
	crash := Config{Faults: &faults.Plan{Seed: 1, Crashes: []faults.Crash{{
		Machine: "src", AtPhase: "remote", Policy: faults.CrashFlush,
	}}}}
	for _, cfg := range []Config{{}, crash} {
		cfg.Recovery = &ResilienceOptions{MaxRetries: 1}
		if _, err := e.ResilienceTrial(cfg, resilienceKind, core.PureIOU); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := RunShardStress(ssTestOpts); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	// A little slack: a reaped proc's goroutine may still be returning
	// from its final hand-off when the count is read.
	if n := runtime.NumGoroutine(); n > goBefore+2 {
		t.Errorf("%d goroutines after the trials, %d before: finished kernels left procs parked", n, goBefore)
	}
	const maxGrowth = 8 << 20
	if grown := int64(ms.HeapAlloc) - int64(heapBefore); grown > maxGrowth {
		t.Errorf("live heap grew %d KB over the trials, want at most %d KB", grown>>10, maxGrowth>>10)
	}
}
