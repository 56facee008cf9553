package prof_test

import (
	"math"
	"testing"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/prof"
	"accentmig/internal/workload"
)

// TestProfSmoke is the CI profiler gate: one traced
// Lisp-Del migration must reconstruct into a connected critical path
// with positive downtime and blame fractions that sum to exactly 1.
func TestProfSmoke(t *testing.T) {
	tr, sink, err := experiments.TraceTrial(experiments.Config{}, workload.LispDel, core.PureIOU, 0)
	if err != nil {
		t.Fatalf("TraceTrial: %v", err)
	}
	pf, err := prof.Build(sink.Events())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	if !pf.Connected() {
		t.Errorf("critical path not connected: %d/%d phases, %d unmatched faults",
			len(pf.Phases), len(prof.MigrationPhases), pf.UnmatchedFaults)
	}
	if pf.Downtime <= 0 {
		t.Errorf("downtime = %v, want > 0", pf.Downtime)
	}
	if !pf.Resumed {
		t.Errorf("profiler saw no destination resume")
	}
	if pf.Downtime != tr.Downtime {
		t.Errorf("profiler downtime %v != recorder downtime %v", pf.Downtime, tr.Downtime)
	}

	var sum float64
	for _, c := range prof.Classes() {
		f := pf.Blame.Fraction(c)
		if f < 0 || f > 1 {
			t.Errorf("blame fraction %s = %v out of range", c, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("blame fractions sum to %v, want 1", sum)
	}
	if pf.Blame.Total() != pf.Total() {
		t.Errorf("blame partition %v != migration interval %v", pf.Blame.Total(), pf.Total())
	}

	// The migration must have exercised real resources: some CPU blame
	// on both ends.
	if pf.Blame[prof.SrcCPU] <= 0 || pf.Blame[prof.DstCPU] <= 0 {
		t.Errorf("expected CPU blame on both machines, got src=%v dst=%v",
			pf.Blame[prof.SrcCPU], pf.Blame[prof.DstCPU])
	}
}
