package experiments

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"accentmig/internal/obs"
)

// exclusiveSink records whether Emit was ever entered while another
// Emit was still running. Sinks are not safe for concurrent use, so an
// engine sharing one across workers must serialize it; the yield inside
// Emit widens the window an unserialized caller would hit.
type exclusiveSink struct {
	busy, overlapped atomic.Bool
}

func (s *exclusiveSink) Emit(obs.Event) {
	if !s.busy.CompareAndSwap(false, true) {
		s.overlapped.Store(true)
		return
	}
	runtime.Gosched()
	s.busy.Store(false)
}

// TestResilienceSerializesSharedSink runs the resilience sweep on two
// workers with one shared sink, which must never see concurrent Emits.
func TestResilienceSerializesSharedSink(t *testing.T) {
	sink := &exclusiveSink{}
	if _, err := NewEngine(2).Resilience(Config{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if sink.overlapped.Load() {
		t.Fatal("two workers emitted into the shared sink concurrently")
	}
}

// TestResilienceDeterministic pins the determinism contract: the full
// resilience experiment — lossy sweeps, crash scenarios, a partition —
// must produce byte-identical output across
// independent engines, whose worker pools interleave trials
// differently. Fault injection is seeded and per-trial, so parallelism
// must not leak into results.
func TestResilienceDeterministic(t *testing.T) {
	render := func(workers int) string {
		t.Helper()
		tab, err := NewEngine(workers).Resilience(Config{})
		if err != nil {
			t.Fatalf("Resilience(workers=%d): %v", workers, err)
		}
		return FormatResilience(tab)
	}
	par := render(0)  // default pool
	seq := render(1)  // strictly sequential
	par2 := render(0) // fresh engine, fresh caches
	if par != seq {
		t.Errorf("parallel and sequential resilience runs differ:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
	if par != par2 {
		t.Error("two parallel resilience runs differ")
	}
}

// TestResilienceTableShape pins the experiment's contract: every sweep
// cell terminates (the whole point of the reliable control plane), the
// zero-drop baseline migrates and completes everywhere, and each crash
// scenario resolves to its policy's documented fate.
func TestResilienceTableShape(t *testing.T) {
	tab, err := Resilience(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Sweep {
		if len(row.Outcomes) == 0 {
			t.Fatalf("sweep row %s/%v has no outcomes", row.Strategy, row.DropProb)
		}
		for _, o := range row.Outcomes {
			if row.DropProb == 0 && (!o.Migrated || !o.Completed) {
				t.Errorf("%s at zero drop: migrated=%v completed=%v",
					row.Strategy, o.Migrated, o.Completed)
			}
			// Liveness: every trial ends in a definite state — either
			// the process ran to completion somewhere, or a typed
			// error explains why not.
			if !o.Completed && o.ExecClass == "" {
				t.Errorf("%s/%v: incomplete with no exec error class", row.Strategy, row.DropProb)
			}
		}
	}
	byName := map[string]*ResilienceRow{}
	for _, sc := range tab.Scenarios {
		byName[sc.Scenario] = sc
	}
	if sc, ok := byName["crash-src@remote/fail"]; !ok {
		t.Error("missing crash/fail scenario")
	} else if sc.Outcomes[0].ExecClass != "backer-lost" {
		t.Errorf("crash/fail exec class = %q, want backer-lost", sc.Outcomes[0].ExecClass)
	}
	if sc, ok := byName["crash-src@remote/zerofill"]; !ok {
		t.Error("missing crash/zerofill scenario")
	} else if o := sc.Outcomes[0]; !o.Completed || o.ZeroFills == 0 {
		t.Errorf("crash/zerofill: completed=%v zerofills=%d, want completion on zero pages",
			o.Completed, o.ZeroFills)
	}
	if sc, ok := byName["crash-src@remote/flush"]; !ok {
		t.Error("missing crash/flush scenario")
	} else if o := sc.Outcomes[0]; !o.Completed || o.ZeroFills != 0 {
		t.Errorf("crash/flush: completed=%v zerofills=%d, want clean completion",
			o.Completed, o.ZeroFills)
	}
	if sc, ok := byName["partition@start"]; !ok {
		t.Error("missing partition scenario")
	} else if o := sc.Outcomes[0]; o.Migrated || !o.Aborted || !o.Completed {
		t.Errorf("partition: migrated=%v aborted=%v completed=%v, want abort + local completion",
			o.Migrated, o.Aborted, o.Completed)
	}
	// The formatted table mentions every scenario by name.
	out := FormatResilience(tab)
	for name := range byName {
		if !strings.Contains(out, name) {
			t.Errorf("formatted table missing scenario %q", name)
		}
	}
}
