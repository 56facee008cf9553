package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/obs"
	"accentmig/internal/workload"
)

// TestTraceTrialPhaseAgreement is the observability acceptance check:
// the flight recorder is the one record of a migration's phases, so
// under every strategy each traced PhaseBegin/PhaseEnd span must equal
// the core.Report duration it stands for, and each phase is traced
// once.
func TestTraceTrialPhaseAgreement(t *testing.T) {
	for _, strat := range core.Strategies() {
		tr, sink, err := TraceTrial(Config{}, workload.LispDel, strat, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := tr.Report
		want := map[string]time.Duration{
			"excise":     rep.Excise.Overall,
			"xfer.core":  rep.CoreTransfer,
			"xfer.rimas": rep.RIMASTransfer,
			"insert":     rep.Insert.Overall,
		}
		begun := map[string]time.Duration{}
		got := map[string]time.Duration{}
		for _, ev := range sink.Events() {
			switch ev.Kind {
			case obs.PhaseBegin:
				begun[ev.Name] = ev.T
			case obs.PhaseEnd:
				start, ok := begun[ev.Name]
				if !ok {
					t.Errorf("%v: phase %q ends without a begin", strat, ev.Name)
				}
				if _, twice := got[ev.Name]; twice {
					t.Errorf("%v: phase %q traced twice", strat, ev.Name)
				}
				got[ev.Name] = ev.T - start
			}
		}
		for name, d := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("%v: phase %q not traced", strat, name)
			} else if g != d {
				t.Errorf("%v: phase %q traced %v, report says %v", strat, name, g, d)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%v: traced phases %v, want exactly %d", strat, got, len(want))
		}
	}
}

// TestTraceTrialKindCoverage checks a lazy-migration trace spans the
// whole stack: ipc (MsgSend/MsgRecv), pager (FaultStart/FaultResolved/
// PageTransfer), and core (PhaseBegin/StateChange) — at least five
// distinct event kinds overall.
func TestTraceTrialKindCoverage(t *testing.T) {
	_, sink, err := TraceTrial(Config{}, workload.LispDel, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := sink.CountKinds()
	distinct := 0
	for _, n := range counts {
		if n > 0 {
			distinct++
		}
	}
	if distinct < 5 {
		t.Errorf("only %d distinct event kinds in trace: %v", distinct, counts)
	}
	layers := map[string][]obs.Kind{
		"ipc":   {obs.MsgSend, obs.MsgRecv},
		"pager": {obs.FaultStart, obs.FaultResolved, obs.PageTransfer},
		"core":  {obs.PhaseBegin, obs.StateChange},
	}
	for layer, kinds := range layers {
		found := false
		for _, k := range kinds {
			if counts[k] > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no events from the %s layer in trace: %v", layer, counts)
		}
	}
}

// TestTraceTrialEventOrdering: virtual timestamps must be
// non-decreasing in emission order, and sequence numbers strictly
// increasing — the determinism contract trace consumers rely on.
func TestTraceTrialEventOrdering(t *testing.T) {
	_, sink, err := TraceTrial(Config{}, workload.Minprog, core.ResidentSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	evs := sink.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event %d: seq %d not increasing after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestTraceTrialQuantiles: a pure-IOU Lisp-Del trial faults hundreds of
// pages across the network, so the fault-latency quantiles must be
// populated and ordered.
func TestTraceTrialQuantiles(t *testing.T) {
	tr, _, err := TraceTrial(Config{}, workload.LispDel, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FaultP50 <= 0 || tr.FaultP95 <= 0 || tr.FaultP99 <= 0 {
		t.Fatalf("quantiles not populated: p50=%v p95=%v p99=%v", tr.FaultP50, tr.FaultP95, tr.FaultP99)
	}
	if tr.FaultP50 > tr.FaultP95 || tr.FaultP95 > tr.FaultP99 {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v", tr.FaultP50, tr.FaultP95, tr.FaultP99)
	}
}

// TestTrialUntracedHasNoSinkOverhead: without a sink the trial must
// behave identically (nil-sink guard), pinning that tracing is opt-in.
func TestTrialTracedMatchesUntraced(t *testing.T) {
	plain, err := RunTrial(Config{}, workload.LispDel, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := TraceTrial(Config{}, workload.LispDel, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.Total != traced.Report.Total || plain.RemoteExec != traced.RemoteExec {
		t.Errorf("tracing changed the simulation: %v/%v vs %v/%v",
			plain.Report.Total, plain.RemoteExec, traced.Report.Total, traced.RemoteExec)
	}
	if plain.BytesTotal != traced.BytesTotal || !slices.Equal(plain.Series, traced.Series) {
		t.Errorf("tracing changed byte counts: %d %v vs %d %v",
			plain.BytesTotal, plain.Series, traced.BytesTotal, traced.Series)
	}
}

// TestTraceTrialTracks: TraceTrial hands the profiler the testbed's
// own machine names, and passes its events on to a prefixed sink on
// tracks of their own, one set per trial.
func TestTraceTrialTracks(t *testing.T) {
	outer := obs.NewMemorySink()
	cfg := Config{Sink: obs.WithPrefix(outer, "p/")}
	for n := 1; n <= 2; n++ {
		_, sink, err := TraceTrial(cfg, workload.Minprog, core.PureIOU, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range sink.Events() {
			if strings.Contains(ev.Machine, "/") {
				t.Fatalf("trial %d: TraceTrial's own sink saw machine %q", n, ev.Machine)
			}
		}
	}
	tracks := map[string]bool{}
	for _, ev := range outer.Events() {
		tracks[ev.Machine] = true
	}
	for _, want := range []string{"p/1/src", "p/1/dst", "p/2/src", "p/2/dst"} {
		if !tracks[want] {
			t.Errorf("no events on track %s; tracks: %v", want, tracks)
		}
	}
	if tracks["p/src"] {
		t.Error("a trial wrote on the unnumbered track p/src")
	}
}
