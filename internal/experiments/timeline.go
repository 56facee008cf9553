package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/obs"
	"accentmig/internal/workload"
)

// TraceTrial runs one migration trial with an in-memory flight
// recorder attached and returns the result alongside the captured
// event stream, for timeline and critical-path reporting. The config's
// own sink, if any, then receives the captured events in order.
func TraceTrial(cfg Config, k workload.Kind, strat core.Strategy, prefetch int) (tr *TrialResult, sink *obs.MemorySink, err error) {
	sink, err = traced(cfg, func(c Config) (err error) {
		tr, err = RunTrial(c, k, strat, prefetch)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return tr, sink, nil
}

// traced runs one trial with a memory sink in place of cfg's and
// returns the captured events, whose machine names are the testbed's
// own (src, dst). cfg's sink, if any, then receives them in order, on
// the trial's own tracks (obs.ForTrial).
func traced(cfg Config, run func(Config) error) (*obs.MemorySink, error) {
	sink := obs.NewMemorySink()
	next := obs.ForTrial(cfg.Sink)
	cfg.Sink = sink
	err := run(cfg)
	if next != nil {
		for _, ev := range sink.Events() {
			next.Emit(ev)
		}
	}
	return sink, err
}

// FormatTimeline renders one traced migration, the result and events
// TraceTrial returned, as a phase timeline with a critical-path
// decomposition and the fault-latency quantiles. The bars are scaled
// to the longest span.
func FormatTimeline(k workload.Kind, strat core.Strategy, tr *TrialResult, sink *obs.MemorySink) string {
	var b strings.Builder
	total := tr.Report.Total + tr.RemoteExec
	fmt.Fprintf(&b, "Migration timeline — %s under %s (migration %.2fs + remote exec %.2fs)\n",
		k, strat, tr.Report.Total.Seconds(), tr.RemoteExec.Seconds())

	// Phase rows: the traced phase spans, then the remote-execution
	// tail. The source manager emits each phase's begin and end
	// together once the migration succeeds, in phase order, which is
	// start order: the phases run strictly in sequence.
	type row struct {
		name       string
		start, end time.Duration
	}
	var rows []row
	var begun time.Duration
	for _, ev := range sink.Events() {
		switch ev.Kind {
		case obs.PhaseBegin:
			begun = ev.T
		case obs.PhaseEnd:
			rows = append(rows, row{ev.Name, begun, ev.T})
		}
	}
	rows = append(rows, row{"remote-exec", tr.Report.InsertDoneAt, tr.Report.InsertDoneAt + tr.RemoteExec})
	var longest time.Duration
	for _, r := range rows {
		longest = max(longest, r.end-r.start)
	}
	const barWidth = 40
	for _, r := range rows {
		d := r.end - r.start
		n := 0
		if longest > 0 {
			n = int(d * barWidth / longest)
		}
		if n == 0 && d > 0 {
			n = 1
		}
		fmt.Fprintf(&b, "  %-12s [%8.2fs → %8.2fs] %6.2fs %s\n",
			r.name, r.start.Seconds(), r.end.Seconds(), d.Seconds(), strings.Repeat("#", n))
	}

	// Critical path: the migration phases are strictly sequential
	// (excise → xfer.core → xfer.rimas → insert), then remote execution;
	// each entry's share tells which leg dominates end-to-end latency.
	fmt.Fprintf(&b, "Critical path:")
	for _, r := range rows {
		d := r.end - r.start
		fmt.Fprintf(&b, " %s %.2fs (%.0f%%)", r.name, d.Seconds(), 100*d.Seconds()/total.Seconds())
	}
	fmt.Fprintf(&b, "\n")

	if tr.FaultP99 > 0 {
		fmt.Fprintf(&b, "Fault resolution latency: p50 %.1fms  p95 %.1fms  p99 %.1fms  (mean %.1fms, %d remote faults)\n",
			tr.FaultP50.Seconds()*1000, tr.FaultP95.Seconds()*1000, tr.FaultP99.Seconds()*1000,
			tr.RemoteFaultMean.Seconds()*1000, tr.DestPager.ImagFaults)
	}

	if sink.Len() > 0 {
		counts := sink.CountKinds()
		fmt.Fprintf(&b, "Flight recorder: %d events —", sink.Len())
		for _, kind := range obs.Kinds() {
			if n := counts[kind]; n > 0 {
				fmt.Fprintf(&b, " %s=%d", kind, n)
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
