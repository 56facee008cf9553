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
func TraceTrial(cfg Config, k workload.Kind, strat core.Strategy, prefetch int) (*TrialResult, *obs.MemorySink, error) {
	sink := obs.NewMemorySink()
	next := cfg.Sink
	cfg.Sink = sink
	tr, err := RunTrial(cfg, k, strat, prefetch)
	if next != nil {
		for _, ev := range sink.Events() {
			next.Emit(ev)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return tr, sink, nil
}

// FormatTimeline renders one traced migration as a phase timeline with
// a critical-path decomposition and the fault-latency quantiles. The
// bars are scaled to the longest span.
func FormatTimeline(k workload.Kind, strat core.Strategy, tr *TrialResult, sink *obs.MemorySink) string {
	var b strings.Builder
	total := tr.Report.Total + tr.RemoteExec
	fmt.Fprintf(&b, "Migration timeline — %s under %s (migration %.2fs + remote exec %.2fs)\n",
		k, strat, tr.Report.Total.Seconds(), tr.RemoteExec.Seconds())

	// Phase rows: recorder spans plus the remote-execution tail.
	type row struct {
		name       string
		start, end time.Duration
	}
	rows := make([]row, 0, len(tr.Phases)+1)
	var longest time.Duration
	for _, ph := range tr.Phases {
		rows = append(rows, row{ph.Name, ph.Start, ph.End})
		if d := ph.End - ph.Start; d > longest {
			longest = d
		}
	}
	rows = append(rows, row{"remote-exec", tr.Report.InsertDoneAt, tr.Report.InsertDoneAt + tr.RemoteExec})
	if tr.RemoteExec > longest {
		longest = tr.RemoteExec
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

	if sink != nil && sink.Len() > 0 {
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
