package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/workload"
)

// PipelineWindows is the send-window sweep: W=1 is the paper-faithful
// stop-and-wait baseline, the rest exercise the pipelined transport.
var PipelineWindows = []int{1, 4, 16, 64}

// pipelineStrategies are the migration strategies the window sweep
// crosses with: the two extremes plus the paper's preferred middle.
var pipelineStrategies = []core.Strategy{core.PureCopy, core.PureIOU, core.ResidentSet}

// pipelineOutstanding is the IOU-streaming sweep for the stall table:
// K=1 is the serial demand-fault baseline, K=4 lets split-reply
// prefetch streams overlap the process's compute (gains saturate by
// K=4 at the default prefetch depth).
var pipelineOutstanding = []int{1, 4}

// pipelineStallPrefetch is the prefetch depth used in the stall table;
// streaming only has work to overlap when faults carry prefetch.
const pipelineStallPrefetch = 3

// PipelineRow is one cell of the window sweep.
type PipelineRow struct {
	Window   int
	Kind     workload.Kind
	Strategy core.Strategy
	// Xfer is the RIMAS transfer time (the paper's migration-time
	// metric), EndToEnd adds remote execution, MsgTime is total
	// message-handling time across both machines, Down the process
	// downtime (freeze to first destination instruction).
	Xfer     time.Duration
	EndToEnd time.Duration
	MsgTime  time.Duration
	Down     time.Duration
}

// StallRow is one cell of the IOU fault-stall sweep: pure-IOU remote
// execution with K outstanding page-run fetches.
type StallRow struct {
	Outstanding int
	Kind        workload.Kind
	Prefetch    int
	// FaultMean / FaultP95 summarize remote imaginary-fault stalls;
	// RemoteExec is the resulting remote execution time; HitRatio is
	// the destination pager's hit ratio (prefetched pages included).
	FaultMean  time.Duration
	FaultP95   time.Duration
	RemoteExec time.Duration
	HitRatio   float64
}

// PipelineTable holds the full pipelined-transport experiment.
type PipelineTable struct {
	Kinds []workload.Kind
	Rows  []PipelineRow
	Stall []StallRow
}

// Pipeline sweeps send window x strategy x workload through the
// memoized engine, then sweeps outstanding-fetch depth for pure-IOU
// fault streaming. Every cell with W=1 (or K=1) runs the untouched
// stop-and-wait path, so the baseline column is byte-identical to the
// default experiments.
func (e *Engine) Pipeline(cfg Config, kinds []workload.Kind) (*PipelineTable, error) {
	cfg = cfg.forParallel(e.Workers())
	type cell struct {
		cfg   Config
		kind  workload.Kind
		strat core.Strategy
		pf    int
	}
	var cells []cell
	for _, w := range PipelineWindows {
		c := cfg
		if w > 1 {
			c.Machine.Net.Window = w
		}
		for _, kind := range kinds {
			for _, strat := range pipelineStrategies {
				cells = append(cells, cell{cfg: c, kind: kind, strat: strat})
			}
		}
	}
	// The stall sweep rides the pipelined transport (W=16): split-reply
	// streaming turns one large fault reply into a one-page demand reply
	// plus per-page background replies, and on the stop-and-wait wire
	// those extra frames queue ahead of the next demand reply and erase
	// the win. Both K rows share the window so the sweep isolates K.
	stallBase := len(cells)
	for _, k := range pipelineOutstanding {
		c := cfg
		c.Machine.Net.Window = 16
		if k > 1 {
			c.Machine.Pager.Outstanding = k
		}
		for _, kind := range kinds {
			cells = append(cells, cell{cfg: c, kind: kind, strat: core.PureIOU, pf: pipelineStallPrefetch})
		}
	}

	out, err := sweep(e, cells, func(c cell) (*TrialResult, error) {
		return e.Trial(c.cfg, c.kind, c.strat, c.pf)
	})
	if err != nil {
		return nil, err
	}

	t := &PipelineTable{Kinds: kinds}
	for i, c := range cells[:stallBase] {
		tr := out[i]
		t.Rows = append(t.Rows, PipelineRow{
			Window:   c.cfg.Machine.Net.Window,
			Kind:     c.kind,
			Strategy: c.strat,
			Xfer:     tr.Report.RIMASTransfer,
			EndToEnd: tr.EndToEnd,
			MsgTime:  tr.MsgTime,
			Down:     tr.Downtime,
		})
	}
	for i, c := range cells[stallBase:] {
		tr := out[stallBase+i]
		t.Stall = append(t.Stall, StallRow{
			Outstanding: c.cfg.Machine.Pager.Outstanding,
			Kind:        c.kind,
			Prefetch:    c.pf,
			FaultMean:   tr.RemoteFaultMean,
			FaultP95:    tr.FaultP95,
			RemoteExec:  tr.RemoteExec,
			HitRatio:    tr.DestPager.HitRatio(),
		})
	}
	return t, nil
}

// Pipeline runs the pipelined-transport experiment on the default
// engine.
func Pipeline(cfg Config, kinds []workload.Kind) (*PipelineTable, error) {
	return Default.Pipeline(cfg, kinds)
}

// window normalizes the stored knob back to the effective value (the
// zero default means stop-and-wait, i.e. W=1).
func (r PipelineRow) window() int {
	if r.Window < 1 {
		return 1
	}
	return r.Window
}

func (r StallRow) outstanding() int {
	if r.Outstanding < 1 {
		return 1
	}
	return r.Outstanding
}

// FormatPipeline renders the window sweep per workload (speedups are
// RIMAS-transfer time relative to the same strategy's W=1 row) and the
// IOU fault-stall table.
func FormatPipeline(t *PipelineTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipelined transport: RIMAS transfer time by send window\n")

	base := map[workload.Kind]map[core.Strategy]time.Duration{}
	for _, r := range t.Rows {
		if r.window() == 1 {
			if base[r.Kind] == nil {
				base[r.Kind] = map[core.Strategy]time.Duration{}
			}
			base[r.Kind][r.Strategy] = r.Xfer
		}
	}
	for _, kind := range t.Kinds {
		fmt.Fprintf(&b, "\n%s\n", kind)
		fmt.Fprintf(&b, "%6s", "W")
		for _, s := range pipelineStrategies {
			fmt.Fprintf(&b, " %12s %8s %8s", s, "speedup", "down")
		}
		fmt.Fprintf(&b, "\n")
		for _, w := range PipelineWindows {
			fmt.Fprintf(&b, "%6d", w)
			for _, s := range pipelineStrategies {
				var row *PipelineRow
				for i := range t.Rows {
					r := &t.Rows[i]
					if r.Kind == kind && r.Strategy == s && r.window() == w {
						row = r
						break
					}
				}
				if row == nil {
					fmt.Fprintf(&b, " %12s %8s %8s", "-", "-", "-")
					continue
				}
				speed := "-"
				if bx := base[kind][s]; bx > 0 && row.Xfer > 0 {
					speed = fmt.Sprintf("%.2fx", float64(bx)/float64(row.Xfer))
				}
				fmt.Fprintf(&b, " %12s %8s %7.1fs", row.Xfer.Round(time.Millisecond), speed, row.Down.Seconds())
			}
			fmt.Fprintf(&b, "\n")
		}
	}

	fmt.Fprintf(&b, "\nWindowed IOU streaming: pure-IOU remote fault stalls (prefetch %d)\n\n", pipelineStallPrefetch)
	fmt.Fprintf(&b, "%-10s %3s %12s %12s %12s %8s\n",
		"Workload", "K", "FaultMean", "FaultP95", "RemoteExec", "Hit%")
	for _, r := range t.Stall {
		fmt.Fprintf(&b, "%-10s %3d %12s %12s %12s %7.1f%%\n",
			r.Kind, r.outstanding(),
			r.FaultMean.Round(time.Microsecond), r.FaultP95.Round(time.Microsecond),
			r.RemoteExec.Round(time.Millisecond), 100*r.HitRatio)
	}
	return b.String()
}
