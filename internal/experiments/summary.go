package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/imag"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// Summary aggregates the §4.5 headline numbers from a grid.
type Summary struct {
	// AvgByteSavingsPct: IOU (no prefetch) bytes vs pure-copy, averaged
	// across workloads. Paper: 58.2%.
	AvgByteSavingsPct float64
	// AvgMsgTimeSavingsPct: message-handling time savings. Paper: 47.8%.
	AvgMsgTimeSavingsPct float64
	// RemoteFault and DiskFault are the measured single-fault costs;
	// FaultRatio is their quotient. Paper: 115 ms / 40.8 ms ≈ 2.8.
	RemoteFault time.Duration
	DiskFault   time.Duration
	FaultRatio  float64
	// PeakRateReductionPct: reduction in peak sustained transmission
	// rate, IOU vs copy, for Lisp-Del. Paper: up to 66%.
	PeakRateReductionPct float64

	// Remote fault-resolution latency quantiles across the Lisp-Del
	// pure-IOU trial (the fault-heaviest cell of the grid), from the
	// recorder's log-bucketed histogram.
	FaultP50, FaultP95, FaultP99 time.Duration

	// Process downtime for Lisp-Del under each strategy: excise-freeze
	// to the first post-insert instruction. The lazy strategies' whole
	// case is that this number barely moves while transfer time
	// collapses.
	DownIOU, DownRS, DownCopy time.Duration
}

// Summarize computes the summary from a full grid (it must include
// Lisp-Del for the peak-rate figure).
func Summarize(cfg Config, g *Grid, kinds []workload.Kind) (*Summary, error) {
	s := &Summary{}
	var byteSum, msgSum float64
	n := 0
	for _, k := range kinds {
		cp := g.Cell(k, core.PureCopy, 0)
		iou := g.Cell(k, core.PureIOU, 0)
		if cp == nil || iou == nil {
			continue
		}
		byteSum += 100 * (1 - float64(iou.BytesTotal)/float64(cp.BytesTotal))
		msgSum += 100 * (1 - iou.MsgTime.Seconds()/cp.MsgTime.Seconds())
		n++
	}
	if n > 0 {
		s.AvgByteSavingsPct = byteSum / float64(n)
		s.AvgMsgTimeSavingsPct = msgSum / float64(n)
	}

	fc, err := Default.FaultCosts(cfg)
	if err != nil {
		return nil, err
	}
	s.RemoteFault, s.DiskFault = fc.Remote, fc.Local
	s.FaultRatio = s.RemoteFault.Seconds() / s.DiskFault.Seconds()

	if cp, iou := g.Cell(workload.LispDel, core.PureCopy, 0), g.Cell(workload.LispDel, core.PureIOU, 0); cp != nil && iou != nil {
		s.PeakRateReductionPct = 100 * (1 - float64(iou.PeakRate)/float64(cp.PeakRate))
		s.FaultP50, s.FaultP95, s.FaultP99 = iou.FaultP50, iou.FaultP95, iou.FaultP99
		s.DownIOU, s.DownCopy = iou.Downtime, cp.Downtime
	}
	if rs := g.Cell(workload.LispDel, core.ResidentSet, 0); rs != nil {
		s.DownRS = rs.Downtime
	}
	return s, nil
}

// FaultCosts is what the §4.3.3 microbenchmark measures: the stall of
// one remote imaginary fault and of one local disk fault.
type FaultCosts struct {
	Remote, Local time.Duration
}

// MeasureFaultCosts measures one remote imaginary fault and one local
// disk fault on a fresh testbed (the §4.3.3 microbenchmark: 115 ms vs
// 40.8 ms).
func MeasureFaultCosts(cfg Config) (*FaultCosts, error) {
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	// Local disk fault on the source machine.
	as := vm.MustNewAddressSpace(vm.Config{PageSize: tb.Src.PageSize()})
	reg, err := as.Validate(0, 8*uint64(tb.Src.PageSize()), "probe")
	if err != nil {
		return nil, err
	}
	pg0 := reg.Seg.MaterializeZero(0)
	pg0.State.OnDisk = true

	// Remote fault: a page owed by the destination's NetMsgServer cache.
	segID := imag.NextSegID()
	sseg := tb.Dst.Net.Store().AddSegment(segID, 8*uint64(tb.Src.PageSize()), tb.Src.PageSize())
	sseg.Put(0, make([]byte, tb.Src.PageSize()))
	iseg := vm.NewImaginarySegment("probe-owed", 8*uint64(tb.Src.PageSize()), tb.Src.PageSize(), uint64(tb.Dst.Net.BackingPort()))
	iseg.ID = segID
	if _, err := as.MapSegment(1<<20, 8*uint64(tb.Src.PageSize()), iseg, 0, "probe-owed"); err != nil {
		return nil, err
	}
	tb.Src.Net.AddRoute(tb.Dst.Net.BackingPort(), "dst")

	var fc FaultCosts
	var faultErr error
	tb.K.Go("probe", func(p *sim.Proc) {
		start := p.Now()
		if e := tb.Src.Pager.Touch(p, as, 0, false); e != nil {
			faultErr = e
			return
		}
		fc.Local = p.Now() - start
		start = p.Now()
		if e := tb.Src.Pager.Touch(p, as, 1<<20, false); e != nil {
			faultErr = e
			return
		}
		fc.Remote = p.Now() - start
	})
	tb.K.Run()
	if faultErr != nil {
		return nil, faultErr
	}
	return &fc, nil
}

// FormatSummary renders the §4.5 aggregates with the paper's values.
func FormatSummary(s *Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Summary (§4.5 headline results)\n")
	fmt.Fprintf(&b, "  avg byte savings, IOU vs copy:      %5.1f%%  (paper: 58.2%%)\n", s.AvgByteSavingsPct)
	fmt.Fprintf(&b, "  avg msg-time savings, IOU vs copy:  %5.1f%%  (paper: 47.8%%)\n", s.AvgMsgTimeSavingsPct)
	fmt.Fprintf(&b, "  remote imaginary fault:             %6.1fms (paper: 115ms)\n", s.RemoteFault.Seconds()*1000)
	fmt.Fprintf(&b, "  local disk fault:                   %6.1fms (paper: 40.8ms)\n", s.DiskFault.Seconds()*1000)
	fmt.Fprintf(&b, "  remote/local fault ratio:           %6.2f  (paper: 2.8)\n", s.FaultRatio)
	fmt.Fprintf(&b, "  peak-rate reduction (Lisp-Del):     %5.1f%%  (paper: up to 66%%)\n", s.PeakRateReductionPct)
	fmt.Fprintf(&b, "  remote fault latency p50/p95/p99:   %.1f / %.1f / %.1f ms (Lisp-Del IOU)\n",
		s.FaultP50.Seconds()*1000, s.FaultP95.Seconds()*1000, s.FaultP99.Seconds()*1000)
	fmt.Fprintf(&b, "  downtime IOU/RS/copy (Lisp-Del):    %.2f / %.2f / %.2f s\n",
		s.DownIOU.Seconds(), s.DownRS.Seconds(), s.DownCopy.Seconds())
	return b.String()
}
