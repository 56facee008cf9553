package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// dedupModes are the store configurations the sweep crosses with: off
// is the paper-faithful baseline (byte-identical to every other
// experiment), dedup adds manifest elision and fault hints, and
// dedup+comp layers the modeled compressor on whatever still ships.
var dedupModes = []struct {
	Name string
	Cfg  vm.DedupConfig
}{
	{"off", vm.DedupConfig{}},
	{"dedup", vm.DedupConfig{Enabled: true}},
	{"dedup+comp", vm.DedupConfig{Enabled: true, Compress: true}},
}

// dedupStrategies spans the ladder the bytes-on-wire story cares
// about: pure-copy ships everything (maximum elision opportunity),
// the resident set ships half, pure-IOU ships nothing up front (the
// manifest only seeds fault hints).
var dedupStrategies = []core.Strategy{core.PureCopy, core.ResidentSet, core.PureIOU}

// DedupRow is one cell of the content-addressed store sweep.
type DedupRow struct {
	Mode     string
	Kind     workload.Kind
	Strategy core.Strategy
	// Xfer is the RIMAS transfer time, EndToEnd adds remote execution,
	// Bytes is total wire traffic for the trial (manifest round trip
	// included — elision has to out-earn its own protocol).
	Xfer     time.Duration
	EndToEnd time.Duration
	Bytes    uint64
	// Elided counts pages rebuilt at the destination instead of
	// shipped; Local and Holder count faults served from the content
	// index rather than the origin backer.
	Elided int
	Local  uint64
	Holder uint64
	Down   time.Duration
}

// NearestHolderRow compares fault service with and without the
// nearest-holder path on a three-machine topology where a bystander
// near the destination already holds the faulting process's content.
type NearestHolderRow struct {
	Mode      string
	FaultMean time.Duration
	FaultP95  time.Duration
	Local     uint64
	Holder    uint64
}

// DedupTable holds the full content-addressed store experiment.
type DedupTable struct {
	Kinds  []workload.Kind
	Rows   []DedupRow
	Holder []NearestHolderRow
}

// Dedup sweeps store mode x strategy x workload through the memoized
// engine, then runs the three-machine nearest-holder comparison. The
// off column runs the untouched transfer path, so it is byte-identical
// to the default experiments.
func (e *Engine) Dedup(cfg Config, kinds []workload.Kind) (*DedupTable, error) {
	type cell struct {
		cfg   Config
		mode  string
		kind  workload.Kind
		strat core.Strategy
	}
	var cells []cell
	for _, m := range dedupModes {
		c := cfg
		c.Machine.Dedup = m.Cfg
		for _, kind := range kinds {
			for _, strat := range dedupStrategies {
				cells = append(cells, cell{cfg: c, mode: m.Name, kind: kind, strat: strat})
			}
		}
	}

	out, err := sweep(e, cfg.Sink, cells, func(c cell) (*TrialResult, error) {
		return e.Trial(c.cfg, c.kind, c.strat, 0)
	})
	if err != nil {
		return nil, err
	}

	t := &DedupTable{Kinds: kinds}
	for i, c := range cells {
		tr := out[i]
		t.Rows = append(t.Rows, DedupRow{
			Mode:     c.mode,
			Kind:     c.kind,
			Strategy: c.strat,
			Xfer:     tr.Report.RIMASTransfer,
			EndToEnd: tr.EndToEnd,
			Bytes:    tr.BytesTotal,
			Elided:   tr.Report.Insert.ElidedPages,
			Local:    tr.DestPager.LocalServes,
			Holder:   tr.DestPager.HolderServes,
			Down:     tr.Downtime,
		})
	}
	holder, err := NearestHolder(cfg)
	if err != nil {
		return nil, err
	}
	t.Holder = holder
	return t, nil
}

// nearestHolderPages sizes the migrating process in the three-machine
// comparison.
const nearestHolderPages = 64

// NearestHolder quantifies the nearest-holder fault path. Three
// machines: origin and the destination sit across a slow link (8x the
// base latency), a bystander sits next to the destination on a fast
// one. A seed process carries the content set to the bystander; then
// an identical-content process migrates origin->dst by pure IOU and
// touches every page. With the store off every fault crosses the slow
// link to the origin backer; with it on, the manifest's hash hints let
// the destination fetch each page from the bystander next door.
//
// Origin and the destination are a testbed, origin its src, so a fault
// plan, the pager's retry timeout under it and crashes keyed to a
// migration phase reach the scenario as they reach every trial;
// "remote" fires once the job runs at dst. The bystander, near, is
// linked to both under the same plan.
func NearestHolder(cfg Config) ([]NearestHolderRow, error) {
	var rows []NearestHolderRow
	for _, mode := range []struct {
		name  string
		dedup bool
	}{{"origin backer", false}, {"nearest holder", true}} {
		row, err := runNearestHolder(cfg, mode.dedup)
		if err != nil {
			return nil, err
		}
		row.Mode = mode.name
		rows = append(rows, row)
	}
	return rows, nil
}

func runNearestHolder(cfg Config, dedup bool) (NearestHolderRow, error) {
	var row NearestHolderRow
	cfg.Machine.Dedup = vm.DedupConfig{Enabled: dedup}
	// Origin's links, to dst (the testbed's) and to near, are slow; near
	// to dst keeps the configured link.
	nearLink := cfg.Link
	if cfg.Link.Latency == 0 {
		cfg.Link.Latency = 5 * time.Millisecond
	}
	cfg.Link.Latency *= 8
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	origin, dst := tb.Src, tb.Dst
	near, nearMgr := tb.addMachine(cfg, "near", cfg.Link, nearLink)
	if dedup {
		// Listed nearest-first from the destination's point of view.
		WireHolderResolvers(near, origin, dst)
	}

	// The seed and the job hold the same content.
	content := func(i int, page []byte) {
		for j := range page {
			page[j] = byte(i*31 + j*7 + 1)
		}
	}
	seed, err := tb.dataProcess("seed", 1, nearestHolderPages, content)
	if err != nil {
		return row, err
	}
	seed.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	job, err := tb.dataProcess("job", 1, nearestHolderPages, content)
	if err != nil {
		return row, err
	}
	jobOps := []trace.Op{trace.MigratePoint{}}
	for i := 0; i < nearestHolderPages; i++ {
		jobOps = append(jobOps, trace.Touch{Addr: vm.Addr(i * origin.PageSize())})
	}
	job.Program = &trace.Program{Ops: jobOps}
	origin.Start(seed)
	origin.Start(job)

	m := &migration{}
	tb.K.Go("driver", func(p *sim.Proc) {
		// Seed the bystander's content index; the held process keeps its
		// frames (and so the index entries) live for the whole trial.
		if _, m.err = tb.SrcMgr.MigrateTo(p, "seed", nearMgr.Port.ID, core.Options{
			Strategy: core.PureCopy, HoldAtDest: true,
		}); m.err != nil {
			return
		}
		_, m.err = tb.SrcMgr.MigrateTo(p, "job", tb.DstMgr.Port.ID, core.Options{Strategy: core.PureIOU})
		tb.settle(p, m, "job")
	})
	tb.K.Run()
	if err := m.remoteErr("job"); err != nil {
		return row, err
	}

	// Only the job runs, and only at dst, so the testbed's recorder
	// holds dst's faults alone.
	st := dst.Pager.Stats()
	dist := tb.Rec.RemoteFaults()
	row.FaultMean = dist.Mean()
	row.FaultP95 = dist.Quantile(0.95)
	row.Local = st.LocalServes
	row.Holder = st.HolderServes
	return row, nil
}

// FormatDedup renders the store sweep per workload (savings are bytes
// on wire relative to the same strategy's off row) and the
// nearest-holder comparison.
func FormatDedup(t *DedupTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Content-addressed page store: bytes on wire by mode\n")

	base := map[workload.Kind]map[core.Strategy]uint64{}
	for _, r := range t.Rows {
		if r.Mode == "off" {
			if base[r.Kind] == nil {
				base[r.Kind] = map[core.Strategy]uint64{}
			}
			base[r.Kind][r.Strategy] = r.Bytes
		}
	}
	for _, kind := range t.Kinds {
		fmt.Fprintf(&b, "\n%s\n", kind)
		fmt.Fprintf(&b, "%12s %-11s %10s %7s %7s %10s %7s %7s\n",
			"Strategy", "Mode", "Bytes", "Saved", "Elided", "Xfer", "Local", "Holder")
		for _, s := range dedupStrategies {
			for _, m := range dedupModes {
				var row *DedupRow
				for i := range t.Rows {
					r := &t.Rows[i]
					if r.Kind == kind && r.Strategy == s && r.Mode == m.Name {
						row = r
						break
					}
				}
				if row == nil {
					continue
				}
				saved := "-"
				if bx := base[kind][s]; bx > 0 && row.Mode != "off" {
					saved = fmt.Sprintf("%.1f%%", 100*(1-float64(row.Bytes)/float64(bx)))
				}
				fmt.Fprintf(&b, "%12s %-11s %10d %7s %7d %10s %7d %7d\n",
					s, row.Mode, row.Bytes, saved, row.Elided,
					row.Xfer.Round(time.Millisecond), row.Local, row.Holder)
			}
		}
	}

	if len(t.Holder) > 0 {
		fmt.Fprintf(&b, "\nNearest-holder faults: pure-IOU over a slow origin link, bystander holds the content\n\n")
		fmt.Fprintf(&b, "%-16s %12s %12s %7s %7s\n", "Mode", "FaultMean", "FaultP95", "Local", "Holder")
		for _, r := range t.Holder {
			fmt.Fprintf(&b, "%-16s %12s %12s %7d %7d\n",
				r.Mode, r.FaultMean.Round(time.Microsecond), r.FaultP95.Round(time.Microsecond),
				r.Local, r.Holder)
		}
		if len(t.Holder) == 2 && t.Holder[1].FaultMean > 0 {
			fmt.Fprintf(&b, "stall improvement: %.2fx\n",
				float64(t.Holder[0].FaultMean)/float64(t.Holder[1].FaultMean))
		}
	}
	return b.String()
}
