package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/workload"
)

// Params is what a run's flags give the experiments.
type Params struct {
	Config Config
	// Kinds are the workloads the per-workload experiments run.
	Kinds []workload.Kind
	// CSV renders the figures as CSV instead of text.
	CSV bool
	// ChaosTrials is the size of the chaos campaign.
	ChaosTrials int
	// Seed is the run's base seed; the chaos campaign draws its
	// scenarios from Seed+1.
	Seed uint64
	// Shards is the lane count shardstress compares with the
	// sequential kernel (below 2 selects 4).
	Shards int
}

// Experiment is one id `migsim -exp` accepts.
type Experiment struct {
	ID string
	// InAll puts the experiment in `-exp all`, whose output is
	// testdata/exp_all.golden.
	InAll bool
	// Render returns exactly what `migsim -exp ID` prints: on an error,
	// what it printed before failing.
	Render func(Params) (string, error)
}

// Experiments returns every experiment in `migsim -list` order. The
// ones outside `-exp all` run only when named, so the golden stays the
// paper's evaluation: the pipeline sweep leaves the paper's
// stop-and-wait transport, the dedup sweep turns on the
// content-addressed page store, bottleneck and profile re-run every
// cell traced, chaos runs hundreds of randomized fault trials, and
// shardstress runs 16- and 32-machine clusters on its own migration
// model. Each of those has a line in testdata/identity.txt.
//
// The table is built on each call, not held in a package variable, so a
// binary that never calls Experiments (the benchmark) links none of the
// harnesses it names.
func Experiments() []Experiment {
	return []Experiment{
		{"table4-1", true, func(p Params) (string, error) {
			return printed(Table41For(p.Kinds), nil, FormatTable41)
		}},
		{"table4-2", true, func(p Params) (string, error) {
			rows, err := Table42For(p.Config, p.Kinds)
			return printed(rows, err, FormatTable42)
		}},
		{"table4-3", true, func(p Params) (string, error) {
			rows, err := Table43(p.Config, p.Kinds)
			return printed(rows, err, FormatTable43)
		}},
		{"table4-4", true, func(p Params) (string, error) {
			rows, err := Table44For(p.Config, p.Kinds)
			return printed(rows, err, FormatTable44)
		}},
		{"table4-5", true, func(p Params) (string, error) {
			rows, err := Table45(p.Config, p.Kinds)
			return printed(rows, err, FormatTable45)
		}},
		{"figure4-1", true, gridFigure("Figure 4-1: Remote Execution Times", "s", Figure41)},
		{"figure4-2", true, gridFigure("Figure 4-2: Overall Migration Speedup vs pure-copy", "%", Figure42)},
		{"figure4-3", true, gridFigure("Figure 4-3: Bytes Transferred", "B", Figure43)},
		{"figure4-4", true, gridFigure("Figure 4-4: Message Handling Costs", "s", Figure44)},
		{"figure4-5", true, func(p Params) (string, error) {
			panels, err := Figure45(p.Config)
			if err == nil && p.CSV {
				return FormatFigure45CSV(panels), nil
			}
			return printed(panels, err, FormatFigure45)
		}},
		{"summary", true, func(p Params) (string, error) {
			g, err := RunGrid(p.Config, p.Kinds)
			if err != nil {
				return "", err
			}
			s, err := Summarize(p.Config, g, p.Kinds)
			return printed(s, err, FormatSummary)
		}},
		{"ablations", true, renderAblations},
		{"precopy", true, func(p Params) (string, error) {
			rows, err := PreCopyComparison(p.Config)
			return printed(rows, err, FormatPreCopy)
		}},
		{"breakeven", true, func(p Params) (string, error) {
			rows, err := BreakevenSweep(p.Config, []int{5, 10, 15, 20, 25, 30, 40, 50, 60})
			return printed(rows, err, FormatBreakeven)
		}},
		{"bystander", true, func(p Params) (string, error) {
			rows, err := BystanderImpact(p.Config)
			return printed(rows, err, FormatBystander)
		}},
		{"residual", true, func(p Params) (string, error) {
			series, err := ResidualSeries(p.Config, workload.LispDel, 0, 5*time.Second)
			return printed(series, err, func(s []ResidualPoint) string { return FormatResidual(workload.LispDel, s) })
		}},
		{"hops", true, func(p Params) (string, error) {
			rows, err := HopPenalty(p.Config)
			return printed(rows, err, FormatHopPenalty)
		}},
		{"resilience", true, func(p Params) (string, error) {
			t, err := Default.Resilience(p.Config)
			return printed(t, err, FormatResilience)
		}},
		{"pipeline", false, func(p Params) (string, error) {
			t, err := Default.Pipeline(p.Config, p.Kinds)
			return printed(t, err, FormatPipeline)
		}},
		{"dedup", false, func(p Params) (string, error) {
			t, err := Default.Dedup(p.Config, p.Kinds)
			return printed(t, err, FormatDedup)
		}},
		{"bottleneck", false, func(p Params) (string, error) {
			rows, err := Bottleneck(p.Config, p.Kinds)
			return printed(rows, err, FormatBottleneck)
		}},
		{"chaos", false, func(p Params) (string, error) {
			rep, err := Default.Chaos(p.Config, p.ChaosTrials, p.Seed+1)
			out, err := printed(rep, err, FormatChaos)
			if err == nil && len(rep.Violations) > 0 {
				err = fmt.Errorf("chaos campaign found %d invariant violations", len(rep.Violations))
			}
			return out, err
		}},
		{"shardstress", false, func(p Params) (string, error) {
			out, _, err := ShardStress(p.Shards)
			return printed(out, err, func(s string) string { return s })
		}},
		// profile prints the critical path, blame partition and downtime of
		// one traced migration per workload and strategy.
		{"profile", false, func(p Params) (string, error) {
			rows, err := Bottleneck(p.Config, p.Kinds)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range rows {
				fmt.Fprintf(&b, "=== %s under %s ===\n%s\n", r.Kind, r.Strategy, r.Profile.Format())
			}
			return b.String(), nil
		}},
	}
}

// Lookup returns the experiment named id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// printed is what migsim prints for v: format(v) on its own line, or
// nothing when err is set.
func printed[T any](v T, err error, format func(T) string) (string, error) {
	if err != nil {
		return "", err
	}
	return format(v) + "\n", nil
}

// gridFigure renders one of Figures 4-1 to 4-4 from the paper grid.
func gridFigure(title, unit string, figure func(*Grid, []workload.Kind) map[workload.Kind][]FigureCell) func(Params) (string, error) {
	return func(p Params) (string, error) {
		g, err := RunGrid(p.Config, p.Kinds)
		if err != nil {
			return "", err
		}
		cells := figure(g, p.Kinds)
		if p.CSV {
			return FormatFigureCSV(cells, p.Kinds), nil
		}
		return FormatFigure(title, unit, cells, p.Kinds) + "\n", nil
	}
}

// renderAblations renders the design-choice sweeps, in order, each on
// the run's config with its one field set.
func renderAblations(p Params) (string, error) {
	ablations := []struct {
		title string
		run   func() ([]AblationRow, error)
	}{
		{"prefetch (synthetic sequential)", func() ([]AblationRow, error) {
			return PrefetchAblation(p.Config, core.PrefetchValues())
		}},
		{"page size", func() ([]AblationRow, error) {
			return PageSizeAblation(p.Config, []int{256, 512, 1024, 2048})
		}},
		{"network bandwidth (IOU vs Copy)", func() ([]AblationRow, error) {
			return BandwidthAblation(p.Config, []int{375_000, 3_750_000, 37_500_000})
		}},
		{"NetMsgServer IOU cache", func() ([]AblationRow, error) { return IOUCacheAblation(p.Config) }},
		{"IPC copy/map threshold", func() ([]AblationRow, error) {
			return CopyThresholdAblation(p.Config, []int{512, 4096, 65536, 1 << 20})
		}},
	}
	var b strings.Builder
	for _, ab := range ablations {
		rows, err := ab.run()
		if err != nil {
			return b.String(), err
		}
		b.WriteString(FormatAblation("Ablation: "+ab.title, rows) + "\n")
	}
	return b.String(), nil
}
