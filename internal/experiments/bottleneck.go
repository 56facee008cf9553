package experiments

import (
	"fmt"
	"strings"

	"accentmig/internal/core"
	"accentmig/internal/prof"
	"accentmig/internal/workload"
)

// BottleneckRow is one cell of the bottleneck sweep: a traced
// migration rebuilt as a critical-path profile.
type BottleneckRow struct {
	Kind     workload.Kind
	Strategy core.Strategy
	Profile  *prof.Profile
}

// Bottleneck runs one flight-recorded migration per workload ×
// strategy and reconstructs each as a span DAG (package prof): the
// migration interval partitioned into per-resource blame, plus the
// downtime span. Traced trials carry their own in-memory sink, so they
// run sequentially and are not memoized with the grid.
func Bottleneck(cfg Config, kinds []workload.Kind) ([]BottleneckRow, error) {
	var rows []BottleneckRow
	for _, k := range kinds {
		for _, strat := range core.Strategies() {
			_, sink, err := TraceTrial(cfg, k, strat, 0)
			if err != nil {
				return nil, err
			}
			pf, err := prof.Build(sink.Events())
			if err != nil {
				return nil, fmt.Errorf("experiments: profiling %v/%v: %w", k, strat, err)
			}
			rows = append(rows, BottleneckRow{Kind: k, Strategy: strat, Profile: pf})
		}
	}
	return rows, nil
}

// FormatBottleneck renders the sweep: per workload and strategy, the
// migration interval, the downtime, and the critical path's
// composition as percentages (an exact partition, so each row sums to
// 100 up to rounding).
func FormatBottleneck(rows []BottleneckRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bottleneck: critical-path composition per migration (%% of frozen interval)\n\n")
	fmt.Fprintf(&b, "%-10s %-9s %8s %8s ", "Workload", "Strategy", "Total", "Down")
	for _, c := range prof.Classes() {
		fmt.Fprintf(&b, " %7s", c)
	}
	fmt.Fprintf(&b, "  %s\n", "Path")
	for _, r := range rows {
		pf := r.Profile
		fmt.Fprintf(&b, "%-10s %-9s %7.2fs %7.2fs ", r.Kind, r.Strategy,
			pf.Total().Seconds(), pf.Downtime.Seconds())
		for _, c := range prof.Classes() {
			fmt.Fprintf(&b, " %6.1f%%", 100*pf.Blame.Fraction(c))
		}
		mark := "ok"
		if !pf.Connected() {
			mark = "BROKEN"
		}
		fmt.Fprintf(&b, "  %s\n", mark)
	}
	return b.String()
}
