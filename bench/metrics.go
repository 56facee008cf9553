package main

import (
	"math"
	"sort"
	"strings"
)

// metric is one reported value: its name as BENCHMARK.json lists it and
// its unit.
type metric struct{ name, unit string }

// endToEnd are the host-side metrics a user of the simulator sees, from
// the untraced run. Their regression bounds live in BENCHMARK.json.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// layers are the CPU-attribution buckets of the traced run: the
// internal/ packages that carry real work, gc and sched for runtime work
// with no project frame on the stack, and other for the small packages
// and the benchmark's own code.
var layers = []string{
	"sim", "vm", "core", "wire", "netmsg", "ipc", "pager", "machine",
	"workload", "experiments", "metrics", "gc", "sched", "other",
}

// harnesses are the paper's evaluation harnesses, in `migsim -exp all`
// order: one rep of paper-cold or paper-warm calls each once.
var harnesses = []string{
	"table4-1", "table4-2", "table4-3", "table4-4", "table4-5",
	"figure4-1", "figure4-2", "figure4-3", "figure4-4", "figure4-5",
	"summary",
}

// perLayer lists every metric of the traced run. A metric a workload
// does not exercise reads 0 there (README.md maps each metric to the
// workloads that move it).
func perLayer() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_ms", "ms"})
	}
	ms = append(ms,
		metric{"trace.layer_share_pct", "%"},
		metric{"trace_overhead_pct", "%"},
		metric{"gc.alloc_mb", "MB"},
		metric{"gc.cycles", "count"},
		metric{"sim.events", "count"},
		metric{"sim.ns_per_event", "ns"},
		metric{"sim.seq_wall_ms", "ms"},
		metric{"sim.lanes2_wall_ms", "ms"},
		metric{"sim.lanes2_speedup", "x"},
		metric{"sim.barrier_stall_pct", "%"},
		metric{"sim.windows", "count"},
		metric{"sim.cross_events", "count"},
		metric{"experiments.disk_hits", "count"},
		metric{"experiments.disk_misses", "count"},
		metric{"experiments.disk_writes", "count"},
		metric{"experiments.disk_rejects", "count"},
		metric{"experiments.memo_cells", "count"},
		metric{"experiments.memo_hit_us", "us"},
		metric{"experiments.disk_hit_us", "us"},
		metric{"vm.page_hash_ns", "ns"},
		metric{"vm.resident_touch_ns", "ns"},
		metric{"vm.cow_break_ns", "ns"},
		metric{"vm.content_index_hit_ns", "ns"},
		metric{"vm.build_amap_us", "us"},
		metric{"core.excise_ms", "ms"},
		metric{"workload.build_ms", "ms"},
	)
	for _, h := range harnesses {
		ms = append(ms, metric{"experiments." + h + "_ms", "ms"})
	}
	ms = append(ms,
		metric{"core.retried_trials", "count"},
		metric{"vm.resumed_pages", "count"},
		metric{"core.repaired_pages", "count"},
		metric{"sim_downtime_p50_ms", "sim_ms"},
		metric{"sim_downtime_p98_ms", "sim_ms"},
		metric{"sim_wire_mb", "sim_MB"},
		metric{"sim_abort_frac", "ratio"},
	)
	return ms
}

// isModelMetric reports whether a metric is a deterministic output of the
// simulated model rather than a host measurement: it must repeat exactly
// across reps and across commits that claim to keep the model unchanged.
func isModelMetric(name string) bool { return strings.HasPrefix(name, "sim_") }

// median is the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles with the same method
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" default),
// so spreads printed here match the ones the benchmark is judged by.
// Fewer than two values give a zero-width spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tail returns the highest percentile that still has ten samples beyond
// it, and its value. With twenty samples or fewer that is the median.
func tail(xs []float64) (pct, v float64) {
	n := len(xs)
	if n <= 20 {
		return 50, median(xs)
	}
	pct = 100 * (1 - 10/float64(n))
	return pct, rank(sorted(xs), pct)
}

// rank is the nearest-rank percentile of an ascending slice.
func rank(s []float64, pct float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(pct/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
