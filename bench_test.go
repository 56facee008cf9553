package accentmig

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// BenchmarkExperiments regenerates each entry of the experiment table,
// one sub-benchmark per id, with the arguments `migsim -exp <id>` runs
// at its default flags: every workload, a 200-trial chaos campaign.
// Each op renders the entry from an empty memo, so it simulates what it
// reads instead of timing memo hits of the previous op; absolute wall
// time only measures the simulator itself.
func BenchmarkExperiments(b *testing.B) {
	p := experiments.Params{Kinds: workload.Kinds(), ChaosTrials: 200}
	for _, e := range experiments.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				experiments.Default.Reset()
				b.StartTimer()
				if _, err := e.Render(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGridSweepSeq runs the full three-workload grid strictly
// sequentially with no cache — the reference cost of one sweep.
func BenchmarkGridSweepSeq(b *testing.B) {
	kinds := []workload.Kind{workload.Minprog, workload.LispDel, workload.Chess}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGridSeq(experiments.Config{}, kinds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSweepEngine runs the same grid through the trial engine
// (worker pool, cold cache each op) for a like-for-like comparison
// with BenchmarkGridSweepSeq.
func BenchmarkGridSweepEngine(b *testing.B) {
	kinds := []workload.Kind{workload.Minprog, workload.LispDel, workload.Chess}
	e := experiments.NewEngine(0)
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.RunGrid(experiments.Config{}, kinds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSpeedup times the seven-workload grid sequentially and
// through a fresh four-worker engine, five alternating samples of each
// per op, and compares the two medians, so one noisy sample cannot
// decide it. Four workers contend for the cores even on a host with
// fewer. On a host with more than one CPU an engine with more than one
// worker must beat the sequential sweep. The check is a wall-clock
// ratio, so only `make bench` runs it.
func BenchmarkGridSpeedup(b *testing.B) {
	const samples = 5
	kinds := workload.Kinds()
	var seq, par []time.Duration
	var workers int
	for i := 0; i < b.N; i++ {
		for j := 0; j < samples; j++ {
			start := time.Now()
			if _, err := experiments.RunGridSeq(experiments.Config{}, kinds); err != nil {
				b.Fatal(err)
			}
			seq = append(seq, time.Since(start))
			e := experiments.NewEngine(4)
			workers = e.Workers()
			start = time.Now()
			if _, err := e.RunGrid(experiments.Config{}, kinds); err != nil {
				b.Fatal(err)
			}
			par = append(par, time.Since(start))
		}
	}
	seqMed, parMed := median(seq), median(par)
	speedup := seqMed.Seconds() / parMed.Seconds()
	b.ReportMetric(seqMed.Seconds()*1e3, "seq-median-ms")
	b.ReportMetric(parMed.Seconds()*1e3, "engine-median-ms")
	b.ReportMetric(speedup, "speedup")
	if runtime.NumCPU() > 1 && workers > 1 && speedup <= 1 {
		b.Errorf("grid speedup %.2fx <= 1 on a %d-core host (%d workers, medians of %d samples): parallel engine regressed",
			speedup, runtime.NumCPU(), workers, len(seq))
	}
}

// median returns the middle sample (the upper of the two middle ones
// for an even count).
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// BenchmarkShardSweep runs the 32-machine shard-stress scenario at 1,
// 2, 4 and 8 lanes and reports each sharded count's speedup over the
// sequential kernel. A sharded result that differs from the sequential
// one fails it: a fast kernel that computes something else is
// worthless. On a host with more than one CPU every count of four or
// more lanes must be at least twice as fast. Like BenchmarkGridSpeedup
// it is a wall-clock check that only `make bench` runs.
func BenchmarkShardSweep(b *testing.B) {
	lanes := []int{1, 2, 4, 8} // one lane is the sequential kernel
	wall := make([]time.Duration, len(lanes))
	for i := 0; i < b.N; i++ {
		var seq *experiments.ShardStressResult
		for j, n := range lanes {
			res, perf, err := experiments.RunShardStress(experiments.ShardStressOptions{Machines: 32, Shards: n})
			if err != nil {
				b.Fatal(err)
			}
			if n == 1 {
				seq = res
			} else if !reflect.DeepEqual(res, seq) {
				b.Fatalf("%d-lane result differs from the sequential kernel's", n)
			}
			wall[j] += perf.Wall
		}
	}
	for j := 1; j < len(lanes); j++ {
		speedup := wall[0].Seconds() / wall[j].Seconds()
		b.ReportMetric(speedup, fmt.Sprintf("lanes%d-speedup", lanes[j]))
		if runtime.NumCPU() > 1 && lanes[j] >= 4 && speedup < 2 {
			b.Errorf("%.2fx speedup at %d lanes on a %d-core host, want >= 2x",
				speedup, lanes[j], runtime.NumCPU())
		}
	}
}
