// Command migbench measures the simulator's own performance over the
// paper's evaluation grid and writes a machine-readable baseline
// (BENCH_grid.json by default), so the repository carries a perf
// trajectory from PR to PR.
//
// For every (workload, strategy, prefetch) cell it runs one uncached
// trial and records the host wall-clock cost of simulating it alongside
// the simulation-side metrics (bytes on the simulated wire, simulated
// message-handling seconds, simulated transfer and remote-execution
// times). It then sweeps the whole grid twice more — once strictly
// sequentially, once through the parallel engine on a fresh cache — and
// reports the end-to-end speedup.
//
// Usage:
//
//	migbench                 # grid -> BENCH_grid.json
//	migbench -o out.json -kinds Minprog,Chess -parallel 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// Cell is one grid cell's measured cost.
type Cell struct {
	Kind     string  `json:"kind"`
	Strategy string  `json:"strategy"`
	Prefetch int     `json:"prefetch"`
	WallMS   float64 `json:"wall_ms"`    // host time to simulate the cell
	SimBytes uint64  `json:"sim_bytes"`  // bytes on the simulated wire
	SimMsgS  float64 `json:"sim_msg_s"`  // simulated message-handling seconds
	SimXferS float64 `json:"sim_xfer_s"` // simulated RIMAS transfer seconds
	SimExecS float64 `json:"sim_exec_s"` // simulated remote-execution seconds
}

// ShardRow is one worker-count setting of the sharded-kernel sweep:
// the same 32-machine shard-stress scenario run at a fixed lane count,
// with the host cost and the window scheduler's own counters.
type ShardRow struct {
	Shards       int     `json:"shards"` // 1 = sequential kernel path
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Windows      uint64  `json:"windows"`
	CrossEvents  uint64  `json:"cross_events"`
	StallPct     float64 `json:"barrier_stall_pct"`
	Speedup      float64 `json:"speedup_vs_seq"`
}

// Baseline is the whole report.
type Baseline struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"` // host cores; bounds any grid_speedup
	Go         string `json:"go"`
	Window     int    `json:"window"` // transport send window of the grid config
	Workers    int    `json:"workers"`
	Cells      int    `json:"cells"`
	// SpeedupVerified reports whether grid_speedup was asserted > 1: a
	// single-core host cannot verify parallel scaling, so the assertion
	// is gated on NumCPU() > 1 and this records which regime produced
	// the file. When it is false, SpeedupSkipReason says why the gate
	// was skipped, so the bench trajectory can tell "gating skipped"
	// from "speedup regressed".
	SpeedupVerified   bool    `json:"speedup_verified"`
	SpeedupSkipReason string  `json:"speedup_skip_reason,omitempty"`
	SeqWallS          float64 `json:"grid_seq_wall_s"`      // sequential sweep, no cache
	ParWallS          float64 `json:"grid_parallel_wall_s"` // engine sweep, fresh cache
	Speedup           float64 `json:"grid_speedup"`
	// Disk-cache sweep: the same grid swept twice through engines backed
	// by one persistent cache directory — first cold (every cell
	// simulated and written behind), then warm (every cell loaded from
	// disk) — so the trajectory tracks what a cross-run rerun costs.
	DiskColdWallS   float64 `json:"grid_disk_cold_wall_s"`
	DiskWarmWallS   float64 `json:"grid_disk_warm_wall_s"`
	DiskWarmSpeedup float64 `json:"grid_disk_warm_speedup"`
	// Per-cell engine overhead, meaningful even on one core: the same
	// cell simulated bare (RunTrial), through a one-worker engine with
	// a cold cache (adds dispatch + fingerprint cost), and again memoized
	// (pure cache-hit cost).
	CellDirectMS float64 `json:"cell_direct_ms"`
	CellEngineMS float64 `json:"cell_engine_ms"`
	CellMemoMS   float64 `json:"cell_memo_ms"`
	// Sharded-kernel sweep: the shard-stress scenario at 32 machines run
	// at 1/2/4/8 event-lane workers. Every sharded row's result is
	// verified byte-identical to the sequential row before timing is
	// trusted. The >= 2x speedup assertion at 4+ workers is gated the
	// same way as grid_speedup: a single-core host records the rows but
	// marks them unverified.
	ShardMachines          int        `json:"shard_machines"`
	ShardSpeedupVerified   bool       `json:"shard_speedup_verified"`
	ShardSpeedupSkipReason string     `json:"shard_speedup_skip_reason,omitempty"`
	ShardSweep             []ShardRow `json:"shard_sweep"`
	Grid                   []Cell     `json:"grid"`
}

// measureEngineOverhead times one fixed cell (Minprog/Copy, the
// cheapest in the grid) three ways, averaged over iters runs: directly,
// through a fresh one-worker engine, and as a memo hit. The deltas
// isolate the engine's dispatch and memoization costs from simulation
// time, which is what a single-core host can still meaningfully track.
func measureEngineOverhead(cfg experiments.Config, iters int) (directMS, engineMS, memoMS float64, err error) {
	kind, strat := workload.Minprog, core.PureCopy
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err = experiments.RunTrial(cfg, kind, strat, 0); err != nil {
			return
		}
		directMS += float64(time.Since(start).Nanoseconds()) / 1e6

		eng := experiments.NewEngine(1)
		start = time.Now()
		if _, err = eng.Trial(cfg, kind, strat, 0); err != nil {
			return
		}
		engineMS += float64(time.Since(start).Nanoseconds()) / 1e6

		start = time.Now()
		if _, err = eng.Trial(cfg, kind, strat, 0); err != nil {
			return
		}
		memoMS += float64(time.Since(start).Nanoseconds()) / 1e6
	}
	n := float64(iters)
	return directMS / n, engineMS / n, memoMS / n, nil
}

// measureDiskSweep times the grid through the persistent disk cache:
// once cold (an empty cache directory, so every cell simulates and is
// written behind) and once warm (a fresh engine over the now-populated
// directory, so every cell loads from disk). With dir empty a temp
// directory is used and removed afterwards; a named directory persists
// for cross-run inspection. The warm sweep is verified to have hit disk
// for every cell — a silent fall-through to simulation would make the
// "warm" number a lie.
func measureDiskSweep(cfg experiments.Config, kinds []workload.Kind, parallel int, dir string) (coldS, warmS float64, err error) {
	if dir == "" {
		dir, err = os.MkdirTemp("", "migbench-cache-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
	}
	disk, err := experiments.OpenDiskCache(dir, 0)
	if err != nil {
		return 0, 0, err
	}
	cold := experiments.NewEngine(parallel)
	cold.SetDisk(disk)
	start := time.Now()
	if _, err := cold.RunGrid(cfg, kinds); err != nil {
		return 0, 0, err
	}
	coldS = time.Since(start).Seconds()

	warmDisk, err := experiments.OpenDiskCache(dir, 0)
	if err != nil {
		return 0, 0, err
	}
	warm := experiments.NewEngine(parallel)
	warm.SetDisk(warmDisk)
	start = time.Now()
	if _, err := warm.RunGrid(cfg, kinds); err != nil {
		return 0, 0, err
	}
	warmS = time.Since(start).Seconds()
	if st := warmDisk.Stats(); st.Misses > 0 {
		return 0, 0, fmt.Errorf("warm disk sweep missed %d cells (hits %d): persistent cache not serving", st.Misses, st.Hits)
	}
	return coldS, warmS, nil
}

// measureShardSweep runs the shard-stress scenario at machines machines
// once per worker count in shards (1 first, as the sequential baseline)
// and returns the timing rows. Every sharded run's deterministic result
// is checked byte-identical against the sequential run — a fast sharded
// kernel that computes something different is worthless, so the sweep
// refuses to report it.
func measureShardSweep(machines int, shards []int) ([]ShardRow, error) {
	var rows []ShardRow
	var seq *experiments.ShardStressResult
	for _, s := range shards {
		o := experiments.ShardStressOptions{Machines: machines, Shards: s}
		res, perf, err := experiments.RunShardStress(o)
		if err != nil {
			return nil, err
		}
		if s <= 1 {
			seq = res
		} else if !reflect.DeepEqual(res, seq) {
			return nil, fmt.Errorf("shard sweep: %d-worker result differs from sequential kernel", s)
		}
		row := ShardRow{
			Shards:       s,
			WallMS:       float64(perf.Wall.Nanoseconds()) / 1e6,
			Events:       perf.Events,
			EventsPerSec: perf.EventsPerSec,
			Windows:      perf.Windows,
			CrossEvents:  perf.CrossEvents,
			StallPct:     perf.StallPct,
		}
		if len(rows) == 0 {
			row.Speedup = 1
		} else if row.WallMS > 0 {
			row.Speedup = rows[0].WallMS / row.WallMS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func main() {
	out := flag.String("o", "BENCH_grid.json", "output file")
	kindsFlag := flag.String("kinds", "", "comma-separated workload filter (default: all seven)")
	parallel := flag.Int("parallel", 0, "engine worker-pool width (0 = GOMAXPROCS)")
	memoDir := flag.String("memo-cache-dir", "", "directory for the disk-cache cold/warm sweep (default: fresh temp dir, removed afterwards)")
	flag.Parse()

	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		fatal(err)
	}

	cfg := experiments.Config{}
	keys := experiments.GridKeys(kinds)
	b := Baseline{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		Go:         runtime.Version(),
		Window:     1, // the grid runs the paper-faithful stop-and-wait transport
		Cells:      len(keys),
	}

	// Per-cell wall-clock, measured on one core with no cache in play.
	seqStart := time.Now()
	for _, key := range keys {
		cellStart := time.Now()
		tr, err := experiments.RunTrial(cfg, key.Kind, key.Strategy, key.Prefetch)
		if err != nil {
			fatal(err)
		}
		b.Grid = append(b.Grid, Cell{
			Kind:     key.Kind.String(),
			Strategy: key.Strategy.String(),
			Prefetch: key.Prefetch,
			WallMS:   float64(time.Since(cellStart).Nanoseconds()) / 1e6,
			SimBytes: tr.BytesTotal,
			SimMsgS:  tr.MsgTime.Seconds(),
			SimXferS: tr.Report.RIMASTransfer.Seconds(),
			SimExecS: tr.RemoteExec.Seconds(),
		})
	}
	b.SeqWallS = time.Since(seqStart).Seconds()

	// Whole-sweep comparison: fresh engine so nothing is pre-cached.
	eng := experiments.NewEngine(*parallel)
	b.Workers = eng.Workers()
	parStart := time.Now()
	if _, err := eng.RunGrid(cfg, kinds); err != nil {
		fatal(err)
	}
	b.ParWallS = time.Since(parStart).Seconds()
	if b.ParWallS > 0 {
		b.Speedup = b.SeqWallS / b.ParWallS
	}

	// The parallel-speedup assertion only means something with real
	// cores to scale onto; a single-core host records the numbers but
	// marks them unverified.
	switch {
	case runtime.NumCPU() <= 1:
		b.SpeedupSkipReason = "single-core host"
	case b.Workers <= 1:
		b.SpeedupSkipReason = "single engine worker"
	default:
		b.SpeedupVerified = true
		if b.Speedup <= 1 {
			fatal(fmt.Errorf("grid_speedup %.2fx <= 1 on a %d-core host (%d workers): parallel engine regressed",
				b.Speedup, b.CPUs, b.Workers))
		}
	}

	b.DiskColdWallS, b.DiskWarmWallS, err = measureDiskSweep(cfg, kinds, *parallel, *memoDir)
	if err != nil {
		fatal(err)
	}
	if b.DiskWarmWallS > 0 {
		b.DiskWarmSpeedup = b.DiskColdWallS / b.DiskWarmWallS
	}

	b.CellDirectMS, b.CellEngineMS, b.CellMemoMS, err = measureEngineOverhead(cfg, 10)
	if err != nil {
		fatal(err)
	}

	b.ShardMachines = 32
	b.ShardSweep, err = measureShardSweep(b.ShardMachines, []int{1, 2, 4, 8})
	if err != nil {
		fatal(err)
	}
	switch {
	case runtime.NumCPU() <= 1:
		b.ShardSpeedupSkipReason = "single-core host"
	default:
		b.ShardSpeedupVerified = true
		for _, row := range b.ShardSweep {
			if row.Shards >= 4 && row.Speedup < 2 {
				fatal(fmt.Errorf("shard sweep: %.2fx speedup at %d workers on a %d-core host, want >= 2x",
					row.Speedup, row.Shards, runtime.NumCPU()))
			}
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&b); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	verified := "unverified: single core"
	if b.SpeedupVerified {
		verified = "verified"
	}
	fmt.Printf("migbench: %d cells, sequential %.2fs, parallel %.2fs (%d workers, %.2fx %s) -> %s\n",
		b.Cells, b.SeqWallS, b.ParWallS, b.Workers, b.Speedup, verified, *out)
	fmt.Printf("migbench: cell overhead direct %.2fms, engine %.2fms (+%.2fms dispatch), memo %.3fms\n",
		b.CellDirectMS, b.CellEngineMS, b.CellEngineMS-b.CellDirectMS, b.CellMemoMS)
	fmt.Printf("migbench: disk cache cold %.2fs, warm %.2fs (%.1fx)\n",
		b.DiskColdWallS, b.DiskWarmWallS, b.DiskWarmSpeedup)
	for _, row := range b.ShardSweep {
		mode := fmt.Sprintf("%d lanes", row.Shards)
		if row.Shards <= 1 {
			mode = "sequential"
		}
		fmt.Printf("migbench: shardstress %dm %-10s wall %7.1fms  %9.0f ev/s  stall %5.1f%%  speedup %.2fx\n",
			b.ShardMachines, mode, row.WallMS, row.EventsPerSec, row.StallPct, row.Speedup)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "migbench:", err)
	os.Exit(1)
}

func parseKinds(s string) ([]workload.Kind, error) {
	if s == "" {
		return workload.Kinds(), nil
	}
	byName := map[string]workload.Kind{}
	for _, k := range workload.Kinds() {
		byName[strings.ToLower(k.String())] = k
	}
	var out []workload.Kind
	for _, name := range strings.Split(s, ",") {
		k, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, k)
	}
	return out, nil
}
