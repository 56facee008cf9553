// Command migsim runs the reproduction experiments: every table and
// figure of the paper's evaluation section, the §4.5 summary, and the
// design-choice ablations.
//
// Usage:
//
//	migsim -exp table4-1            # one experiment
//	migsim -exp all                 # everything (one shared parallel sweep)
//	migsim -exp figure4-1 -kinds Minprog,Chess
//	migsim -exp all -parallel 1     # force sequential trials
//	migsim -exp resilience          # fault-injection sweep
//	migsim -exp pipeline            # windowed-transport sweep (not part of 'all')
//	migsim -exp dedup               # content-addressed store sweep (not part of 'all')
//	migsim -exp profile -kinds Lisp-Del  # critical path and blame per strategy (not part of 'all')
//	migsim -exp summary -dedup      # any experiment with the page store on
//	migsim -exp summary -window 16  # any experiment under a pipelined transport
//	migsim -exp table4-5 -faults plan.json -max-retries 2
//	migsim -exp all -memo-cache   # warm reruns load trial results from .migcache/
//	migsim -list
//
// The ids, their order and what each prints are the table
// experiments.Experiments: migsim compiles its flags into one
// experiments.Params and prints what each named entry renders.
//
// Trials are scheduled by the experiments.Engine: independent grid
// cells simulate concurrently on a worker pool (default width
// GOMAXPROCS) and are memoized, so -exp all simulates each (workload,
// strategy, prefetch) cell exactly once no matter how many tables and
// figures consume it. Results are bit-identical regardless of
// -parallel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"accentmig/internal/experiments"
	"accentmig/internal/faults"
	"accentmig/internal/obs"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

var tunables struct {
	physFrames int
	bandwidth  int
	dropProb   float64

	faultsPath string
	crashAt    string
	maxRetries int

	window      int
	outstanding int

	chaosTrials, shards int

	dedup     bool
	compress  bool
	resume    bool
	integrity bool

	sink interface {
		obs.Sink
		Close() error
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	kindsFlag := flag.String("kinds", "", "comma-separated workload filter (default: all seven)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.IntVar(&tunables.physFrames, "physframes", 0, "physical memory frames per machine (0 = default 600); each built workload's resident set must fit (590 frames for all seven)")
	flag.IntVar(&tunables.bandwidth, "bandwidth", 0, "link rate in bytes/sec (0 = default 375000)")
	flag.Float64Var(&tunables.dropProb, "droprate", 0, "frame loss probability on the link (shorthand for a uniform fault plan)")
	flag.StringVar(&tunables.faultsPath, "faults", "", "JSON fault plan file injected into every trial (see docs/RESILIENCE.md)")
	flag.StringVar(&tunables.crashAt, "crash-at", "", "crash the source machine's backer at this migration phase (excise, xfer.core, xfer.rimas, remote)")
	flag.IntVar(&tunables.maxRetries, "max-retries", -1, "migration retry budget with strategy degradation (-1 = experiment default)")
	flag.IntVar(&tunables.window, "window", 0, "transport send window in fragments (0/1 = paper-faithful stop-and-wait)")
	flag.IntVar(&tunables.outstanding, "outstanding", 0, "outstanding IOU page-run fetches per pager (0/1 = serial demand faults)")
	flag.BoolVar(&tunables.dedup, "dedup", false, "enable the content-addressed page store (manifest elision + fault hints)")
	flag.BoolVar(&tunables.compress, "compress", false, "enable the modeled wire compressor (implies -dedup)")
	flag.BoolVar(&tunables.resume, "resume", false, "enable the delivery ledger: retries resume from pages an aborted attempt already delivered")
	flag.BoolVar(&tunables.integrity, "integrity", false, "enable per-page checksums with targeted re-fetch of corrupt installs")
	flag.IntVar(&tunables.chaosTrials, "chaos-trials", 200, "randomized fault trials for -exp chaos")
	flag.IntVar(&tunables.shards, "shards", 1, "event-lane workers for the sharded kernel in -exp shardstress (1 = sequential kernel, the default path)")
	csv := flag.Bool("csv", false, "emit figure data as CSV instead of text")
	trace := flag.String("trace", "", "write a flight-recorder trace of every simulation to this file: each trial once, on the tracks of the first experiment that asks for it, with the disk cache skipped (table4-1 and shardstress write no events)")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl or chrome (Perfetto-loadable)")
	seed := flag.Uint64("seed", 0, "base seed perturbing all random streams (0 = calibrated defaults)")
	parallel := flag.Int("parallel", 0, "trial worker-pool width (0 = GOMAXPROCS; 1 = sequential)")
	memoCache := flag.Bool("memo-cache", false, "persist trial results in a disk cache (default .migcache/) reused across runs")
	memoCacheDir := flag.String("memo-cache-dir", "", "disk cache directory (implies -memo-cache)")
	flag.Parse()
	if err := checkRanges(); err != nil {
		fatal(err)
	}

	experiments.SetWorkers(*parallel)
	if *memoCache || *memoCacheDir != "" {
		d, err := experiments.OpenDiskCache(*memoCacheDir, 0)
		if err != nil {
			fatal(err)
		}
		experiments.Default.SetDisk(d)
	}

	if *list {
		for _, e := range experiments.Experiments() {
			fmt.Println(e.ID)
		}
		return
	}

	xrand.SetBaseSeed(*seed)

	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		fatal(err)
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		switch *traceFormat {
		case "jsonl":
			tunables.sink = obs.NewJSONLSink(f)
		case "chrome":
			tunables.sink = obs.NewChromeSink(f)
		default:
			fatal(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat))
		}
	}

	cfg, err := baseConfig()
	if err != nil {
		fatal(err)
	}
	p := experiments.Params{Config: cfg, Kinds: kinds, CSV: *csv, ChaosTrials: tunables.chaosTrials, Seed: *seed, Shards: tunables.shards}
	ids := []string{*exp}
	if *exp == "all" {
		ids = nil
		for _, e := range experiments.Experiments() {
			if e.InAll {
				ids = append(ids, e.ID)
			}
		}
	}
	for _, id := range ids {
		if err := run(os.Stdout, id, p); err != nil {
			fatal(err)
		}
	}
	if tunables.sink != nil {
		if err := tunables.sink.Close(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "migsim:", err)
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

// checkRanges rejects a numeric flag no run can use: a negative count,
// size, rate or width, or a retry budget below -1 (the default).
func checkRanges() error {
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"chaos-trials", tunables.chaosTrials, 0},
		{"physframes", tunables.physFrames, 0},
		{"bandwidth", tunables.bandwidth, 0},
		{"window", tunables.window, 0},
		{"outstanding", tunables.outstanding, 0},
		{"shards", tunables.shards, 0},
		{"max-retries", tunables.maxRetries, -1},
	} {
		if f.val < f.min {
			return fmt.Errorf("-%s %d is out of range (want %d or more)", f.name, f.val, f.min)
		}
	}
	return nil
}

// faultPlan compiles the fault-related flags into one plan: an
// explicit -faults file, with -droprate and -crash-at layered on top.
// Nil means no faults were requested.
func faultPlan() (*faults.Plan, error) {
	var plan *faults.Plan
	if tunables.faultsPath != "" {
		p, err := faults.Load(tunables.faultsPath)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	if tunables.dropProb > 0 {
		if plan == nil {
			plan = faults.FromDropRate(tunables.dropProb, 0)
		} else if plan.DropProb == 0 {
			plan.DropProb = tunables.dropProb
		}
	}
	if tunables.crashAt != "" {
		if plan == nil {
			plan = &faults.Plan{}
		}
		plan.Crashes = append(plan.Crashes, faults.Crash{
			Machine: "src", AtPhase: tunables.crashAt, Policy: faults.CrashFail,
		})
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// baseConfig compiles the tunable flags into the experiment config
// every experiment of the run shares.
func baseConfig() (experiments.Config, error) {
	cfg := experiments.Config{}
	cfg.Machine.PhysFrames = tunables.physFrames
	cfg.Link.BytesPerSecond = tunables.bandwidth
	if tunables.window > 1 {
		cfg.Machine.Net.Window = tunables.window
	}
	if tunables.outstanding > 1 {
		cfg.Machine.Pager.Outstanding = tunables.outstanding
	}
	if tunables.dedup || tunables.compress {
		cfg.Machine.Dedup.Enabled = true
		cfg.Machine.Dedup.Compress = tunables.compress
	}
	cfg.Machine.Dedup.Resume = tunables.resume
	cfg.Machine.Dedup.Integrity = tunables.integrity
	plan, err := faultPlan()
	if err != nil {
		return cfg, err
	}
	cfg.Faults = plan
	if tunables.maxRetries >= 0 {
		cfg.Recovery = &experiments.ResilienceOptions{
			MaxRetries: tunables.maxRetries,
			Degrade:    true,
			AckTimeout: 15 * time.Minute,
		}
	}
	return cfg, nil
}

// run prints experiment id's output for p to w, as `migsim -exp id` does.
func run(w io.Writer, id string, p experiments.Params) error {
	e, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	if tunables.sink != nil {
		// Namespace every trial's machines by experiment and trial
		// number (obs.ForTrial), so one trace file holds the whole run
		// with a process group per trial's machine.
		p.Config.Sink = obs.WithPrefix(tunables.sink, id+"/")
	}
	out, err := e.Render(p)
	fmt.Fprint(w, out)
	return err
}
