// Command bench is the simulator's benchmark of record. It runs four
// workloads through the public APIs of the experiment harnesses, checks
// every rep for correctness, and reports host-side end-to-end metrics
// from an untraced run or per-layer metrics from a traced one.
//
// Run it from the repository root; bench/run.sh builds it first:
//
//	bash bench/run.sh --workload paper-cold --seed 0 --seconds 10 --trace 0
//	bash bench/run.sh --workload chaos --trace 1 --trace-dir traces
//	bash bench/run.sh --workload cluster-32 -o new.jsonl
//	bash bench/run.sh -compare old.jsonl new.jsonl
//
// Without --workload it runs all four in turn. The last line of output
// is the run's result as one JSON object. README.md describes the
// workloads, the metrics and how to read a comparison.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// goldenPath is the committed `migsim -exp all` output, relative to the
// repository root the benchmark runs from.
const goldenPath = "testdata/exp_all.golden"

// setupSamples is how many times an untraced run measures set-up.
const setupSamples = 5

// minReps keeps a run meaningful when one rep outlasts the timed phase.
const minReps = 3

// childLimit is how long any one child may run before it is killed.
const childLimit = 120 * time.Second

// minLayerShare is the least share of profiled CPU the named layers must
// account for; below it the attribution is too coarse to trust.
const minLayerShare = 95.0

// threads is the load's thread count: GOMAXPROCS and engine workers. A
// single thread keeps run-to-run spread near 4% on a shared two-CPU
// host, where two threads spread 16% (README.md, "Noise").
const threads = 1

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceDir string
	workdir  string
	out      string

	// Child modes, set by the benchmark on its own children.
	child     bool
	setupOnly bool
	probes    bool
	cacheDir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-cold, paper-warm, cluster-32 or chaos (default all four)")
	flag.Uint64Var(&o.seed, "seed", 0, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write the profiles, spans and per-layer metrics to this directory")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "working directory for disk caches")
	flag.StringVar(&o.out, "o", "", "append each run's record to this JSON-lines file, for -compare")
	compare := flag.Bool("compare", false, "compare two -o files: -compare old.jsonl new.jsonl")
	flag.BoolVar(&o.child, "child", false, "run as a child process (used by the benchmark itself)")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "with -child, set the workload up and exit")
	flag.BoolVar(&o.probes, "probes", false, "with -child, run the layer probes")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "with -child, paper-warm's disk cache")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files: old.jsonl new.jsonl")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case o.child:
		err = runChild(o)
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	} else if _, ok := findSpec(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workdir, 0o777); err != nil {
		return err
	}
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o, os.Stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if o.out != "" {
			if err := appendRecord(o, res); err != nil {
				return err
			}
		}
		js, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
	}
	return nil
}

// result is the run's last line of output: whether every rep was
// correct, how many were attempted and failed, and the metrics by name.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload measures one workload and writes a readable summary to w.
// Set-up runs first, in children that exit once it is done; then reps
// run one per child in a closed loop until the timed phase is over. A
// traced run alternates untraced and traced reps, so the tracing
// overhead is measured against reps of the same run.
func runWorkload(o options, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "workload %s  seed %d  threads %d  timed phase %gs  trace %d\n",
		o.workload, o.seed, threads, o.seconds, o.trace)

	n := setupSamples
	if o.trace == 1 {
		n = 1 // paper-warm still needs its fill
	}
	var setups []float64
	var setupC counters
	var cacheDir string
	defer func() { os.RemoveAll(cacheDir) }()
	for i := 0; i < n; i++ {
		dir := filepath.Join(o.workdir, fmt.Sprintf("warm-%d-%d", os.Getpid(), i))
		c, err := spawn(o, []string{"-setup-only", "-cache-dir", dir})
		os.RemoveAll(cacheDir)
		cacheDir = dir
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(c.last, &setupC); err != nil {
			return nil, fmt.Errorf("set-up report: %w", err)
		}
		setups = append(setups, c.setup.Seconds())
	}

	var reps []*repReport
	var rss []float64
	phase := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < phase; i++ {
		trace := "0"
		if o.trace == 1 && i%2 == 1 {
			trace = "1"
		}
		c, err := spawn(o, []string{"-cache-dir", cacheDir, "-trace", trace})
		if err != nil {
			return nil, err
		}
		var r repReport
		if err := json.Unmarshal(c.last, &r); err != nil {
			return nil, fmt.Errorf("rep report: %w", err)
		}
		for j := range r.Spans {
			r.Spans[j].Rep = i
		}
		reps = append(reps, &r)
		rss = append(rss, c.maxRSSMB)
	}
	res := tally(w, reps)

	if o.trace == 1 {
		return res, layerMetrics(o, w, res, reps, setupC)
	}
	walls, cpus := repTimes(reps, false)
	res.Metrics = map[string]valueUnit{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"setup_s":     {median(setups), "s"},
	}
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"wall_s", walls}, {"cpu_s", cpus}, {"peak_rss_mb", rss}, {"setup_s", setups}} {
		q1, q3 := quartiles(d.xs)
		p, t := tail(d.xs)
		fmt.Fprintf(w, "  %-12s median %.4f  q1 %.4f  q3 %.4f  p%.0f %.4f  n %d\n",
			d.name, median(d.xs), q1, q3, p, t, len(d.xs))
	}
	return res, nil
}

// layerMetrics fills in a traced run's per-layer metrics: CPU per layer
// and harness spans from the traced reps, counters from the untraced
// ones (their host timings carry no profiler overhead), and the probes
// from a child of their own.
func layerMetrics(o options, w io.Writer, res *result, reps []*repReport, setupC counters) error {
	values := map[string]float64{}
	for k, v := range setupC {
		values[k] = v
	}
	var traced []*repReport
	per := map[string][]float64{}
	for _, r := range reps {
		if r.Traced {
			traced = append(traced, r)
			continue
		}
		if r.Err != "" {
			continue
		}
		for k, v := range r.Counters {
			per[k] = append(per[k], v)
		}
		per["gc.alloc_mb"] = append(per["gc.alloc_mb"], r.AllocMB)
		per["gc.cycles"] = append(per["gc.cycles"], r.GCCycles)
	}
	for k, xs := range per {
		values[k] = median(xs)
	}

	var all, named int64
	layerNs := map[string]int64{}
	durs := map[string][]float64{}
	var sps []span
	for _, r := range traced {
		all += r.ProfNs
		for l, ns := range r.LayerNs {
			layerNs[l] += ns
			named += ns
		}
		for _, s := range r.Spans {
			durs[s.Name] = append(durs[s.Name], s.DurUs/1e3)
		}
		sps = append(sps, r.Spans...)
	}
	for _, l := range layers {
		values[l+".cpu_ms"] = float64(layerNs[l]) / 1e6 / float64(len(traced))
	}
	if all > 0 {
		values["trace.layer_share_pct"] = 100 * float64(named) / float64(all)
	}
	for _, h := range harnesses {
		if d := durs["experiments."+h]; d != nil {
			values["experiments."+h+"_ms"] = median(d)
		}
	}
	tw, _ := repTimes(reps, true)
	uw, _ := repTimes(reps, false)
	values["trace_overhead_pct"] = 100 * (median(tw)/median(uw) - 1)

	c, err := spawn(o, []string{"-probes"})
	if err != nil {
		return err
	}
	var pc counters
	if err := json.Unmarshal(c.last, &pc); err != nil {
		return fmt.Errorf("probe report: %w", err)
	}
	for k, v := range pc {
		values[k] = v
	}

	res.Metrics = map[string]valueUnit{}
	for _, m := range perLayer() {
		res.Metrics[m.name] = valueUnit{values[m.name], m.unit}
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	if share := values["trace.layer_share_pct"]; share < minLayerShare {
		fmt.Fprintf(w, "  FAIL: only %.1f%% of profiled CPU falls in a named layer (need %.0f%%)\n", share, minLayerShare)
		res.Correct = false
	}
	if o.traceDir == "" {
		return nil
	}
	return writeTrace(filepath.Join(o.traceDir, o.workload), traced, sps, res.Metrics)
}

// writeTrace writes a traced run's artifacts: one CPU profile per traced
// rep (`go tool pprof` merges several), every span, and the per-layer
// metrics.
func writeTrace(prefix string, traced []*repReport, sps []span, ms map[string]valueUnit) error {
	if err := os.MkdirAll(filepath.Dir(prefix), 0o777); err != nil {
		return err
	}
	for i, r := range traced {
		if err := os.WriteFile(fmt.Sprintf("%s.rep%02d.pprof", prefix, i), r.Profile, 0o666); err != nil {
			return err
		}
	}
	for name, v := range map[string]any{".spans.json": sps, ".layers.json": ms} {
		js, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(prefix+name, js, 0o666); err != nil {
			return err
		}
	}
	return nil
}

// repTimes returns the wall and CPU times of the traced or the untraced
// reps.
func repTimes(reps []*repReport, traced bool) (walls, cpus []float64) {
	for _, r := range reps {
		if r.Traced == traced {
			walls = append(walls, r.WallS)
			cpus = append(cpus, r.CPUS)
		}
	}
	return walls, cpus
}

// tally checks the reps against each other and counts the failures: a
// rep fails its own check, or its output digest or model metrics differ
// from the first good rep's, since a workload at a fixed seed is
// deterministic.
func tally(w io.Writer, reps []*repReport) *result {
	var first *repReport
	res := &result{Attempted: len(reps)}
	for i, r := range reps {
		switch {
		case r.Err != "":
		case first == nil:
			first = r
		case r.Digest != first.Digest:
			r.Err = "output differs from the first good rep's"
		default:
			if err := sameModel(r.Counters, first.Counters); err != nil {
				r.Err = err.Error()
			}
		}
		if r.Err != "" {
			res.Failed++
			fmt.Fprintf(w, "  FAIL rep %d: %s\n", i, r.Err)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "  reps %d  failed %d\n", res.Attempted, res.Failed)
	return res
}

// sameModel checks that a rep's model metrics equal the first good
// rep's: the simulation is deterministic, so any drift is a failure.
func sameModel(c, first counters) error {
	for k, v := range c {
		if isModelMetric(k) && first[k] != v {
			return fmt.Errorf("%s is %v, the first good rep had %v", k, v, first[k])
		}
	}
	return nil
}

// childRun is one finished child.
type childRun struct {
	setup    time.Duration // start to "ready", for set-up children
	maxRSSMB float64
	last     []byte // last line of output: the child's report
}

// spawn runs one child of this binary for o's workload and seed, with
// extra arguments, and waits for it to exit.
func spawn(o options, extra []string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-child",
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-workdir", o.workdir,
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	kill := time.AfterFunc(childLimit, func() { cmd.Process.Kill() })
	defer kill.Stop()

	run := &childRun{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if run.setup == 0 && sc.Text() == "ready" {
			run.setup = time.Since(start)
			continue
		}
		run.last = append(run.last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child %q: %w", args, err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("child output: %w", scanErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}
