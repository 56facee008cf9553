package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"accentmig/internal/experiments"
	"accentmig/internal/obs"
	"accentmig/internal/workload"
)

func TestParseKindsDefault(t *testing.T) {
	kinds, err := parseKinds("")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(workload.Kinds()) {
		t.Errorf("default kinds = %d, want all %d", len(kinds), len(workload.Kinds()))
	}
}

func TestParseKindsFilter(t *testing.T) {
	kinds, err := parseKinds("Minprog, chess")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != workload.Minprog || kinds[1] != workload.Chess {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestParseKindsCaseInsensitive(t *testing.T) {
	kinds, err := parseKinds("lisp-t,PM-END")
	if err != nil {
		t.Fatal(err)
	}
	if kinds[0] != workload.LispT || kinds[1] != workload.PMEnd {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestParseKindsUnknown(t *testing.T) {
	if _, err := parseKinds("Emacs"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("table9-9", experiments.Params{Kinds: workload.Kinds()}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestProfileTraceHoldsEvents: -exp profile traces each trial into a
// sink of its own to build the profile, and -trace must still get
// those events.
func TestProfileTraceHoldsEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChromeSink(&buf)
	tunables.sink = sink
	defer func() { tunables.sink = nil }()
	if err := run("profile", experiments.Params{Kinds: []workload.Kind{workload.Minprog}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("-exp profile -trace wrote %d bytes and no traceEvents", buf.Len())
	}
}

// TestRejectsOutOfRangeNumbers: a numeric flag no run can use is an
// error that names the flag, not a panic or a run on a negative rate.
func TestRejectsOutOfRangeNumbers(t *testing.T) {
	saved := tunables
	defer func() { tunables = saved }()
	tunables.maxRetries = -1 // the flag's default
	defaults := tunables
	if err := checkRanges(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		flag string
		set  func()
	}{
		{"-chaos-trials", func() { tunables.chaosTrials = -1 }},
		{"-physframes", func() { tunables.physFrames = -1 }},
		{"-bandwidth", func() { tunables.bandwidth = -5 }},
		{"-window", func() { tunables.window = -1 }},
		{"-outstanding", func() { tunables.outstanding = -1 }},
		{"-shards", func() { tunables.shards = -1 }},
		{"-max-retries", func() { tunables.maxRetries = -2 }},
	} {
		tunables = defaults
		tc.set()
		err := checkRanges()
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%s out of range: err = %v, want one naming the flag", tc.flag, err)
		}
	}
}

// traceRun returns the JSONL trace of `migsim -exp id -parallel
// workers` over kinds.
func traceRun(t *testing.T, id string, workers int, kinds ...workload.Kind) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	tunables.sink = sink
	experiments.SetWorkers(workers)
	defer func() {
		tunables.sink = nil
		experiments.SetWorkers(0)
	}()
	if err := run(id, experiments.Params{Kinds: kinds}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSameAtAnyParallel: traced trials run one at a time, so a
// trace file is the same bytes at any -parallel, on every run.
func TestTraceSameAtAnyParallel(t *testing.T) {
	seq := traceRun(t, "table4-3", 1, workload.Minprog)
	if len(seq) == 0 {
		t.Fatal("-parallel 1 wrote an empty trace")
	}
	for i := 0; i < 3; i++ {
		if par := traceRun(t, "table4-3", 4, workload.Minprog); !bytes.Equal(seq, par) {
			t.Fatalf("-parallel 1 wrote %d trace bytes, -parallel 4 run %d wrote %d different ones", len(seq), i, len(par))
		}
	}
}

// TestEachTrialHasItsOwnTracks: every trial of a traced run writes on
// tracks of its own. Each trial migrates its process once, so a track
// with two excise phases holds two trials.
func TestEachTrialHasItsOwnTracks(t *testing.T) {
	trace := traceRun(t, "table4-3", 0, workload.Minprog)
	excises := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		var ev struct{ Kind, Machine, Name string }
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Kind == "PhaseBegin" && ev.Name == "excise" {
			excises[ev.Machine]++
		}
	}
	if len(excises) < 2 {
		t.Fatalf("excise phases on %v, want one track per trial", excises)
	}
	for track, n := range excises {
		if n != 1 {
			t.Errorf("track %s holds %d trials' excise phases", track, n)
		}
	}
}

// captureRunAll renders every -exp all experiment in order, exactly as
// `migsim -exp all` prints them at the default flags.
func captureRunAll(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	p := experiments.Params{Kinds: workload.Kinds()}
	for _, e := range experiments.Experiments() {
		if !e.InAll {
			continue
		}
		s, err := e.Render(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out.WriteString(s)
	}
	return out.Bytes()
}

// TestGoldenWithDiskCache is the warm-vs-cold byte-identity gate: the
// full -exp all output must match testdata/exp_all.golden with the
// persistent cache enabled, both on the cold run that populates the
// cache and on a warm rerun served entirely from disk.
func TestGoldenWithDiskCache(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	d, err := experiments.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	experiments.Default.Reset()
	experiments.Default.SetDisk(d)
	defer func() {
		experiments.Default.SetDisk(nil)
		experiments.Default.Reset()
	}()

	cold := captureRunAll(t)
	if !bytes.Equal(cold, golden) {
		t.Fatalf("cold output with cache enabled differs from golden (%d vs %d bytes)", len(cold), len(golden))
	}
	st := d.Stats()
	if st.Writes == 0 || st.Hits != 0 {
		t.Fatalf("cold run stats %+v, want writes and no hits", st)
	}

	// Drop the in-memory level so the warm run can only be served from
	// disk.
	experiments.Default.Reset()
	warm := captureRunAll(t)
	if !bytes.Equal(warm, golden) {
		t.Fatalf("warm output from disk cache differs from golden (%d vs %d bytes)", len(warm), len(golden))
	}
	want := st
	want.Hits = st.Writes
	if got := d.Stats(); got != want {
		t.Fatalf("warm run stats %+v, want %+v: every entry the cold run wrote hit, with no new miss, write or reject",
			got, want)
	}
}

// TestIdentityNamesEveryExtraExperiment checks that each experiment
// outside -exp all, which the golden cannot cover, has a line of its own
// in testdata/identity.txt.
func TestIdentityNamesEveryExtraExperiment(t *testing.T) {
	lines, err := os.ReadFile("../../testdata/identity.txt")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, line := range strings.Split(string(lines), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		args, _, _ := strings.Cut(line, "|")
		fs := strings.Fields(args)
		for i := 0; i+1 < len(fs); i++ {
			if fs[i] == "-exp" {
				named[fs[i+1]] = true
			}
		}
	}
	for _, e := range experiments.Experiments() {
		if e.InAll {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if !named[e.ID] {
				t.Errorf("no line of testdata/identity.txt runs -exp %s", e.ID)
			}
		})
	}
}
