//go:build !race

package accentmig

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// hostCostFile holds the committed figures TestHostCost checks.
const hostCostFile = "testdata/hostcost.txt"

// hostCostSlack is how far a figure may rise above its committed value.
const hostCostSlack = 0.01

// hostCost is what one load allocated: bytes and heap objects, as
// runtime.MemStats counts them (TotalAlloc and Mallocs).
type hostCost struct {
	bytes, allocs uint64
}

// TestHostCost is an exact host-cost gate. Time on a shared host is
// too noisy to settle a 10% change, but what a fixed load allocates is
// the same on every run of one toolchain. Two loads are measured:
//
//   - paper-sweep: the paper's evaluation (every table and figure, and
//     the summary, rendered as migsim prints them) on the default
//     engine with one worker, after a first sweep has drawn the
//     workload templates and the engine has been reset;
//   - chaos-campaign: one 64-trial chaos campaign, seed 1, on a fresh
//     one-worker engine.
//
// The test fails when either figure of either load rises more than 1%
// above testdata/hostcost.txt. A change that lowers a figure commits
// the new one; a change that must raise one commits it and says why.
// The figures belong to the Go release the file's header names; under
// another release the test skips. The race runtime allocates
// differently, so the file is built without -race.
func TestHostCost(t *testing.T) {
	release, want := readHostCost(t)
	if r := goRelease(runtime.Version()); r != release {
		t.Skipf("%s holds figures for %s; this is %s (re-measure and commit them for a new release)",
			hostCostFile, release, runtime.Version())
	}

	experiments.SetWorkers(1)
	t.Cleanup(func() {
		experiments.SetWorkers(0)
		experiments.Default.Reset()
	})
	if err := paperSweep(); err != nil {
		t.Fatal(err)
	}
	experiments.Default.Reset()
	got := map[string]hostCost{}
	var err error
	if got["paper-sweep"], err = measure(paperSweep); err != nil {
		t.Fatal(err)
	}
	if got["chaos-campaign"], err = measure(chaosCampaign); err != nil {
		t.Fatal(err)
	}

	for _, load := range []string{"paper-sweep", "chaos-campaign"} {
		g, w := got[load], want[load]
		t.Logf("%s: %d bytes in %d allocations (committed %d, %d)", load, g.bytes, g.allocs, w.bytes, w.allocs)
		for _, f := range []struct {
			name      string
			got, want uint64
		}{{"bytes", g.bytes, w.bytes}, {"allocs", g.allocs, w.allocs}} {
			if float64(f.got) > float64(f.want)*(1+hostCostSlack) {
				t.Errorf("%s %s = %d, more than 1%% above the committed %d", load, f.name, f.got, f.want)
			}
		}
	}
}

// measure runs load and reports what it allocated.
func measure(load func() error) (hostCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := load()
	runtime.ReadMemStats(&after)
	return hostCost{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}, err
}

// paperSweep renders the paper's evaluation exactly as migsim prints
// it: the entries of experiments.Experiments from the first, table4-1,
// through summary, on the default engine.
func paperSweep() error {
	p := experiments.Params{Kinds: workload.Kinds()}
	for _, e := range experiments.Experiments() {
		if _, err := e.Render(p); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if e.ID == "summary" {
			return nil
		}
	}
	return fmt.Errorf("experiments.Experiments has no summary entry")
}

// chaosCampaign runs one 64-trial campaign at seed 1 on one worker.
func chaosCampaign() error {
	rep, err := experiments.NewEngine(1).Chaos(experiments.Config{}, 64, 1)
	if err == nil && len(rep.Violations) > 0 {
		err = fmt.Errorf("chaos campaign: %d invariant violations", len(rep.Violations))
	}
	return err
}

// readHostCost parses testdata/hostcost.txt: comment lines, one
// "# go: VERSION" line naming the toolchain the figures were measured
// with, and one "LOAD BYTES ALLOCS" line per load. It returns the
// version's release (go1.24 for go1.24.0) and the figures.
func readHostCost(t *testing.T) (string, map[string]hostCost) {
	t.Helper()
	f, err := os.Open(hostCostFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	release := ""
	costs := map[string]hostCost{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "# go: "); ok {
			release = goRelease(v)
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("%s: %q is not \"LOAD BYTES ALLOCS\"", hostCostFile, line)
		}
		b, err1 := strconv.ParseUint(fs[1], 10, 64)
		a, err2 := strconv.ParseUint(fs[2], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %q: bad figure", hostCostFile, line)
		}
		costs[fs[0]] = hostCost{b, a}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if release == "" {
		t.Fatalf("%s: no \"# go: VERSION\" header", hostCostFile)
	}
	for _, load := range []string{"paper-sweep", "chaos-campaign"} {
		if _, ok := costs[load]; !ok {
			t.Fatalf("%s: no %s line", hostCostFile, load)
		}
	}
	return release, costs
}

// goRelease trims a toolchain version to its release: go1.24.0 and
// go1.24.9 are both go1.24. The gate holds every patch release of the
// measured one to its figures; a new release re-measures them.
func goRelease(v string) string {
	if i := strings.Index(v, "."); i >= 0 {
		if j := strings.Index(v[i+1:], "."); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}
