package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"accentmig/internal/experiments"
)

func smallConfig(t *testing.T) runConfig {
	return runConfig{
		golden:   filepath.Join("..", goldenPath),
		cacheDir: filepath.Join(t.TempDir(), "cache"),
		small:    true,
	}
}

// openSmall opens a reduced-size workload; paper-warm is filled by a
// set-up open first, as the benchmark's set-up child does.
func openSmall(t *testing.T, name string, c runConfig) bench {
	t.Helper()
	s, ok := findSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if name == "paper-warm" {
		fc := c
		fc.fill = true
		w, err := s.open(fc)
		if err != nil {
			t.Fatal(err)
		}
		if got := setupCounters(w)["experiments.disk_writes"]; got == 0 {
			t.Errorf("paper-warm fill wrote no cache entries")
		}
	}
	w, err := s.open(c)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEveryWorkloadOneRep(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			r, err := doRep(openSmall(t, s.name, smallConfig(t)), false)
			if err != nil {
				t.Fatal(err)
			}
			if res := tally(io.Discard, []*repReport{r}); !res.Correct {
				t.Fatalf("rep failed: %s", r.Err)
			}
			if r.Digest == "" || r.WallS <= 0 {
				t.Errorf("rep report incomplete: %+v", r)
			}
		})
	}
}

// TestModelMetricsRepeat runs two reps of each workload: their output
// digests and sim_* model metrics must be identical.
func TestModelMetricsRepeat(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			c := smallConfig(t)
			c.seed = 7
			w := openSmall(t, s.name, c)
			var reps []*repReport
			for i := 0; i < 2; i++ {
				r, err := doRep(w, false)
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
			}
			if res := tally(io.Discard, reps); res.Failed != 0 {
				t.Fatalf("reps disagree: %q, %q", reps[0].Err, reps[1].Err)
			}
			n := 0
			for k, v := range reps[0].Counters {
				if isModelMetric(k) {
					n++
					if reps[1].Counters[k] != v {
						t.Errorf("%s: %v then %v", k, v, reps[1].Counters[k])
					}
				}
			}
			if n == 0 {
				t.Error("rep reports no model metrics")
			}
		})
	}
}

// The negative tests: a rep whose output is wrong must count as failed,
// and the run must go on rather than crash or pass.

func TestTamperedGoldenFails(t *testing.T) {
	w := openSmall(t, "paper-cold", smallConfig(t)).(*paper)
	tampered := strings.Replace(w.golden, "Representative Address Space", "Tampered Address Space", 1)
	if tampered == w.golden {
		t.Fatal("golden has no Table 4-1 section to tamper with")
	}
	w.golden = tampered
	r, err := doRep(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err == "" {
		t.Fatal("rep passed against a tampered golden")
	}
	res := tally(io.Discard, []*repReport{r})
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("tally = %+v, want one failed rep", res)
	}
}

func TestShardMismatchFails(t *testing.T) {
	w := openSmall(t, "cluster-32", smallConfig(t)).(*cluster)
	ok, err := doRep(w, false)
	if err != nil {
		t.Fatal(err)
	}
	w.tamper = func(r *experiments.ShardStressResult) { r.Completed++ }
	bad, err := doRep(w, false)
	if err != nil {
		t.Fatal(err)
	}
	res := tally(io.Discard, []*repReport{ok, bad})
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("tally = %+v, want one of two reps failed", res)
	}
}

func TestDigestMismatchFails(t *testing.T) {
	a := &repReport{Digest: "a", Counters: counters{"sim_wire_mb": 1}}
	b := &repReport{Digest: "b", Counters: counters{"sim_wire_mb": 1}}
	c := &repReport{Digest: "a", Counters: counters{"sim_wire_mb": 2}}
	res := tally(io.Discard, []*repReport{a, b, c})
	if res.Failed != 2 {
		t.Errorf("tally = %+v, want the digest and the model drift both failed", res)
	}
}

// TestTracedRep checks a traced rep carries a decodable profile, spans
// for each harness and CPU charged to named layers.
func TestTracedRep(t *testing.T) {
	r, err := doRep(openSmall(t, "paper-cold", smallConfig(t)), true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Traced || len(r.Profile) == 0 {
		t.Fatal("traced rep has no profile")
	}
	names := map[string]bool{}
	for _, s := range r.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"rep", "experiments.table4-1", "experiments.table4-2"} {
		if !names[want] {
			t.Errorf("no %q span in %v", want, r.Spans)
		}
	}
	var named int64
	for _, ns := range r.LayerNs {
		named += ns
	}
	if named > r.ProfNs {
		t.Errorf("named layers hold %d ns of %d profiled", named, r.ProfNs)
	}
}
