package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestQuartilesMatchPython pins the spread method to Python's
// statistics.quantiles(xs, n=4), which the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{0.41, 0.43, 0.39, 0.45, 0.40, 0.44, 0.42}, 0.40, 0.44},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%v %v, want p90 90", p, v)
	}
	if p, v := tail(xs[:20]); p != 50 || v != 10.5 {
		t.Errorf("tail of 1..20 = p%v %v, want the median", p, v)
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchFile
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, declared []benchMetric, code []metric) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(declared), len(code))
			return
		}
		for i, m := range declared {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

func TestVerdict(t *testing.T) {
	wall := benchMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name     string
		m        benchMetric
		old, new []float64
		want     string
	}{
		{"within bound", wall, steady, []float64{1.05, 1.06, 1.04}, "ok"},
		{"beyond bound", wall, steady, []float64{1.20, 1.21, 1.19}, "regressed"},
		{"noisy parent", wall, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, []float64{1.3, 1.4}, "unresolved"},
		{"noisy parent, every new run better", wall, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, []float64{0.5, 0.6}, "ok (every new run better)"},
		{"higher is better", benchMetric{Name: "x", Better: "higher", Bound: 0.1}, steady, []float64{0.8, 0.81}, "regressed"},
		{"unbounded", benchMetric{Name: "vm.cpu_ms", Better: "lower"}, steady, []float64{5}, ""},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.old, c.new, nil, nil); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	model := benchMetric{Name: "sim_wire_mb", Better: "lower"}
	same := map[uint64]float64{0: 32.28, 7: 32.46}
	if got := verdict(model, nil, nil, same, map[uint64]float64{7: 32.46}); got != "identical" {
		t.Errorf("model metric, same values: %q", got)
	}
	if got := verdict(model, nil, nil, same, map[uint64]float64{7: 32.47}); got != "changed (seed 7)" {
		t.Errorf("model metric, drifted: %q", got)
	}
	if got := verdict(model, nil, nil, same, map[uint64]float64{3: 1}); got != "no common seed" {
		t.Errorf("model metric, disjoint seeds: %q", got)
	}
}
