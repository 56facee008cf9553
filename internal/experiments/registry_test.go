package experiments

import (
	"strings"
	"testing"

	"accentmig/internal/workload"
)

func TestExperimentIDsAreUnique(t *testing.T) {
	seen := map[string]bool{"all": true} // migsim's name for every InAll entry
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("experiment id %q is taken", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestSummaryWithoutLispDel: when the run's workloads leave out
// Lisp-Del, the summary prints none of the figures measured from its
// cells, which would read zero beside the paper's values, and one line
// saying why.
func TestSummaryWithoutLispDel(t *testing.T) {
	e, _ := Lookup("summary")
	out, err := e.Render(Params{Kinds: []workload.Kind{workload.Minprog}})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Lisp-Del") && !strings.Contains(line, "leave out Lisp-Del") {
			t.Errorf("summary without Lisp-Del prints %q", line)
		}
	}
	if !strings.Contains(out, "leave out Lisp-Del") {
		t.Errorf("summary does not say why its Lisp-Del lines are missing:\n%s", out)
	}
}

// TestProbePrint logs the main tables for calibration inspection.
// Run with -v to see the output.
func TestProbePrint(t *testing.T) {
	probe(t, "table4-1", "table4-4", "table4-5", "table4-3")
}

// TestProbeGrid logs the grid figures and the summary.
func TestProbeGrid(t *testing.T) {
	probe(t, "figure4-1", "figure4-2", "figure4-3", "figure4-4", "summary")
}

// probe logs what each named experiment prints at the default flags.
func probe(t *testing.T, ids ...string) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		out, err := e.Render(Params{Kinds: workload.Kinds()})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		t.Log("\n" + out)
	}
}
