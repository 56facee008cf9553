package experiments

import (
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
