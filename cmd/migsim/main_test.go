package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"accentmig/internal/experiments"
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
	if err := run("table9-9", workload.Kinds()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// captureRunAll runs every -exp all experiment with stdout captured,
// exactly as `migsim -exp all` would emit it.
func captureRunAll(t *testing.T) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	for _, id := range experimentOrder {
		if err := run(id, workload.Kinds()); err != nil {
			os.Stdout = old
			w.Close()
			t.Fatalf("%s: %v", id, err)
		}
	}
	w.Close()
	return <-done
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

func TestExperimentOrderMatchesDispatch(t *testing.T) {
	// Every listed id must dispatch without "unknown experiment"; use a
	// cheap workload subset so the run stays fast. Only the fast ones
	// execute here; the expensive grid-based ids are covered by the
	// experiments package's own tests.
	fast := map[string]bool{"table4-1": true, "table4-2": true}
	for _, id := range experimentOrder {
		if !fast[id] {
			continue
		}
		if err := run(id, []workload.Kind{workload.Minprog}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}
