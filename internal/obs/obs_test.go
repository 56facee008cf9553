package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if strings.Contains(s, "?") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if len(Kinds()) != int(numKinds) {
		t.Errorf("Kinds() returned %d kinds, want %d", len(Kinds()), numKinds)
	}
	if Kind(250).String() != "Kind(?)" {
		t.Errorf("out-of-range kind: %q", Kind(250).String())
	}
}

func TestMemorySink(t *testing.T) {
	m := NewMemorySink()
	m.Emit(Event{Kind: MsgSend, Machine: "src"})
	m.Emit(Event{Kind: MsgSend, Machine: "src"})
	m.Emit(Event{Kind: FaultStart, Machine: "dst"})
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	counts := m.CountKinds()
	if counts[MsgSend] != 2 || counts[FaultStart] != 1 {
		t.Errorf("CountKinds = %v", counts)
	}
	if m.Events()[2].Machine != "dst" {
		t.Errorf("events out of order: %+v", m.Events())
	}
}

// TestForTrialNumbersTracks: each trial under a WithPrefix sink gets
// tracks of its own; any other sink is handed back as it is.
func TestForTrialNumbersTracks(t *testing.T) {
	m := NewMemorySink()
	s := WithPrefix(m, "exp/")
	ForTrial(s).Emit(Event{Machine: "src"})
	ForTrial(s).Emit(Event{Machine: "src"})
	s.Emit(Event{Machine: "src"})
	var got []string
	for _, ev := range m.Events() {
		got = append(got, ev.Machine)
	}
	if want := "exp/1/src exp/2/src exp/src"; strings.Join(got, " ") != want {
		t.Errorf("machines = %v, want %s", got, want)
	}
	if ForTrial(m) != Sink(m) || ForTrial(nil) != nil {
		t.Error("ForTrial changed a sink that numbers no trials")
	}
}

func TestWithPrefix(t *testing.T) {
	m := NewMemorySink()
	s := WithPrefix(m, "trial-1/")
	s.Emit(Event{Kind: MsgSend, Machine: "src"})
	s.Emit(Event{Kind: QueueWait}) // machine-less kernel event
	if got := m.Events()[0].Machine; got != "trial-1/src" {
		t.Errorf("Machine = %q, want trial-1/src", got)
	}
	if got := m.Events()[1].Machine; got != "trial-1/" {
		t.Errorf("machine-less Machine = %q, want trial-1/", got)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{T: time.Second, Seq: 0, Kind: MsgSend, Machine: "src", Proc: "p", Bytes: 128, Dur: time.Millisecond, Op: 0x2001})
	s.Emit(Event{T: 2 * time.Second, Seq: 1, Kind: FaultResolved, Machine: "dst", Name: "imag", Addr: 0x1000, Dur: 115 * time.Millisecond})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if rec["kind"] != "MsgSend" || rec["machine"] != "src" || rec["bytes"] != float64(128) {
		t.Errorf("line 0 = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if rec["name"] != "imag" || rec["t"] != float64(2*time.Second) {
		t.Errorf("line 1 = %v", rec)
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(Event{T: time.Second, Kind: PhaseBegin, Machine: "src", Proc: "job", Name: "excise"})
	s.Emit(Event{T: 2 * time.Second, Kind: PhaseEnd, Machine: "src", Proc: "job", Name: "excise"})
	s.Emit(Event{T: 3 * time.Second, Kind: MsgSend, Machine: "src", Proc: "job", Bytes: 64, Dur: 2 * time.Millisecond})
	s.Emit(Event{T: 4 * time.Second, Kind: StateChange, Machine: "dst", Name: "Inserted"})
	s.Emit(Event{T: 5 * time.Second, Kind: QueueWait, Dur: time.Millisecond}) // machine-less
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document is not valid JSON: %v\n%s", err, buf.String())
	}

	var b, e int
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "B":
			b++
		case "E":
			e++
		case "X":
			if ev["dur"].(float64) <= 0 {
				t.Errorf("X event without duration: %v", ev)
			}
			// Complete events cover [T-Dur, T].
			if ev["cat"] == "MsgSend" && ev["ts"].(float64) != (3*time.Second-2*time.Millisecond).Seconds()*1e6 {
				t.Errorf("X ts = %v", ev["ts"])
			}
		case "M":
			continue
		}
		pids[ev["pid"].(float64)] = true
	}
	if b != 1 || e != 1 {
		t.Errorf("B/E balance: %d begins, %d ends", b, e)
	}
	// src, dst, and the machine-less "sim" pseudo-process.
	if len(pids) != 3 {
		t.Errorf("expected 3 distinct pids, got %v", pids)
	}

	// Name metadata must cover every pid.
	named := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			named[ev["pid"].(float64)] = true
		}
	}
	for pid := range pids {
		if !named[pid] {
			t.Errorf("pid %v has no process_name metadata", pid)
		}
	}
}

func TestChromeSinkKernelThread(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(Event{Kind: PageTransfer, Machine: "dst", Name: "install"}) // no Proc
	s.Emit(Event{Kind: MsgSend, Machine: "dst", Proc: "dst.migmgr"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents[0]["tid"].(float64) != 0 {
		t.Errorf("kernel-context event should be tid 0: %v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1]["tid"].(float64) == 0 {
		t.Errorf("proc event should not share the kernel tid: %v", doc.TraceEvents[1])
	}
}
