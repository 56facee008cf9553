package prof

import (
	"testing"
	"time"

	"accentmig/internal/obs"
	"accentmig/internal/sim"
)

const s = time.Second

// phasePair emits a closed phase span as two events.
func phasePair(seq *uint64, machine, name string, start, end time.Duration) []obs.Event {
	b := obs.Event{Kind: obs.PhaseBegin, Machine: machine, Name: name, T: start, Seq: *seq}
	*seq++
	e := obs.Event{Kind: obs.PhaseEnd, Machine: machine, Name: name, T: end, Seq: *seq}
	*seq++
	return []obs.Event{b, e}
}

// syntheticMigration builds a minimal but complete event stream:
// the four canonical phases (excise 0-2s, xfer.core 2-5s, xfer.rimas
// 5-9s, insert 9-10s), resource holds and wire spans covering parts of
// the window, a message pair, a fault pair, and a destination resume.
func syntheticMigration() []obs.Event {
	var seq uint64
	var evs []obs.Event
	evs = append(evs, phasePair(&seq, "src", "excise", 0, 2*s)...)
	evs = append(evs, phasePair(&seq, "src", "xfer.core", 2*s, 5*s)...)
	evs = append(evs, phasePair(&seq, "src", "xfer.rimas", 5*s, 9*s)...)
	evs = append(evs, phasePair(&seq, "src", "insert", 9*s, 10*s)...)

	add := func(ev obs.Event) {
		ev.Seq = seq
		seq++
		evs = append(evs, ev)
	}
	// src CPU busy during excise; wire busy 2s-5s (overlapping a src
	// hold 2s-3s, which the priority order must cede to the wire); dst
	// CPU busy during insert; disk 1s-1.5s inside excise (loses to the
	// src CPU hold covering 0-2s); queue wait 8s-9s uncovered by holds.
	add(obs.Event{Kind: obs.ResourceHold, Machine: "src", Name: "src.cpu", Dur: 2 * s, T: 2 * s})
	add(obs.Event{Kind: obs.ResourceHold, Machine: "src", Name: "src.disk.arm", Dur: s / 2, T: 3 * s / 2})
	add(obs.Event{Kind: obs.ResourceHold, Machine: "src", Name: "src.cpu", Dur: s, T: 3 * s})
	add(obs.Event{Kind: obs.LinkXmit, Machine: "src-dst.wire", Name: "xmit", Dur: 3 * s, T: 5 * s})
	add(obs.Event{Kind: obs.QueueWait, Machine: "dst", Name: "dst.cpu", Dur: s, T: 9 * s})
	add(obs.Event{Kind: obs.ResourceHold, Machine: "dst", Name: "dst.cpu", Dur: s, T: 10 * s})

	add(obs.Event{Kind: obs.MsgSend, Machine: "src", Op: 42, MsgID: 7, T: 2 * s})
	add(obs.Event{Kind: obs.MsgRecv, Machine: "dst", Op: 42, MsgID: 7, T: 5 * s})
	add(obs.Event{Kind: obs.FaultStart, Machine: "dst", Proc: "p", Name: "imag", Addr: 0x1000, T: 6 * s})
	add(obs.Event{Kind: obs.FaultResolved, Machine: "dst", Proc: "p", Name: "imag", Addr: 0x1000, T: 7 * s})
	add(obs.Event{Kind: obs.StateChange, Machine: "dst", Proc: "p", Name: "Resumed", T: 11 * s})
	return evs
}

func TestBuildSyntheticMigration(t *testing.T) {
	pf, err := Build(syntheticMigration())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !pf.Connected() {
		t.Fatalf("critical path not connected: phases=%v unmatchedFaults=%d", pf.Phases, pf.UnmatchedFaults)
	}
	if got := pf.Total(); got != 10*s {
		t.Fatalf("Total = %v, want 10s", got)
	}
	if !pf.Resumed || pf.Downtime != 11*s {
		t.Fatalf("Downtime = %v (resumed=%v), want 11s true", pf.Downtime, pf.Resumed)
	}

	// Exact partition: fractions must sum to 1 and the pieces to the
	// window. Expected blame over [0,10s]: src-cpu [0,2s] = 2s, wire
	// [2s,5s] = 3s (beats the src hold [2s,3s]), dst-cpu [9s,10s] = 1s,
	// disk 0 (covered by src-cpu), queue [8s,9s] = 1s (nothing held
	// there), other [5s,8s] = 3s.
	want := Breakdown{}
	want[SrcCPU] = 2 * s
	want[Wire] = 3 * s
	want[DstCPU] = s
	want[Queue] = s
	want[Other] = 3 * s
	if pf.Blame != want {
		t.Fatalf("Blame = %v, want %v", pf.Blame, want)
	}
	var fracs float64
	for _, c := range Classes() {
		fracs += pf.Blame.Fraction(c)
	}
	if diff := fracs - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("blame fractions sum to %v, want 1", fracs)
	}

	// Edges: 4 phase pairs + 1 msg + 1 fault.
	var nMsg, nFault, nPhase int
	for _, e := range pf.Edges {
		switch e.Kind {
		case EdgeMsg:
			nMsg++
		case EdgeFault:
			nFault++
		case EdgePhase:
			nPhase++
		}
		if e.To < e.From {
			t.Fatalf("edge %v runs backwards in time: %v -> %v", e.Label, e.From, e.To)
		}
	}
	if nMsg != 1 || nFault != 1 || nPhase != 4 {
		t.Fatalf("edges msg=%d fault=%d phase=%d, want 1/1/4", nMsg, nFault, nPhase)
	}
	if pf.UnmatchedMsgs != 0 || pf.UnmatchedFaults != 0 {
		t.Fatalf("unmatched msgs=%d faults=%d, want 0/0", pf.UnmatchedMsgs, pf.UnmatchedFaults)
	}
}

func TestBuildPhaseRetryLastWins(t *testing.T) {
	var seq uint64
	var evs []obs.Event
	// A failed first attempt followed by a full retry: the retry's
	// spans must win.
	evs = append(evs, phasePair(&seq, "src", "excise", 0, s)...)
	evs = append(evs, phasePair(&seq, "src", "excise", 5*s, 6*s)...)
	evs = append(evs, phasePair(&seq, "src", "xfer.core", 6*s, 7*s)...)
	evs = append(evs, phasePair(&seq, "src", "xfer.rimas", 7*s, 8*s)...)
	evs = append(evs, phasePair(&seq, "src", "insert", 8*s, 9*s)...)
	pf, err := Build(evs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if pf.Freeze != 5*s || pf.InsertEnd != 9*s {
		t.Fatalf("window [%v, %v], want [5s, 9s]", pf.Freeze, pf.InsertEnd)
	}
	if !pf.Connected() {
		t.Fatalf("retry migration should still be connected")
	}
}

func TestBuildNegativePhaseErrors(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.PhaseBegin, Machine: "src", Name: "excise", T: 5 * s, Seq: 0},
		{Kind: obs.PhaseEnd, Machine: "src", Name: "excise", T: 2 * s, Seq: 1},
	}
	// The (T, Seq) sort puts the end first, making it an end with no
	// open begin — either failure mode must surface as an error, never
	// as a negative-duration span.
	if _, err := Build(evs); err == nil {
		t.Fatalf("Build accepted an end-before-begin phase pair")
	}
}

func TestBuildUnmatchedCounts(t *testing.T) {
	var seq uint64
	var evs []obs.Event
	evs = append(evs, phasePair(&seq, "src", "excise", 0, s)...)
	evs = append(evs, phasePair(&seq, "src", "xfer.core", s, 2*s)...)
	evs = append(evs, phasePair(&seq, "src", "xfer.rimas", 2*s, 3*s)...)
	evs = append(evs, phasePair(&seq, "src", "insert", 3*s, 4*s)...)
	evs = append(evs,
		obs.Event{Kind: obs.MsgSend, MsgID: 9, T: s, Seq: 100},
		obs.Event{Kind: obs.FaultStart, Machine: "dst", Proc: "p", Name: "imag", Addr: 4096, T: 2 * s, Seq: 101},
	)
	pf, err := Build(evs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if pf.UnmatchedMsgs != 1 || pf.UnmatchedFaults != 1 {
		t.Fatalf("unmatched msgs=%d faults=%d, want 1/1", pf.UnmatchedMsgs, pf.UnmatchedFaults)
	}
	if pf.Connected() {
		t.Fatalf("a dangling fault park must break connectivity")
	}
}

// TestBackdatedEmitAt pins the EmitAt contract end to end (satellite:
// Kernel.EmitAt back-dating): the source manager emits phase spans
// after the fact with back-dated timestamps, which must never produce
// out-of-order sequence numbers in the stream nor negative-duration
// spans in the DAG builder.
func TestBackdatedEmitAt(t *testing.T) {
	k := sim.New()
	sink := obs.NewMemorySink()
	k.SetSink(sink)

	k.Go("mgr", func(p *sim.Proc) {
		// Model the real emission pattern: work happens 0-3s, and only
		// at 3s are the excise (0-1s) and xfer.core (1-3s) spans known
		// and emitted, back-dated, begin and end together.
		p.Sleep(3 * time.Second)
		k.EmitAt(0, obs.Event{Kind: obs.PhaseBegin, Machine: "src", Name: "excise"})
		k.EmitAt(1*time.Second, obs.Event{Kind: obs.PhaseEnd, Machine: "src", Name: "excise"})
		k.EmitAt(1*time.Second, obs.Event{Kind: obs.PhaseBegin, Machine: "src", Name: "xfer.core"})
		k.EmitAt(3*time.Second, obs.Event{Kind: obs.PhaseEnd, Machine: "src", Name: "xfer.core"})
		p.Sleep(2 * time.Second)
		k.EmitAt(3*time.Second, obs.Event{Kind: obs.PhaseBegin, Machine: "src", Name: "xfer.rimas"})
		k.EmitAt(5*time.Second, obs.Event{Kind: obs.PhaseEnd, Machine: "src", Name: "xfer.rimas"})
		k.EmitAt(5*time.Second, obs.Event{Kind: obs.PhaseBegin, Machine: "src", Name: "insert"})
		k.Emit(obs.Event{Kind: obs.PhaseEnd, Machine: "src", Name: "insert"})
	})
	k.Run()

	evs := sink.Events()
	if len(evs) != 8 {
		t.Fatalf("emitted %d events, want 8", len(evs))
	}
	// Seq must be strictly increasing in emission order even though T
	// jumps backwards.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event %d: Seq %d not after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}

	pf, err := Build(evs)
	if err != nil {
		t.Fatalf("Build on back-dated stream: %v", err)
	}
	for _, ph := range pf.Phases {
		if ph.End < ph.Start {
			t.Fatalf("phase %s has negative duration: [%v, %v]", ph.Name, ph.Start, ph.End)
		}
	}
	if !pf.Connected() {
		t.Fatalf("back-dated phases should reconstruct a connected path, got %+v", pf.Phases)
	}
	if pf.Freeze != 0 || pf.InsertEnd != 5*time.Second {
		t.Fatalf("window [%v, %v], want [0, 5s]", pf.Freeze, pf.InsertEnd)
	}
}
