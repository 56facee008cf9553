package sim

import (
	"testing"
	"time"

	"accentmig/internal/obs"
)

// TestCloseUnwindsParkedProcs parks one proc in each blocking primitive
// and adds one that never starts: Close must unwind every parked proc
// through its deferred calls, finish the unstarted one without running
// it, and leave no live proc behind.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	r := NewResource(k, "cpu", 1)
	g := NewGate(k)
	unwound := map[string]bool{}
	park := func(name string, block func(p *Proc)) {
		k.Go(name, func(p *Proc) {
			defer func() { unwound[name] = true }()
			block(p)
			t.Errorf("%s returned from its blocking call", name)
		})
	}
	k.Go("holder", func(p *Proc) { r.Acquire(p) }) // keeps the unit for good
	park("pop", func(p *Proc) { q.Pop(p) })
	park("pop-timeout", func(p *Proc) { q.PopTimeout(p, time.Hour) })
	park("acquire", func(p *Proc) { r.Acquire(p) })
	park("gate", func(p *Proc) { g.Wait(p) })
	park("sleep", func(p *Proc) { p.Sleep(time.Hour) }) // past the deadline
	k.RunUntil(time.Minute)
	ran := false
	k.Go("unstarted", func(p *Proc) { ran = true })
	if k.LiveProcs() != 6 {
		t.Fatalf("LiveProcs = %d before Close, want 6", k.LiveProcs())
	}

	k.Close()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Close, want 0", k.LiveProcs())
	}
	for _, name := range []string{"pop", "pop-timeout", "acquire", "gate", "sleep"} {
		if !unwound[name] {
			t.Errorf("%s was not unwound", name)
		}
	}
	if ran {
		t.Error("Close started a proc that had never run")
	}
	if !k.Idle() {
		t.Error("Close left events pending")
	}
	k.Close() // a second call is a no-op
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after a second Close, want 0", k.LiveProcs())
	}
}

func TestCloseFromProcPanics(t *testing.T) {
	k := New()
	var got any
	k.Go("closer", func(p *Proc) {
		defer func() { got = recover() }()
		k.Close()
	})
	k.Run()
	if got == nil {
		t.Fatal("Close from proc context did not panic")
	}
	k.Close()
}

// TestCloseEmitsNothing checks the sink is detached before procs unwind:
// a deferred emission in a parked proc must not reach the trace.
func TestCloseEmitsNothing(t *testing.T) {
	k := New()
	sink := obs.NewMemorySink()
	k.SetSink(sink)
	q := NewQueue[int](k)
	k.Go("server", func(p *Proc) {
		defer k.Emit(obs.Event{Kind: obs.StateChange, Proc: p.Name(), Name: "unwound"})
		q.Pop(p)
	})
	k.Run()
	before := len(sink.Events())
	k.Close()
	if n := len(sink.Events()); n != before {
		t.Errorf("sink received %d events during Close, want 0", n-before)
	}
}
