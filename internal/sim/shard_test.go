package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// testLookahead mirrors the default cross-machine link latency the real
// scenarios derive their lookahead from.
const testLookahead = 5 * time.Millisecond

// shardRec is one received message in the synthetic cluster model:
// virtual arrival-handling time plus payload identity.
type shardRec struct {
	At  time.Duration
	Src int
	Pay uint64
}

type shardMsg struct {
	Src int
	Pay uint64
}

// shardNet abstracts "one kernel per lane" vs "one shared kernel" so the
// same model can be built both ways and the results compared byte for
// byte.
type shardNet struct {
	cl *Cluster
	ks []*Kernel
}

func newShardNet(n int, sharded bool) *shardNet {
	tn := &shardNet{ks: make([]*Kernel, n)}
	if sharded {
		tn.cl = NewCluster(n, testLookahead)
		for i := range tn.ks {
			tn.ks[i] = tn.cl.Lane(i)
		}
		return tn
	}
	k := New()
	for i := range tn.ks {
		tn.ks[i] = k
	}
	return tn
}

func (tn *shardNet) send(src, dst int, d time.Duration, fn func()) {
	if tn.cl != nil {
		tn.cl.Send(src, dst, d, fn)
		return
	}
	tn.ks[src].Schedule(d, fn)
}

func (tn *shardNet) run(workers int) {
	if tn.cl != nil {
		tn.cl.Run(workers)
		return
	}
	tn.ks[0].Run()
}

// mix64 is a splitmix64 step, enough deterministic randomness for the
// model without importing anything.
func mix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// snapLattice re-aligns a proc to the whole-microsecond lattice after it
// has been woken at a skewed (sub-microsecond) delivery time.
func snapLattice(p *Proc) {
	if r := p.Now() % time.Microsecond; r != 0 {
		p.Sleep(time.Microsecond - r)
	}
}

// buildShardModel wires up the tie-free reference model: n nodes, each
// with a wire resource, an inbox queue, a sender proc, and a receiver
// proc. All local durations are whole microseconds; deliveries add a
// per-sender sub-microsecond phase skew on top of the lookahead;
// receivers re-align to the microsecond lattice after every receive.
// Under that discipline no two events that share state ever tie, so a
// single shared kernel and a sharded cluster must produce identical
// logs. The returned slice is filled in by running the net.
func buildShardModel(tn *shardNet, n, rounds int, seed uint64) [][]shardRec {
	logs := make([][]shardRec, n)
	inboxes := make([]*Queue[shardMsg], n)
	for i := 0; i < n; i++ {
		inboxes[i] = NewQueue[shardMsg](tn.ks[i])
	}
	for i := 0; i < n; i++ {
		i := i
		k := tn.ks[i]
		wire := NewResource(k, "wire", 1)
		cpu := NewResource(k, "cpu", 1)
		k.Go("recv", func(p *Proc) {
			for {
				m := inboxes[i].Pop(p)
				snapLattice(p)
				logs[i] = append(logs[i], shardRec{At: p.Now(), Src: m.Src, Pay: m.Pay})
				cpu.Use(p, time.Duration(1+m.Pay%7)*time.Microsecond)
			}
		})
		k.Go("send", func(p *Proc) {
			rng := seed ^ uint64(i)*0x5851f42d4c957f2d
			for r := 0; r < rounds; r++ {
				p.Sleep(time.Duration(1+mix64(&rng)%2000) * time.Microsecond)
				dst := int(mix64(&rng) % uint64(n-1))
				if dst >= i {
					dst++
				}
				wire.Use(p, time.Duration(64+mix64(&rng)%512)*time.Microsecond)
				pay := mix64(&rng)
				to := inboxes[dst]
				m := shardMsg{Src: i, Pay: pay}
				d := testLookahead + time.Duration(i+1) // per-sender phase skew
				tn.send(i, dst, d, func() { to.Push(m) })
			}
		})
	}
	return logs
}

func runShardModel(t *testing.T, sharded bool, workers, n, rounds int) [][]shardRec {
	t.Helper()
	tn := newShardNet(n, sharded)
	logs := buildShardModel(tn, n, rounds, 0xfeed)
	tn.run(workers)
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	if want := n * rounds; total != want {
		t.Fatalf("received %d messages, want %d (sharded=%v workers=%d)", total, want, sharded, workers)
	}
	return logs
}

// TestClusterMatchesSingleKernel is the sim-level byte-identity gate:
// the tie-free model produces identical per-node receive logs on one
// shared kernel and on a sharded cluster at several worker counts.
func TestClusterMatchesSingleKernel(t *testing.T) {
	const n, rounds = 6, 40
	seqLogs := runShardModel(t, false, 1, n, rounds)
	for _, workers := range []int{1, 2, 4, 8} {
		got := runShardModel(t, true, workers, n, rounds)
		if !reflect.DeepEqual(got, seqLogs) {
			t.Fatalf("sharded logs at %d workers differ from single-kernel logs", workers)
		}
	}
}

// TestClusterStats checks the scheduler's bookkeeping on the reference
// model: every cross-lane send is counted, and the run is chopped into
// many conservative windows.
func TestClusterStats(t *testing.T) {
	const n, rounds = 6, 40
	tn := newShardNet(n, true)
	buildShardModel(tn, n, rounds, 0xfeed)
	tn.run(2)
	st := tn.cl.Stats()
	if st.CrossEvents != uint64(n*rounds) {
		t.Errorf("CrossEvents = %d, want %d", st.CrossEvents, n*rounds)
	}
	if st.Windows < 10 {
		t.Errorf("Windows = %d, want many conservative windows", st.Windows)
	}
	if st.Workers != 2 {
		t.Errorf("Workers = %d, want 2", st.Workers)
	}
	if got := tn.cl.EventsRun(); got == 0 {
		t.Errorf("EventsRun = 0, want > 0")
	}
	if stall := st.BarrierStall(); stall < 0 || stall > 1 {
		t.Errorf("BarrierStall = %v, want within [0,1]", stall)
	}
}

// TestClusterSendOrdering pins the deterministic merge order: cross
// events delivered at the same barrier land on the destination lane in
// (time, source shard ID, per-source sequence) order.
func TestClusterSendOrdering(t *testing.T) {
	cl := NewCluster(3, time.Millisecond)
	var got []int
	var at time.Duration
	// All three arrive at lane 2 inside the same window; sources 0 and 1
	// send at the same virtual time, so source ID breaks the tie, and
	// the second send from source 0 follows its first.
	cl.Send(1, 2, time.Millisecond, func() { got = append(got, 10); at = cl.Lane(2).Now() })
	cl.Send(0, 2, time.Millisecond, func() { got = append(got, 1) })
	cl.Send(0, 2, time.Millisecond, func() { got = append(got, 2) })
	cl.Run(2)
	want := []int{1, 2, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order = %v, want %v", got, want)
	}
	if at != time.Millisecond {
		t.Errorf("delivery ran at %v, want 1ms", at)
	}
}

// TestClusterLookaheadViolationPanics: a cross-lane send below the
// lookahead would break the conservative horizon, so it must panic
// rather than silently corrupt the schedule.
func TestClusterLookaheadViolationPanics(t *testing.T) {
	cl := NewCluster(2, 5*time.Millisecond)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-lane send below lookahead did not panic")
		}
		if !strings.Contains(r.(string), "lookahead") {
			t.Fatalf("panic = %v, want lookahead violation", r)
		}
	}()
	cl.Send(0, 1, time.Millisecond, func() {})
}

// TestClusterSameLaneSend: sends to the sender's own lane are ordinary
// local events with no lookahead constraint.
func TestClusterSameLaneSend(t *testing.T) {
	cl := NewCluster(2, 5*time.Millisecond)
	var at time.Duration
	cl.Send(0, 0, time.Microsecond, func() { at = cl.Lane(0).Now() })
	cl.Run(2)
	if at != time.Microsecond {
		t.Errorf("same-lane send ran at %v, want 1µs", at)
	}
}

// TestClusterLanePanicPropagates: a panic inside a lane event must
// surface from Run with the lane identified, not deadlock the pool.
func TestClusterLanePanicPropagates(t *testing.T) {
	cl := NewCluster(2, time.Millisecond)
	cl.Lane(1).Schedule(time.Microsecond, func() { panic("boom") })
	cl.Lane(0).Schedule(time.Microsecond, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lane panic did not propagate out of Run")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "lane 1") || !strings.Contains(s, "boom") {
			t.Fatalf("panic = %v, want lane 1 boom", r)
		}
	}()
	cl.Run(2)
}

// TestClusterLaneProcPanicPropagates: a panic in a proc body on a lane
// surfaces from Run as that lane's panic, like one in a lane event.
func TestClusterLaneProcPanicPropagates(t *testing.T) {
	cl := NewCluster(2, time.Millisecond)
	q := NewQueue[int](cl.Lane(1))
	cl.Lane(1).Go("bomb", func(p *Proc) {
		q.Pop(p)
		panic("boom")
	})
	cl.Lane(1).Schedule(time.Microsecond, func() { q.Push(1) })
	cl.Lane(0).Schedule(time.Microsecond, func() {})
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.HasPrefix(s, "sim: lane 1 panicked") || !strings.Contains(s, "boom") {
			t.Fatalf("panic = %v, want sim: lane 1 panicked: boom", r)
		}
		cl.Close()
	}()
	cl.Run(2)
}

// TestClusterOneLaneDelegates: the degenerate one-lane cluster takes
// the sequential Kernel.Run code path verbatim — no windows, no barrier
// machinery.
func TestClusterOneLaneDelegates(t *testing.T) {
	cl := NewCluster(1, 5*time.Millisecond)
	ran := false
	cl.Lane(0).Schedule(time.Second, func() { ran = true })
	cl.Send(0, 0, time.Second, func() {}) // same-lane send still works
	if end := cl.Run(4); end != time.Second {
		t.Errorf("Run returned %v, want 1s", end)
	}
	if !ran {
		t.Error("event did not run")
	}
	if st := cl.Stats(); st.Windows != 0 {
		t.Errorf("one-lane cluster used %d windows, want 0", st.Windows)
	}
}

// TestClusterLanesNumberApart: each lane numbers from a range of its
// own, so the ports and segments of a sharded run never share an id.
func TestClusterLanesNumberApart(t *testing.T) {
	cl := NewCluster(3, testLookahead)
	seen := map[uint64]bool{}
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			id := cl.Lane(i).NextID()
			if id == 0 || seen[id] {
				t.Fatalf("lane %d handed out id %d, seen %v", i, id, seen)
			}
			seen[id] = true
		}
	}
}

// TestAllocsShardsOff is the allocation-regression gate for the
// -shards 1 dispatch path: a one-lane cluster must add nothing to the
// sequential kernel's zero-allocation schedule+dispatch cycle.
func TestAllocsShardsOff(t *testing.T) {
	cl := NewCluster(1, 5*time.Millisecond)
	k := cl.Lane(0)
	fn := func() {}
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		k.Schedule(time.Duration(i), fn)
	}
	cl.Run(1)
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			k.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		cl.Run(1)
	})
	if avg != 0 {
		t.Errorf("one-lane cluster dispatch allocates %.2f objects per 32-event batch, want 0", avg)
	}
}

// TestNextEventAt covers the three cases the window scheduler depends
// on: empty kernel, heap entry, and a due now-ring entry.
func TestNextEventAt(t *testing.T) {
	k := New()
	if _, ok := k.NextEventAt(); ok {
		t.Error("empty kernel reports a pending event")
	}
	k.Schedule(3*time.Second, func() {})
	if at, ok := k.NextEventAt(); !ok || at != 3*time.Second {
		t.Errorf("NextEventAt = %v,%v, want 3s,true", at, ok)
	}
	k.Schedule(0, func() {}) // ring entry is due now
	if at, ok := k.NextEventAt(); !ok || at != 0 {
		t.Errorf("NextEventAt with ring entry = %v,%v, want 0,true", at, ok)
	}
	k.Run()
}

// TestSleepFastPathUnderDeadline: the same-instant fast path now also
// applies inside RunUntil windows when the wake time does not overshoot
// the deadline. Semantics must match the slow path exactly; the elided
// park/unpark shows up as a lower event count.
func TestSleepFastPathUnderDeadline(t *testing.T) {
	k := New()
	var wakes []time.Duration
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			wakes = append(wakes, p.Now())
		}
	})
	k.RunUntil(10 * time.Second)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if !reflect.DeepEqual(wakes, want) {
		t.Errorf("wakes = %v, want %v", wakes, want)
	}
	if k.Now() != 10*time.Second {
		t.Errorf("clock = %v, want 10s", k.Now())
	}
	// Launch is the only dispatched event: all three sleeps took the
	// fast path despite the deadline.
	if k.EventsRun() != 1 {
		t.Errorf("EventsRun = %d, want 1 (sleeps should elide park/unpark)", k.EventsRun())
	}

	// A sleep landing exactly on the deadline still takes the fast path
	// (RunUntil dispatches events at exactly t), and one overshooting it
	// must park so the clock stops at the deadline.
	k2 := New()
	var at time.Duration
	k2.Go("edge", func(p *Proc) {
		p.Sleep(2 * time.Second)
		at = p.Now()
		p.Sleep(5 * time.Second) // beyond the deadline: parks
		at = p.Now()
	})
	k2.RunUntil(2 * time.Second)
	if at != 2*time.Second || k2.Now() != 2*time.Second {
		t.Errorf("at deadline: woke %v clock %v, want 2s 2s", at, k2.Now())
	}
	k2.Run() // drain: the parked sleep completes at 7s
	if at != 7*time.Second {
		t.Errorf("after drain: woke %v, want 7s", at)
	}
}
