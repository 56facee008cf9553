package netlink

import (
	"testing"
	"time"

	"accentmig/internal/faults"
	"accentmig/internal/metrics"
	"accentmig/internal/sim"
)

// lossy returns a link that loses each frame with probability p, drawn
// from a stream seeded by seed.
func lossy(k *sim.Kernel, p float64, seed uint64) *Link {
	l := New(k, "net", Config{})
	l.SetFaults(faults.NewInjector(faults.FromDropRate(p, seed), ""))
	return l
}

func TestTransmitTiming(t *testing.T) {
	k := sim.New()
	l := New(k, "net", Config{Latency: 5 * time.Millisecond, BytesPerSecond: 375_000})
	var done time.Duration
	k.Go("tx", func(p *sim.Proc) {
		if !l.Transmit(p, 375, false) {
			t.Error("reliable link dropped a frame")
		}
		done = p.Now()
	})
	k.Run()
	want := time.Millisecond + 5*time.Millisecond // 375B at 375KB/s + latency
	if done != want {
		t.Errorf("transmit took %v, want %v", done, want)
	}
}

func TestWireSharedHalfDuplex(t *testing.T) {
	k := sim.New()
	l := New(k, "net", Config{Latency: time.Nanosecond, BytesPerSecond: 1000})
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		k.Go("tx", func(p *sim.Proc) {
			l.Transmit(p, 1000, false)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	// Wire occupancy serializes: second sender finishes a second later.
	if finish[1]-finish[0] != time.Second {
		t.Errorf("finish = %v, want 1s apart", finish)
	}
}

func TestRecorderAccounting(t *testing.T) {
	k := sim.New()
	l := New(k, "net", Config{})
	rec := metrics.NewRecorder()
	l.SetRecorder(rec)
	k.Go("tx", func(p *sim.Proc) {
		l.Transmit(p, 100, false)
		l.Transmit(p, 50, true)
	})
	k.Run()
	var fault uint64
	for _, pt := range rec.Series() {
		fault += pt.FaultBytes
	}
	if rec.BytesTotal() != 150 || fault != 50 {
		t.Errorf("recorder: total=%d fault=%d", rec.BytesTotal(), fault)
	}
	if l.Bytes() != 150 || l.Frames() != 2 {
		t.Errorf("link: bytes=%d frames=%d", l.Bytes(), l.Frames())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	k := sim.New()
	l := New(k, "net", Config{})
	k.Go("tx", func(p *sim.Proc) { l.Transmit(p, 100, false) })
	k.Run() // must not panic
}

func TestDropInjection(t *testing.T) {
	k := sim.New()
	l := lossy(k, 0.5, 42)
	delivered, dropped := 0, 0
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			if l.Transmit(p, 10, false) {
				delivered++
			} else {
				dropped++
			}
		}
	})
	k.Run()
	if dropped == 0 || delivered == 0 {
		t.Fatalf("delivered=%d dropped=%d; want both nonzero", delivered, dropped)
	}
	if dropped < 350 || dropped > 650 {
		t.Errorf("drop count %d far from expected ~500", dropped)
	}
	if l.Drops() != uint64(dropped) {
		t.Errorf("Drops = %d, want %d", l.Drops(), dropped)
	}
}

func TestDropDeterministic(t *testing.T) {
	run := func() []bool {
		k := sim.New()
		l := lossy(k, 0.3, 7)
		var outcomes []bool
		k.Go("tx", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				outcomes = append(outcomes, l.Transmit(p, 10, false))
			}
		})
		k.Run()
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern diverges at %d", i)
		}
	}
}
