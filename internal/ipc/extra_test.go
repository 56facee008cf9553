package ipc

import (
	"testing"
	"time"

	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

func TestLocalPortPreferredOverRouter(t *testing.T) {
	// A local port always wins; the router is only consulted for
	// nonlocal destinations.
	k := sim.New()
	s := newSys(k)
	routed := false
	s.SetRouter(func(m *Message) bool { routed = true; return true })
	port := s.AllocPort("local")
	k.Go("rx", func(p *sim.Proc) { s.Receive(p, port) })
	k.Go("tx", func(p *sim.Proc) {
		if err := s.Send(p, &Message{To: port.ID}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Run()
	if routed {
		t.Error("router consulted for a local port")
	}
}

func TestRouterDeclineFallsThrough(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	s.SetRouter(func(m *Message) bool { return false })
	var err error
	k.Go("tx", func(p *sim.Proc) {
		err = s.Send(p, &Message{To: 424242})
	})
	k.Run()
	if err == nil {
		t.Error("declined route did not surface ErrDeadPort")
	}
}

func TestStatsCountsAllOperations(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	port := s.AllocPort("svc")
	k.Go("rx", func(p *sim.Proc) {
		s.Receive(p, port)
		s.Receive(p, port)
	})
	k.Go("tx", func(p *sim.Proc) {
		s.Send(p, &Message{To: port.ID, BodyBytes: 10})
		s.Send(p, &Message{To: port.ID, BodyBytes: 10})
	})
	k.Run()
	sends, receives, copies, maps := s.Stats()
	if sends != 2 || receives != 2 {
		t.Errorf("sends=%d receives=%d", sends, receives)
	}
	if copies != 2 || maps != 0 {
		t.Errorf("copies=%d maps=%d for tiny messages", copies, maps)
	}
}

func TestReceiveChargesCPU(t *testing.T) {
	k := sim.New()
	cpu := sim.NewResource(k, "cpu", 1)
	s := NewSystem(k, "m0", cpu, vm.DefaultPageSize, Config{})
	port := s.AllocPort("svc")
	var sendBusy, totalBusy time.Duration
	k.Go("tx", func(p *sim.Proc) {
		s.Send(p, &Message{To: port.ID, BodyBytes: 1000})
		sendBusy = cpu.BusyTime()
	})
	k.Go("rx", func(p *sim.Proc) {
		s.Receive(p, port)
		totalBusy = cpu.BusyTime()
	})
	k.Run()
	if totalBusy <= sendBusy {
		t.Errorf("receive consumed no CPU: send %v, total %v", sendBusy, totalBusy)
	}
}

func TestCopyThresholdBoundary(t *testing.T) {
	k := sim.New()
	cpu := sim.NewResource(k, "cpu", 1)
	s := NewSystem(k, "m0", cpu, vm.DefaultPageSize, Config{CopyThreshold: 1000})
	at, _ := s.transferCPU(&Message{BodyBytes: 1000})
	over, copied := s.transferCPU(&Message{BodyBytes: 1001})
	if copied {
		t.Error("message over threshold took the copy path")
	}
	// At the boundary the copy path applies and costs more than mapping
	// just over it — the discontinuity the ablation exploits.
	if at <= over {
		t.Errorf("copy at threshold (%v) not above map just over it (%v)", at, over)
	}
}

func TestWireBytesMultiplePages(t *testing.T) {
	att := &MemAttachment{Kind: AttachData, Size: 3 * 512}
	att.Runs = append(att.Runs, vm.PageRun{Index: 0, Count: 3, Data: make([]byte, 3*512)})
	m := &Message{Mem: []*MemAttachment{att}}
	// One run of three pages still prices three per-page headers.
	want := msgHeaderBytes + dataDescBytes + 3*pageImageHeader + 3*512
	if got := m.WireBytes(); got != want {
		t.Errorf("WireBytes = %d, want %d", got, want)
	}
}

func TestCallToDeadPortFails(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	ghost := s.AllocPort("ghost")
	s.RemovePort(ghost)
	var err error
	k.Go("tx", func(p *sim.Proc) {
		_, err = s.Call(p, &Message{To: ghost.ID})
	})
	k.Run()
	if err == nil {
		t.Error("Call to dead port succeeded")
	}
	// The temporary reply port must not leak.
	if _, ok := s.Lookup(ghost.ID + 1); ok {
		t.Log("note: reply port still present (cleanup check heuristic)")
	}
}

func TestPendingCount(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	port := s.AllocPort("svc")
	k.Go("tx", func(p *sim.Proc) {
		s.Send(p, &Message{To: port.ID})
		s.Send(p, &Message{To: port.ID})
		if port.Pending() != 2 {
			t.Errorf("Pending = %d, want 2", port.Pending())
		}
	})
	k.Run()
}
