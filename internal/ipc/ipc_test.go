package ipc

import (
	"errors"
	"testing"
	"time"

	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

func newSys(k *sim.Kernel) *System {
	cpu := sim.NewResource(k, "cpu", 1)
	return NewSystem(k, "m0", cpu, vm.DefaultPageSize, Config{})
}

func TestSendReceive(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	port := s.AllocPort("svc")
	var got *Message
	k.Go("server", func(p *sim.Proc) {
		got = s.Receive(p, port)
	})
	k.Go("client", func(p *sim.Proc) {
		if err := s.Send(p, &Message{Op: 7, To: port.ID, Body: "hi", BodyBytes: 2}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	k.Run()
	if got == nil || got.Op != 7 || got.Body.(string) != "hi" {
		t.Errorf("received %+v", got)
	}
}

func TestSendDeadPort(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	port := s.AllocPort("gone")
	s.RemovePort(port)
	var err error
	k.Go("client", func(p *sim.Proc) {
		err = s.Send(p, &Message{To: port.ID})
	})
	k.Run()
	if !errors.Is(err, ErrDeadPort) {
		t.Errorf("err = %v, want ErrDeadPort", err)
	}
}

func TestSmallMessageCopiedLargeMapped(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	port := s.AllocPort("svc")
	big := &MemAttachment{Kind: AttachData, Size: 64 * 512}
	big.Runs = append(big.Runs, vm.PageRun{Index: 0, Count: 64, Data: make([]byte, 64*512)})
	k.Go("client", func(p *sim.Proc) {
		s.Send(p, &Message{To: port.ID, BodyBytes: 100})
		s.Send(p, &Message{To: port.ID, Mem: []*MemAttachment{big}})
	})
	k.Run()
	_, _, copies, maps := s.Stats()
	if copies != 1 || maps != 1 {
		t.Errorf("copies=%d maps=%d, want 1 and 1", copies, maps)
	}
}

func TestMappedTransferCheaperThanCopy(t *testing.T) {
	// The §2.1 point: a large message must cost far less via mapping
	// than a physical copy of the same bytes would.
	k := sim.New()
	s := newSys(k)
	const bytes = 100 * 1024
	att := &MemAttachment{Kind: AttachData, Size: bytes}
	for i := uint64(0); i < bytes/512; i++ {
		att.AppendPage(i, make([]byte, 512))
	}
	mapped, copied := s.transferCPU(&Message{Mem: []*MemAttachment{att}})
	if copied {
		t.Fatal("large message took the copy path")
	}
	copyCost := time.Duration(bytes) * copyPerByte
	if mapped*5 > copyCost {
		t.Errorf("map cost %v not clearly below copy cost %v", mapped, copyCost)
	}
}

func TestCallRPC(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	svc := s.AllocPort("svc")
	k.Go("server", func(p *sim.Proc) {
		req := s.Receive(p, svc)
		s.Send(p, &Message{To: req.ReplyTo, Body: req.Body.(int) * 2, BodyBytes: 8})
	})
	var ans int
	k.Go("client", func(p *sim.Proc) {
		rep, err := s.Call(p, &Message{To: svc.ID, Body: 21, BodyBytes: 8})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		ans = rep.Body.(int)
	})
	k.Run()
	if ans != 42 {
		t.Errorf("ans = %d, want 42", ans)
	}
}

func TestReceiveTimeout(t *testing.T) {
	k := sim.New()
	s := newSys(k)
	port := s.AllocPort("svc")
	var ok bool
	k.Go("server", func(p *sim.Proc) {
		_, ok = s.ReceiveTimeout(p, port, 50*time.Millisecond)
	})
	k.Run()
	if ok {
		t.Error("ReceiveTimeout returned a message from nowhere")
	}
}

func TestWireBytes(t *testing.T) {
	m := &Message{BodyBytes: 10}
	base := m.WireBytes()
	if base != msgHeaderBytes+10 {
		t.Errorf("base = %d", base)
	}
	m.Mem = append(m.Mem, &MemAttachment{
		Kind: AttachData,
		Size: 512,
		Runs: []vm.PageRun{{Index: 0, Count: 1, Data: make([]byte, 512)}},
	})
	withData := m.WireBytes()
	if withData != base+dataDescBytes+pageImageHeader+512 {
		t.Errorf("withData = %d", withData)
	}
	m.Mem = append(m.Mem, &MemAttachment{Kind: AttachIOU, Size: 1 << 20})
	if m.WireBytes() != withData+iouDescBytes {
		t.Errorf("IOU attachment priced wrong: %d", m.WireBytes())
	}
}

func TestIOUAttachmentIsTiny(t *testing.T) {
	// The core claim: an IOU for a megabyte costs ~nothing on the wire.
	iou := &Message{Mem: []*MemAttachment{{Kind: AttachIOU, Size: 1 << 20}}}
	if iou.WireBytes() > 256 {
		t.Errorf("IOU message is %d bytes on the wire", iou.WireBytes())
	}
}

func TestPortIDsUniqueAcrossSystems(t *testing.T) {
	k := sim.New()
	a, b := newSys(k), newSys(k)
	pa := a.AllocPort("x")
	pb := b.AllocPort("y")
	if pa.ID == pb.ID {
		t.Error("port IDs collide across machines")
	}
}

func TestAdoptPort(t *testing.T) {
	k := sim.New()
	a, b := newSys(k), newSys(k)
	orig := a.AllocPort("migrant")
	a.RemovePort(orig)
	adopted := b.AdoptPort(orig.ID, "migrant")
	if adopted.ID != orig.ID {
		t.Error("adopted port changed identity")
	}
	var got *Message
	k.Go("server", func(p *sim.Proc) { got = b.Receive(p, adopted) })
	k.Go("client", func(p *sim.Proc) {
		if err := b.Send(p, &Message{To: orig.ID, Op: 1}); err != nil {
			t.Errorf("send to adopted port: %v", err)
		}
	})
	k.Run()
	if got == nil || got.Op != 1 {
		t.Error("message did not reach adopted port")
	}
}

func TestSendChargesCPU(t *testing.T) {
	k := sim.New()
	cpu := sim.NewResource(k, "cpu", 1)
	s := NewSystem(k, "m0", cpu, vm.DefaultPageSize, Config{})
	port := s.AllocPort("svc")
	k.Go("client", func(p *sim.Proc) {
		s.Send(p, &Message{To: port.ID, BodyBytes: 1000})
	})
	k.Run()
	if cpu.BusyTime() == 0 {
		t.Error("Send consumed no CPU")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.CopyThreshold == 0 {
		t.Errorf("defaults missing: %+v", c)
	}
}
