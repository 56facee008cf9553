package netmsg

import (
	"testing"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// star builds three nodes: hub connected to both leaves.
func star(k *sim.Kernel) (hub, leafA, leafB *node) {
	hub = newNode(k, "hub")
	leafA = newNode(k, "leafA")
	leafB = newNode(k, "leafB")
	ConnectPair(hub.srv, leafA.srv, netlink.New(k, "h-a", netlink.Config{}))
	ConnectPair(hub.srv, leafB.srv, netlink.New(k, "h-b", netlink.Config{}))
	hub.srv.Start()
	leafA.srv.Start()
	leafB.srv.Start()
	return hub, leafA, leafB
}

func TestMultiHopForwarding(t *testing.T) {
	// leafA -> hub -> leafB: the hub re-routes messages for ports it
	// knows live beyond it.
	k := sim.New()
	hub, leafA, leafB := star(k)
	dst := leafB.sys.AllocPort("svc")
	hub.srv.AddRoute(dst.ID, "leafB")
	leafA.srv.AddRoute(dst.ID, "hub")
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = leafB.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		if err := leafA.sys.Send(p, &ipc.Message{Op: 5, To: dst.ID, BodyBytes: 8}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Run()
	if got == nil || got.Op != 5 {
		t.Fatal("message did not cross two hops")
	}
	if hub.srv.Stats().Forwarded != 1 || hub.srv.Stats().Delivered != 0 {
		t.Errorf("hub stats = %+v, want pure transit", hub.srv.Stats())
	}
}

func TestMultiHopReplyLearnsChain(t *testing.T) {
	// The reply to a two-hop request must find its way back without any
	// manual routes: each hop learned the ReplyTo route on delivery.
	k := sim.New()
	hub, leafA, leafB := star(k)
	dst := leafB.sys.AllocPort("svc")
	hub.srv.AddRoute(dst.ID, "leafB")
	leafA.srv.AddRoute(dst.ID, "hub")
	k.Go("server", func(p *sim.Proc) {
		m := leafB.sys.Receive(p, dst)
		if err := leafB.sys.Send(p, &ipc.Message{To: m.ReplyTo, Body: "ack", BodyBytes: 4}); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	var ack string
	k.Go("client", func(p *sim.Proc) {
		rep, err := leafA.sys.Call(p, &ipc.Message{To: dst.ID, Body: "req", BodyBytes: 4})
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		ack = rep.Body.(string)
	})
	k.Run()
	if ack != "ack" {
		t.Errorf("ack = %q", ack)
	}
}

func TestDeadLetterOnUnknownPortAtPeer(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	ghost := b.sys.AllocPort("ghost")
	a.srv.AddRoute(ghost.ID, "B")
	b.sys.RemovePort(ghost)
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: ghost.ID, BodyBytes: 4})
	})
	k.Run()
	if b.srv.Stats().DeadLetters != 1 {
		t.Errorf("DeadLetters = %d, want 1", b.srv.Stats().DeadLetters)
	}
}

func TestDeadLetterOnMissingPeer(t *testing.T) {
	k := sim.New()
	a := newNode(k, "lonely")
	a.srv.Start()
	a.srv.AddRoute(12345, "nowhere")
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: 12345, BodyBytes: 4})
	})
	k.Run()
	if a.srv.Stats().DeadLetters != 1 {
		t.Errorf("DeadLetters = %d", a.srv.Stats().DeadLetters)
	}
}

func TestFaultSupportSplitInRecorder(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	rec := metrics.NewRecorder()
	a.srv.SetRecorder(rec)
	b.srv.SetRecorder(rec)
	link.SetRecorder(rec)
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	k.Go("server", func(p *sim.Proc) {
		b.sys.Receive(p, dst)
		b.sys.Receive(p, dst)
	})
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, BodyBytes: 100})
		a.sys.Send(p, &ipc.Message{To: dst.ID, BodyBytes: 100, FaultSupport: true})
	})
	k.Run()
	var fault uint64
	for _, pt := range rec.Series() {
		fault += pt.FaultBytes
	}
	if fault == 0 {
		t.Error("fault-support traffic not split out")
	}
	if fault >= rec.BytesTotal() {
		t.Error("all traffic marked fault-support")
	}
}

func TestSmallVsDataMessageCosts(t *testing.T) {
	// A control datagram is cheaper to handle than a page-bearing one.
	timeFor := func(bytes int) time.Duration {
		k := sim.New()
		a, b, _ := pair(k, netlink.Config{})
		dst := b.sys.AllocPort("svc")
		a.srv.AddRoute(dst.ID, "B")
		var arrive time.Duration
		k.Go("server", func(p *sim.Proc) {
			b.sys.Receive(p, dst)
			arrive = p.Now()
		})
		k.Go("client", func(p *sim.Proc) {
			a.sys.Send(p, &ipc.Message{To: dst.ID, BodyBytes: bytes})
		})
		k.Run()
		return arrive
	}
	small := timeFor(64)
	page := timeFor(512)
	if small >= page {
		t.Errorf("control message (%v) not cheaper than data message (%v)", small, page)
	}
}

func TestAbsorbPreservesVAAndSize(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	att := &ipc.MemAttachment{Kind: ipc.AttachData, VA: 0xABCD000, Size: 4 * 512, Collapsed: true,
		Runs: []vm.PageRun{{Index: 0, Count: 4, Data: make([]byte, 4*512)}}}
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}})
	})
	k.Run()
	iou := got.Mem[0]
	if iou.VA != 0xABCD000 || iou.Size != 4*512 || !iou.Collapsed {
		t.Errorf("absorb lost attachment identity: %+v", iou)
	}
	if iou.SegSize != 4*512 || iou.SegOff != 0 {
		t.Errorf("absorb segment geometry wrong: %+v", iou)
	}
}

func TestCacheMinPagesPassesSmallAttachments(t *testing.T) {
	// A tiny attachment is cheaper to ship than to back: the server
	// declines to cache it on its own initiative (§2.4).
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	small := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 512,
		Runs: []vm.PageRun{{Index: 0, Count: 1, Data: make([]byte, 512)}}}
	big := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 8 * 512,
		Runs: []vm.PageRun{{Index: 0, Count: 8, Data: make([]byte, 8*512)}}}
	var got *ipc.Message
	k.Go("rx", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("tx", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{small, big}})
	})
	k.Run()
	if got.Mem[0].Kind != ipc.AttachData {
		t.Error("small attachment cached despite the threshold")
	}
	if got.Mem[1].Kind != ipc.AttachIOU {
		t.Error("large attachment not cached")
	}
}
