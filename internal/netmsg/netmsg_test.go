package netmsg

import (
	"testing"
	"time"

	"accentmig/internal/disk"
	"accentmig/internal/faults"
	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// node bundles one machine's stack for tests.
type node struct {
	cpu  *sim.Resource
	sys  *ipc.System
	srv  *Server
	pg   *pager.Pager
	phys *vm.PhysMem
}

func newNode(k *sim.Kernel, name string) *node {
	cpu := sim.NewResource(k, name+".cpu", 1)
	sys := ipc.NewSystem(k, name, cpu, vm.DefaultPageSize, ipc.Config{})
	srv := New(k, name, cpu, sys, Config{})
	phys := vm.NewPhysMem(2048)
	dsk := disk.New(k, name+".disk", disk.Config{})
	pg := pager.New(k, name, cpu, phys, dsk, sys, pager.Config{})
	return &node{cpu: cpu, sys: sys, srv: srv, pg: pg, phys: phys}
}

func pair(k *sim.Kernel, linkCfg netlink.Config) (*node, *node, *netlink.Link) {
	a := newNode(k, "A")
	b := newNode(k, "B")
	link := netlink.New(k, "net", linkCfg)
	ConnectPair(a.srv, b.srv, link)
	a.srv.Start()
	b.srv.Start()
	return a, b, link
}

// dropping is a link failure model that loses each frame with
// probability p, drawn from a stream seeded by seed.
func dropping(p float64, seed uint64) *faults.Injector {
	return faults.NewInjector(faults.FromDropRate(p, seed), "")
}

func TestForwardSmallMessage(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		if err := a.sys.Send(p, &ipc.Message{Op: 9, To: dst.ID, BodyBytes: 16}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	k.Run()
	if got == nil || got.Op != 9 {
		t.Fatalf("message not forwarded: %+v", got)
	}
	if a.srv.Stats().Forwarded != 1 || b.srv.Stats().Delivered != 1 {
		t.Errorf("stats: %+v / %+v", a.srv.Stats(), b.srv.Stats())
	}
}

func TestSendUnroutedFails(t *testing.T) {
	k := sim.New()
	a, _, _ := pair(k, netlink.Config{})
	var err error
	k.Go("client", func(p *sim.Proc) {
		err = a.sys.Send(p, &ipc.Message{To: 99999})
	})
	k.Run()
	if err == nil {
		t.Error("send to unrouted nonlocal port succeeded")
	}
}

func TestReplyRouteLearned(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	svc := b.sys.AllocPort("svc")
	a.srv.AddRoute(svc.ID, "B")
	k.Go("server", func(p *sim.Proc) {
		m := b.sys.Receive(p, svc)
		// Reply to a port on A that B never saw before this message.
		if err := b.sys.Send(p, &ipc.Message{To: m.ReplyTo, Body: "pong", BodyBytes: 4}); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	var pong string
	k.Go("client", func(p *sim.Proc) {
		rep, err := a.sys.Call(p, &ipc.Message{To: svc.ID, Body: "ping", BodyBytes: 4})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		pong = rep.Body.(string)
	})
	k.Run()
	if pong != "pong" {
		t.Errorf("pong = %q", pong)
	}
}

func TestIOUCachingRewritesAttachment(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	att := &ipc.MemAttachment{Kind: ipc.AttachData, VA: 0, Size: 20 * 512,
		Runs: []vm.PageRun{{Index: 0, Count: 20, Data: make([]byte, 20*512)}}}
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}})
	})
	k.Run()
	if got == nil || len(got.Mem) != 1 {
		t.Fatalf("got %+v", got)
	}
	ma := got.Mem[0]
	if ma.Kind != ipc.AttachIOU {
		t.Fatalf("attachment kind = %v, want IOU", ma.Kind)
	}
	if ma.Backing != a.srv.BackingPort() {
		t.Errorf("backing = %d, want A's backer %d", ma.Backing, a.srv.BackingPort())
	}
	if a.srv.Stats().CachedPages != 20 {
		t.Errorf("CachedPages = %d", a.srv.Stats().CachedPages)
	}
	// Only the IOU descriptor crossed the wire, not 10 KB of data.
	if link.Bytes() > 1024 {
		t.Errorf("wire carried %d bytes for an IOU handoff", link.Bytes())
	}
}

func TestNoIOUsForcesPhysicalCopy(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	att := &ipc.MemAttachment{Kind: ipc.AttachData, VA: 0, Size: 20 * 512,
		Runs: []vm.PageRun{{Index: 0, Count: 20, Data: make([]byte, 20*512)}}}
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}, NoIOUs: true})
	})
	k.Run()
	if got.Mem[0].Kind != ipc.AttachData {
		t.Fatal("NoIOUs message had its data cached anyway")
	}
	if link.Bytes() < 20*512 {
		t.Errorf("wire carried only %d bytes for a 10 KB copy", link.Bytes())
	}
	if a.srv.Stats().CachedPages != 0 {
		t.Error("pages cached despite NoIOUs")
	}
}

func TestPerAttachmentCopyRespected(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	mk := func(copy bool) *ipc.MemAttachment {
		return &ipc.MemAttachment{Kind: ipc.AttachData, Size: 4 * 512, Copy: copy,
			Runs: []vm.PageRun{{Index: 0, Count: 4, Data: make([]byte, 4*512)}}}
	}
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{mk(true), mk(false)}})
	})
	k.Run()
	if got.Mem[0].Kind != ipc.AttachData {
		t.Error("Copy attachment was cached")
	}
	if got.Mem[1].Kind != ipc.AttachIOU {
		t.Error("cacheable attachment was not cached")
	}
}

// TestRemoteImaginaryFaultEndToEnd is the core copy-on-reference path:
// data cached at A, IOU delivered to B, B's pager faults it over.
func TestRemoteImaginaryFaultEndToEnd(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")

	content := []byte("the owed page")
	buf := make([]byte, 4*512)
	copy(buf, content)
	att := &ipc.MemAttachment{Kind: ipc.AttachData, VA: 0x4000, Size: 4 * 512,
		Runs: []vm.PageRun{{Index: 0, Count: 4, Data: buf}}}

	var faultTime time.Duration
	var got []byte
	k.Go("dest", func(p *sim.Proc) {
		m := b.sys.Receive(p, dst)
		iou := m.Mem[0]
		if iou.Kind != ipc.AttachIOU {
			t.Error("expected IOU attachment")
			return
		}
		as := vm.MustNewAddressSpace(vm.Config{})
		seg := vm.NewImaginarySegment("standin", iou.SegSize, 512, uint64(iou.Backing))
		// Stand-in keeps the backer's segment identity so read requests
		// name the right object.
		seg.ID = iou.SegID
		if _, err := as.MapSegment(iou.VA, iou.Size, seg, 0, "owed"); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		var err error
		got, err = b.pg.Read(p, as, 0x4000, len(content))
		if err != nil {
			t.Errorf("Read: %v", err)
		}
		faultTime = p.Now() - start
	})
	k.Go("src", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}})
	})
	k.Run()
	if string(got) != string(content) {
		t.Fatalf("fetched %q, want %q", got, content)
	}
	// The paper's anchor: a remote imaginary fault costs ≈115 ms.
	if faultTime < 90*time.Millisecond || faultTime > 140*time.Millisecond {
		t.Errorf("remote fault took %v, want ≈115ms", faultTime)
	}
	if a.srv.Stats().Served != 1 {
		t.Errorf("Served = %d", a.srv.Stats().Served)
	}
}

func TestSegmentDeathDropsCache(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 512,
		Runs: []vm.PageRun{{Index: 0, Count: 1, Data: make([]byte, 512)}}}
	var iou *ipc.MemAttachment
	k.Go("dest", func(p *sim.Proc) {
		m := b.sys.Receive(p, dst)
		iou = m.Mem[0]
		b.sys.Send(p, &ipc.Message{
			Op:        imag.OpSegmentDeath,
			To:        iou.Backing,
			Body:      &imag.SegmentDeath{SegID: iou.SegID},
			BodyBytes: imag.SegmentDeathBytes,
		})
	})
	k.Go("src", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}})
	})
	k.Run()
	if a.srv.Store().Segments() != 0 {
		t.Errorf("cache still holds %d segments after death", a.srv.Store().Segments())
	}
}

func TestBulkTransferRateNearPaper(t *testing.T) {
	// 100 KB physical copy should move at the testbed's effective bulk
	// rate, ≈15-20 KB/s.
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	const pages = 200
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: pages * 512,
		Runs: []vm.PageRun{{Index: 0, Count: pages, Data: make([]byte, pages*512)}}}
	var arrived time.Duration
	k.Go("dest", func(p *sim.Proc) {
		b.sys.Receive(p, dst)
		arrived = p.Now()
	})
	k.Go("src", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}, NoIOUs: true})
	})
	k.Run()
	rate := float64(pages*512) / arrived.Seconds()
	if rate < 12_000 || rate > 25_000 {
		t.Errorf("bulk rate = %.0f B/s, want ≈15-20 KB/s", rate)
	}
}

func TestFlushDissolvesResidualDependency(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 8 * 512}
	for i := uint64(0); i < 8; i++ {
		att.AppendPage(i, []byte{byte(i)})
	}
	k.Go("dest", func(p *sim.Proc) {
		m := b.sys.Receive(p, dst)
		iou := m.Mem[0]
		rep, err := b.sys.Call(p, &ipc.Message{
			Op:        imag.OpFlush,
			To:        iou.Backing,
			Body:      &imag.FlushRequest{SegID: iou.SegID},
			BodyBytes: imag.FlushRequestBytes,
		})
		if err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		body := rep.Body.(*imag.ReadReply)
		if body.PageCount() != 8 {
			t.Errorf("flushed %d pages, want 8", body.PageCount())
		}
	})
	k.Go("src", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}})
	})
	k.Run()
	if rem := a.srv.Store().TotalRemaining(); rem != 0 {
		t.Errorf("TotalRemaining = %d after flush, want 0", rem)
	}
	if a.srv.Stats().Served != 0 {
		t.Errorf("Served = %d, want 0 (flush is not a read)", a.srv.Stats().Served)
	}
}

func TestDroppedDatagramCounted(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	link.SetFaults(dropping(1.0, 3))
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	delivered := false
	k.Go("server", func(p *sim.Proc) {
		b.sys.Receive(p, dst)
		delivered = true
	})
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, BodyBytes: 8})
	})
	k.Run()
	if delivered {
		t.Error("datagram delivered on a 100%-loss link")
	}
	if a.srv.Stats().Lost != 1 {
		t.Errorf("Lost = %d", a.srv.Stats().Lost)
	}
}

func TestBulkARQSurvivesLoss(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	link.SetFaults(dropping(0.3, 11))
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 20 * 512,
		Runs: []vm.PageRun{{Index: 0, Count: 20, Data: make([]byte, 20*512)}}}
	delivered := false
	k.Go("server", func(p *sim.Proc) {
		b.sys.Receive(p, dst)
		delivered = true
	})
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}, NoIOUs: true})
	})
	k.Run()
	if !delivered {
		t.Fatal("bulk message lost despite ARQ")
	}
	if a.srv.Stats().Retransmits == 0 {
		t.Error("no retransmits recorded on a 30%-loss link")
	}
}

func TestMessageAccounting(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	rec := metrics.NewRecorder()
	a.srv.SetRecorder(rec)
	b.srv.SetRecorder(rec)
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	k.Go("server", func(p *sim.Proc) { b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, BodyBytes: 8})
	})
	k.Run()
	if rec.MessageTime() == 0 {
		t.Error("no message-handling time recorded")
	}
}
