package netmsg

import (
	"testing"
	"time"

	"accentmig/internal/disk"
	"accentmig/internal/faults"
	"accentmig/internal/ipc"
	"accentmig/internal/netlink"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/wire"
)

// newNodeW is newNode with a transport send window.
func newNodeW(k *sim.Kernel, name string, window int) *node {
	cpu := sim.NewResource(k, name+".cpu", 1)
	sys := ipc.NewSystem(k, name, cpu, vm.DefaultPageSize, ipc.Config{})
	srv := New(k, name, cpu, sys, Config{Window: window})
	phys := vm.NewPhysMem(2048)
	dsk := disk.New(k, name+".disk", disk.Config{})
	pg := pager.New(k, name, cpu, phys, dsk, sys, pager.Config{})
	return &node{cpu: cpu, sys: sys, srv: srv, pg: pg, phys: phys}
}

func pairW(k *sim.Kernel, window int, linkCfg netlink.Config) (*node, *node, *netlink.Link) {
	a := newNodeW(k, "A", window)
	b := newNodeW(k, "B", window)
	link := netlink.New(k, "net", linkCfg)
	ConnectPair(a.srv, b.srv, link)
	a.srv.Start()
	b.srv.Start()
	return a, b, link
}

// bulkTransfer pushes a pages-page NoIOUs copy from A to B over a link
// failing by inj (nil for a reliable one) and returns the arrival time,
// the received message, and both servers. busy adds a periodic
// background timer, modeling the never-empty event heap of a real
// migration run — without it, serialized sleeps take the kernel's
// same-instant fast path and dispatch no events at all, which would
// make event-count comparisons meaningless.
func bulkTransfer(t *testing.T, window, pages int, busy bool, inj *faults.Injector) (time.Duration, *ipc.Message, *node, *node, uint64) {
	t.Helper()
	k := sim.New()
	var a, b *node
	var link *netlink.Link
	if window == 0 {
		a, b, link = pair(k, netlink.Config{})
	} else {
		a, b, link = pairW(k, window, netlink.Config{})
	}
	link.SetFaults(inj)
	stop := false
	if busy {
		k.Go("ticker", func(p *sim.Proc) {
			for !stop {
				p.Sleep(10 * time.Millisecond)
			}
		})
	}
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	buf := make([]byte, pages*512)
	for i := range buf {
		buf[i] = byte(i)
	}
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: uint64(pages * 512),
		Runs: []vm.PageRun{{Index: 0, Count: pages, Data: buf}}}
	var arrived time.Duration
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) {
		got = b.sys.Receive(p, dst)
		arrived = p.Now()
		stop = true
	})
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}, NoIOUs: true})
	})
	k.Run()
	return arrived, got, a, b, k.EventsRun()
}

// TestWindowOneIdenticalToDefault: Window=1 must take exactly the
// stop-and-wait code path — same virtual end time, same scheduler
// event count, same stats — as the untouched default config.
func TestWindowOneIdenticalToDefault(t *testing.T) {
	tDef, _, aDef, _, evDef := bulkTransfer(t, 0, 100, false, nil)
	tW1, _, aW1, _, evW1 := bulkTransfer(t, 1, 100, false, nil)
	if tDef != tW1 {
		t.Errorf("arrival: default %v, Window=1 %v", tDef, tW1)
	}
	if evDef != evW1 {
		t.Errorf("events: default %d, Window=1 %d", evDef, evW1)
	}
	if aDef.srv.Stats() != aW1.srv.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", aDef.srv.Stats(), aW1.srv.Stats())
	}
}

// TestWindowedFasterAndIntact: W=16 pipelining must at least halve the
// simulated transfer time of a reliable bulk copy, deliver the payload
// bit-exactly, and — with a busy event heap, as in any real migration
// run — schedule fewer DES events than per-fragment stop-and-wait.
func TestWindowedFasterAndIntact(t *testing.T) {
	const pages = 200
	t1, got1, _, _, ev1 := bulkTransfer(t, 1, pages, true, nil)
	t16, got16, a16, _, ev16 := bulkTransfer(t, 16, pages, true, nil)
	if got16 == nil || got1 == nil {
		t.Fatal("transfer not delivered")
	}
	if t16 >= t1/2 {
		t.Errorf("W=16 took %v, want < half of stop-and-wait's %v", t16, t1)
	}
	if ev16 >= ev1 {
		t.Errorf("W=16 scheduled %d events, stop-and-wait %d — coalescing must reduce them", ev16, ev1)
	}
	want := got1.Mem[0].Runs[0].Data
	have := got16.Mem[0].Runs[0].Data
	if string(want) != string(have) {
		t.Error("windowed payload differs from stop-and-wait payload")
	}
	st := a16.srv.Stats()
	if st.Windowed != 1 || st.WindowRounds == 0 {
		t.Errorf("window stats not recorded: %+v", st)
	}
}

// TestWindowedSelectiveRetransmit: loss inside a window must trigger
// selective retransmission of the missing fragments only, never a
// resend of the full transfer.
func TestWindowedSelectiveRetransmit(t *testing.T) {
	const pages = 64
	arrived, got, a, _, _ := bulkTransfer(t, 16, pages, false, dropping(0.25, 7))
	if got == nil {
		t.Fatal("transfer lost despite windowed ARQ")
	}
	st := a.srv.Stats()
	frags := a.srv.fragsFor(pages*512 + 256) // payload plus header slack
	if st.Retransmits == 0 {
		t.Fatal("no retransmits on a 25%-loss link")
	}
	// A full-window-resend protocol would retransmit at least one whole
	// copy of the transfer; selective repeat resends roughly the loss
	// rate's worth.
	if st.Retransmits >= uint64(frags) {
		t.Errorf("Retransmits = %d for a %d-fragment transfer — looks like full-window resend", st.Retransmits, frags)
	}
	if arrived == 0 {
		t.Error("no arrival time recorded")
	}
}

// TestWindowedDeadPeer: the dead-peer declaration must still fire when
// a windowed transfer exhausts its retransmit budget.
func TestWindowedDeadPeer(t *testing.T) {
	_, got, a, _, _ := bulkTransfer(t, 16, 32, false, dropping(1.0, 3))
	if got != nil {
		t.Fatal("message delivered over a 100%-loss link")
	}
	st := a.srv.Stats()
	if st.DeadPeers == 0 {
		t.Errorf("DeadPeers = 0, want dead-peer declaration; stats %+v", st)
	}
	if st.Lost != 1 {
		t.Errorf("Lost = %d, want 1", st.Lost)
	}
}

// TestWindowedPartitionMidTransfer: a partition that opens mid-window
// must abandon the transfer with a dead-peer declaration rather than
// wedging the forwarder.
func TestWindowedPartitionMidTransfer(t *testing.T) {
	k := sim.New()
	a, b, link := pairW(k, 16, netlink.Config{})
	link.SetFaults(faults.NewInjector(&faults.Plan{
		Seed: 1,
		Partitions: []faults.Window{{
			Start: faults.Duration(500 * time.Millisecond),
			End:   faults.Duration(10 * time.Minute),
		}},
	}, ""))
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	const pages = 200
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: pages * 512,
		Runs: []vm.PageRun{{Index: 0, Count: pages, Data: make([]byte, pages*512)}}}
	delivered := false
	k.Go("server", func(p *sim.Proc) {
		b.sys.Receive(p, dst)
		delivered = true
	})
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}, NoIOUs: true})
	})
	k.Run()
	if delivered {
		t.Error("transfer delivered across a permanent partition")
	}
	st := a.srv.Stats()
	if st.DeadPeers == 0 || st.Lost != 1 {
		t.Errorf("partition mid-window: want dead peer + 1 lost, got %+v", st)
	}
	// Progress was made before the partition: some rounds went out.
	if st.WindowRounds == 0 || st.Windowed != 1 {
		t.Errorf("windowed path not exercised: %+v", st)
	}
}

// TestFragUnitAgreesWithWire: the transport's fragment math and the
// wire encoder's accounting must share one fragmentation unit (the
// page size plus fragHeadroom, via wire.FragCount) exactly — no more
// loose ratio bounds. For representative data-plane messages the test
// round-trips the frame and asserts (a) the re-encoded frame length is
// identical, so a forwarded-then-reforwarded message fragments the
// same way at every hop, and (b) the encoded frame never needs more
// fragments than the transport charged for it from WireBytes.
func TestFragUnitAgreesWithWire(t *testing.T) {
	srv := newNode(sim.New(), "A").srv
	if got, want := srv.fragUnit(), vm.DefaultPageSize+fragHeadroom; got != want {
		t.Fatalf("fragUnit = %d, want %d", got, want)
	}
	// Exact agreement on the unit: the transport's fragsFor is the same
	// computation as wire.FragCount for every length.
	for n := 0; n < 4*srv.fragUnit(); n += 97 {
		if got, want := srv.fragsFor(n), wire.FragCount(n, vm.DefaultPageSize, fragHeadroom); got != want {
			t.Fatalf("fragsFor(%d) = %d, wire.FragCount = %d", n, got, want)
		}
	}
	for _, pages := range []int{1, 4, 32, 200} {
		att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: uint64(pages * 512),
			Runs: []vm.PageRun{{Index: 0, Count: pages, Data: make([]byte, pages*512)}}}
		m := &ipc.Message{Op: 7, To: 42, Mem: []*ipc.MemAttachment{att}}
		frame, extras, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %d pages: %v", pages, err)
		}
		dec, err := wire.DecodeMessage(frame, extras)
		if err != nil {
			t.Fatalf("decode %d pages: %v", pages, err)
		}
		frame2, _, err := wire.EncodeMessage(dec)
		if err != nil {
			t.Fatalf("re-encode %d pages: %v", pages, err)
		}
		if len(frame2) != len(frame) {
			t.Errorf("%d pages: round-trip changed frame length %d -> %d", pages, len(frame), len(frame2))
		}
		fromFrame := wire.FragCount(len(frame), vm.DefaultPageSize, fragHeadroom)
		charged := srv.fragsFor(m.WireBytes())
		if fromFrame > charged {
			t.Errorf("%d pages: encoded frame needs %d fragments but the transport charged only %d (frame %d B, WireBytes %d)",
				pages, fromFrame, charged, len(frame), m.WireBytes())
		}
		if dec.WireBytes() != m.WireBytes() {
			t.Errorf("%d pages: WireBytes changed across the wire %d -> %d", pages, m.WireBytes(), dec.WireBytes())
		}
	}
}
