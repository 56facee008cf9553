package netmsg

import (
	"bytes"
	"testing"

	"accentmig/internal/faults"
	"accentmig/internal/ipc"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// TestCorruptDeliveryLeavesSenderImages: a receiver's run images are
// the sender's, which the sender keeps as its rollback snapshot, so
// corruption in flight must damage a copy of them.
func TestCorruptDeliveryLeavesSenderImages(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	link.SetFaults(faults.NewInjector(&faults.Plan{Seed: 1, CorruptProb: 1}, ""))
	dst := b.sys.AllocPort("mgr")
	a.srv.AddRoute(dst.ID, "B")
	data := bytes.Repeat([]byte{0x11}, 4*512)
	att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 4 * 512, Collapsed: true,
		Sums: []uint64{1, 2, 3, 4}, Runs: []vm.PageRun{{Index: 0, Count: 4, Data: data}}}
	var got *ipc.Message
	k.Go("server", func(p *sim.Proc) { got = b.sys.Receive(p, dst) })
	k.Go("client", func(p *sim.Proc) {
		if err := a.sys.Send(p, &ipc.Message{To: dst.ID, Mem: []*ipc.MemAttachment{att}, NoIOUs: true}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	k.Run()
	if got == nil || len(got.Mem) != 1 {
		t.Fatalf("got %+v", got)
	}
	if n := a.srv.Stats().CorruptPages; n != 4 {
		t.Fatalf("%d pages corrupted in flight, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if pg := got.Mem[0].Runs[0].Page(i, 512); pg[0] != 0x11^0x80 {
			t.Errorf("delivered page %d arrived undamaged", i)
		}
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0x11}, 4*512)) {
		t.Error("corruption in flight damaged the sender's images")
	}
}

// TestHolderWriteAfterHashReadLeavesRequesterPage: a content index
// aliases its holder's live frames, so a hash-read reply carries a copy,
// and the holder writing its page afterwards leaves the requester's
// page as it was served.
func TestHolderWriteAfterHashReadLeavesRequesterPage(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	content := bytes.Repeat([]byte{0x22}, 512)
	held := vm.NewSegment("held", 512, 512)
	pg := held.Materialize(0, content)
	h, _ := vm.HashPage(pg.Data, 512)
	ix := vm.NewContentIndex(512)
	ix.Put(h, pg.Data)
	b.srv.SetContentIndex(ix)
	a.srv.AddRoute(b.srv.BackingPort(), "B")
	a.pg.SetHolderResolver(func(uint64) (ipc.PortID, bool) { return b.srv.BackingPort(), true })

	// The requester's page is owed by its own backer, which the fault
	// never asks: the hinted content comes from the holder.
	as := vm.MustNewAddressSpace(vm.Config{})
	mine := vm.NewImaginarySegment("owed", 512, 512, uint64(a.srv.BackingPort()), k.NextID())
	if _, err := as.MapSegment(0x4000, 512, mine, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	a.pg.RegisterHints(mine.ID, 0, []uint64{h})
	k.Go("faulter", func(p *sim.Proc) {
		if err := a.pg.Touch(p, as, 0x4000, false); err != nil {
			t.Errorf("Touch: %v", err)
		}
	})
	k.Run()
	if a.pg.Stats().HolderServes != 1 {
		t.Fatalf("pager stats %+v: the fault was not served by the holder", a.pg.Stats())
	}
	held.Write(0, 0, []byte{0xee, 0xee})
	if got := mine.Read(0, 0, 512); !bytes.Equal(got, content) {
		t.Errorf("the holder's write reached the requester's page: %x", got[:4])
	}
}
