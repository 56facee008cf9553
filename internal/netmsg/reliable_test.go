package netmsg

import (
	"testing"
	"time"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
)

// TestReliableSingleFragmentSurvivesLoss pins the control-plane fix:
// before the reliable path, a dropped single-fragment message (an ack,
// a read request) silently vanished and wedged whoever was waiting on
// it. With ack/retransmit active on lossy links, every small message
// eventually arrives.
func TestReliableSingleFragmentSurvivesLoss(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	link.SetFaults(dropping(0.4, 7))
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	const n = 10
	got := 0
	k.Go("server", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.sys.Receive(p, dst)
			got++
		}
	})
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := a.sys.Send(p, &ipc.Message{Op: 5, To: dst.ID, BodyBytes: 8}); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
	})
	k.Run()
	if got != n {
		t.Fatalf("delivered %d of %d single-fragment messages on a 40%%-loss link", got, n)
	}
	st := a.srv.Stats()
	if st.Retransmits == 0 {
		t.Error("no retransmits recorded despite 40% loss")
	}
	if st.AckFrames == 0 {
		t.Error("no acknowledgement frames recorded")
	}
	if st.BackoffTime == 0 {
		t.Error("no backoff time accumulated")
	}
}

// TestDeadPeerNackUnblocksCaller: when every retransmit of a message is
// lost, the sender declares the peer dead and synthesizes a local
// OpSendFailed to the message's reply port, so a blocked caller gets a
// cause instead of waiting out its own timeout.
func TestDeadPeerNackUnblocksCaller(t *testing.T) {
	k := sim.New()
	a, b, link := pair(k, netlink.Config{})
	link.SetFaults(dropping(1.0, 3))
	dst := b.sys.AllocPort("svc")
	a.srv.AddRoute(dst.ID, "B")
	reply := a.sys.AllocPort("reply")
	var nack *ipc.Message
	k.Go("client", func(p *sim.Proc) {
		a.sys.Send(p, &ipc.Message{Op: 9, To: dst.ID, ReplyTo: reply.ID, BodyBytes: 8})
		m, ok := a.sys.ReceiveTimeout(p, reply, time.Minute)
		if !ok {
			t.Error("no nack arrived within a minute of the dead-peer declaration")
			return
		}
		nack = m
	})
	k.Run()
	if nack == nil {
		return
	}
	if nack.Op != ipc.OpSendFailed {
		t.Fatalf("nack op = %#x, want OpSendFailed", nack.Op)
	}
	sf, ok := nack.Body.(*ipc.SendFailure)
	if !ok {
		t.Fatalf("nack body = %T, want *ipc.SendFailure", nack.Body)
	}
	if sf.To != dst.ID || sf.Op != 9 {
		t.Errorf("SendFailure = %+v, want To=%d Op=9", sf, dst.ID)
	}
	st := a.srv.Stats()
	if st.DeadPeers == 0 {
		t.Error("no dead-peer declaration counted")
	}
	if st.Lost != 1 {
		t.Errorf("Lost = %d, want 1", st.Lost)
	}
}

// TestCrashDeadLettersBackerRequests: Crash withdraws the backing port,
// so inbound read requests dead-letter at the crashed host and the
// faulter hears nothing — recovery is the remote pager's retry budget,
// not a nack (the host is "down", it cannot answer).
func TestCrashDeadLettersBackerRequests(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	b.srv.AddRoute(a.srv.BackingPort(), "A")
	a.srv.Crash()
	reply := b.sys.AllocPort("reply")
	answered := false
	k.Go("faulter", func(p *sim.Proc) {
		b.sys.Send(p, &ipc.Message{
			Op:           imag.OpReadRequest,
			To:           a.srv.BackingPort(),
			ReplyTo:      reply.ID,
			Body:         &imag.ReadRequest{SegID: 1, PageIdx: 0},
			BodyBytes:    imag.ReadRequestBytes,
			FaultSupport: true,
		})
		_, answered = b.sys.ReceiveTimeout(p, reply, 30*time.Second)
	})
	k.Run()
	if answered {
		t.Error("crashed backer answered a read request")
	}
	if a.srv.Stats().DeadLetters == 0 {
		t.Error("request to a crashed backer was not dead-lettered")
	}
}

// TestBackerRejectsUnknownSegment: a live backer that no longer holds
// (or never held) the requested segment replies OpReadError instead of
// staying silent, so the faulter surfaces a typed error immediately
// rather than burning its whole retry budget.
func TestBackerRejectsUnknownSegment(t *testing.T) {
	k := sim.New()
	a, b, _ := pair(k, netlink.Config{})
	b.srv.AddRoute(a.srv.BackingPort(), "A")
	var rep *ipc.Message
	k.Go("faulter", func(p *sim.Proc) {
		r, err := b.sys.Call(p, &ipc.Message{
			Op:           imag.OpReadRequest,
			To:           a.srv.BackingPort(),
			Body:         &imag.ReadRequest{SegID: 424242, PageIdx: 0},
			BodyBytes:    imag.ReadRequestBytes,
			FaultSupport: true,
		})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		rep = r
	})
	k.Run()
	if rep == nil {
		t.Fatal("no reply")
	}
	if rep.Op != imag.OpReadError {
		t.Fatalf("reply op = %#x, want OpReadError", rep.Op)
	}
	re, ok := rep.Body.(*imag.ReadError)
	if !ok {
		t.Fatalf("reply body = %T, want *imag.ReadError", rep.Body)
	}
	if re.SegID != 424242 || re.Reason != "segment dead" {
		t.Errorf("ReadError = %+v", re)
	}
}
