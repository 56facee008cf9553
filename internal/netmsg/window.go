// Sliding-window pipelined transfers (Config.Window > 1).
//
// The paper-faithful default is stop-and-wait: Accent's network code
// could not keep many fragments buffered, so every 512-byte fragment
// pays sender CPU + wire + latency + receiver CPU serially (§3.1, and
// the per-message handling costs of Table 4-1). This file implements
// what the protocol could have done with deeper buffering: keep up to
// Window fragments in flight so the three stages — sender CPU, wire,
// receiver CPU — overlap as a pipeline, with one cumulative +
// selective acknowledgement frame per in-flight burst.
//
// Timing for a burst is computed analytically by a three-stage
// pipeline recurrence over its fragments, then charged to the
// simulation as one batched occupancy per stage (helper processes hold
// the sender CPU, the wire, and the receiver CPU for the burst's
// aggregate busy time while the forwarder waits out the makespan).
// Per-fragment loss is still judged frame by frame, at each frame's
// projected arrival instant, so fault plans — loss windows, bursts,
// partitions — observe the same deterministic timeline a serialized
// send would give them. The result is a handful of scheduler events
// per burst instead of several per fragment: windowed transfers are
// cheaper for the DES to simulate than stop-and-wait ones, not dearer.
package netmsg

import (
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
)

// winFrag tracks one fragment of a windowed transfer.
type winFrag struct {
	n         int  // payload bytes
	off       int  // first payload byte of the message this fragment carries
	attempts  int  // times put on the wire
	delivered bool // reached the peer (possibly not yet acked)
}

// winJob is one stage's occupancy order for a burst: wait delay after
// the burst starts, then hold the stage's resource for hold.
type winJob struct {
	delay time.Duration
	hold  time.Duration
}

// winHelpers are the per-peer-link pipeline-stage processes. Each
// holds exactly one resource (sender CPU, wire, or receiver CPU), so
// opposite-direction windowed transfers can never deadlock the way a
// single process holding all three stages at once would.
type winHelpers struct {
	tx, wire, rx *sim.Queue[winJob]
	done         *sim.Queue[struct{}]
}

// helpers returns pl's stage processes, spawning them on first use.
func (s *Server) helpers(pl *peerLink) *winHelpers {
	if pl.win != nil {
		return pl.win
	}
	h := &winHelpers{
		tx:   sim.NewQueue[winJob](s.k),
		wire: sim.NewQueue[winJob](s.k),
		rx:   sim.NewQueue[winJob](s.k),
		done: sim.NewQueue[struct{}](s.k),
	}
	pl.win = h
	s.k.Go(s.name+".netmsg.win.tx", func(p *sim.Proc) {
		for {
			j := h.tx.Pop(p)
			if j.delay > 0 {
				p.Sleep(j.delay)
			}
			s.cpu.UseHigh(p, j.hold)
			h.done.Push(struct{}{})
		}
	})
	s.k.Go(s.name+".netmsg.win.wire", func(p *sim.Proc) {
		for {
			j := h.wire.Pop(p)
			if j.delay > 0 {
				p.Sleep(j.delay)
			}
			pl.link.Occupy(p, j.hold)
			h.done.Push(struct{}{})
		}
	})
	s.k.Go(s.name+".netmsg.win.rx", func(p *sim.Proc) {
		for {
			j := h.rx.Pop(p)
			if j.delay > 0 {
				p.Sleep(j.delay)
			}
			pl.peer.cpu.UseHigh(p, j.hold)
			h.done.Push(struct{}{})
		}
	})
	return h
}

// forwardWindowed pushes a multi-fragment message with up to Window
// fragments in flight. Each round sends the head of the pending list
// as one pipelined burst; the peer answers with a single cumulative +
// selective ack, and only fragments the ack reports missing are
// resent (a fragment that arrived twice because its ack was lost costs
// the peer cheap duplicate recognition, as in sendReliable). A
// fragment that exhausts maxAttempts undelivered declares the peer
// dead and abandons the transfer, exactly like stop-and-wait. Reports
// whether the message got through; the caller delivers it.
func (s *Server) forwardWindowed(p *sim.Proc, m *ipc.Message, pl *peerLink, bytes, frags int, handling *time.Duration) bool {
	unit := s.fragUnit()
	pending := make([]*winFrag, frags)
	rem := bytes
	for f := range pending {
		n := unit
		if rem < n {
			n = rem
		}
		rem -= n
		pending[f] = &winFrag{n: n, off: f * unit}
	}
	s.stats.Windowed++
	backoff := retransmitBackoff
	for len(pending) > 0 {
		allDelivered := true
		exhausted := false
		for _, f := range pending {
			if !f.delivered {
				allDelivered = false
			}
			if f.attempts >= maxAttempts {
				exhausted = true
				if !f.delivered {
					s.stats.DeadPeers++
					s.stats.Lost++
					// Selective acks mean delivery may be non-contiguous:
					// fragments no longer pending were delivered and acked,
					// and pending ones carry per-fragment delivered flags.
					// Credit every page whose span avoids all undelivered
					// fragments.
					s.creditPartial(p, m, pl, func(lo, hi int) bool {
						for _, u := range pending {
							if !u.delivered && lo < u.off+u.n && u.off < hi {
								return false
							}
						}
						return true
					})
					s.account(m, *handling)
					s.nack(p, m)
					return false
				}
			}
		}
		if exhausted && allDelivered {
			// Every pending fragment reached the peer; only acks were
			// lost. The peer holds the data, so the message counts as
			// delivered (sendReliable's duplicate rule).
			return true
		}
		batch := pending
		if len(batch) > s.cfg.Window {
			batch = batch[:s.cfg.Window]
		}
		acked := s.sendWindow(p, pl, m, batch, handling)
		s.stats.WindowRounds++
		if acked {
			kept := pending[:0]
			for _, f := range pending {
				if !f.delivered {
					kept = append(kept, f)
				}
			}
			progress := len(kept) < len(pending)
			pending = kept
			if len(pending) == 0 {
				return true
			}
			if progress {
				backoff = retransmitBackoff
				continue
			}
		}
		// No ack came back (or an ack reporting zero progress): wait out
		// one retransmission timeout before resending the window.
		p.Sleep(backoff)
		s.stats.BackoffTime += backoff
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	return true
}

// sendWindow transmits one burst of fragments as a three-stage
// pipeline and reports whether the peer's ack frame made it back.
//
// The recurrence: the sender emits fragment i at i*fragCPU; the frame
// starts crossing when both the sender has finished it and the wire is
// free; it lands latency after it leaves the wire; the receiver
// processes arrivals in order whenever its CPU is free. Stage busy
// times accumulate to txBusy / wireBusy / rxBusy and are charged as
// one occupancy each through the helper processes while the forwarder
// waits out the analytic makespan.
func (s *Server) sendWindow(p *sim.Proc, pl *peerLink, m *ipc.Message, batch []*winFrag, handling *time.Duration) bool {
	cs := fragCPU
	lat := pl.link.Latency()
	rate := time.Duration(pl.link.Rate())
	start := p.Now()

	txBusy := time.Duration(len(batch)) * cs
	var wireBusy, rxBusy, rxStart, rxFree time.Duration
	wireFree := cs // wire can first be claimed once fragment 0 is built
	resentFrames, resentBytes, totalBytes := 0, 0, 0
	for i, f := range batch {
		frame := f.n + frameOverhead
		totalBytes += frame
		if f.attempts > 0 {
			s.stats.Retransmits++
			s.stats.RetransmitBytes += uint64(frame)
			resentFrames++
			resentBytes += frame
		}
		f.attempts++
		w := time.Duration(frame) * time.Second / rate
		sendDone := time.Duration(i+1) * cs
		if sendDone > wireFree {
			wireFree = sendDone
		}
		wireFree += w
		wireBusy += w
		arrive := wireFree + lat
		if !pl.link.Judge(start+arrive, frame, m.FaultSupport) {
			continue
		}
		cost := cs
		if f.delivered {
			// Duplicate of an already-received fragment (its ack was
			// lost): recognized cheaply by sequence number.
			cost = smallCPU
		}
		f.delivered = true
		if rxBusy == 0 {
			rxStart = arrive
		}
		if arrive > rxFree {
			rxFree = arrive
		}
		rxFree += cost
		rxBusy += cost
	}
	*handling += txBusy + rxBusy

	// One cumulative + selective ack frame, sent once the receiver has
	// processed the burst — if anything arrived to acknowledge.
	acked := false
	roundEnd := txBusy
	if wireFree > roundEnd {
		roundEnd = wireFree
	}
	if rxBusy > 0 {
		if rxFree > roundEnd {
			roundEnd = rxFree
		}
		ackFrame := ackBytes + frameOverhead
		ackArrive := rxFree + time.Duration(ackFrame)*time.Second/rate + lat
		s.stats.AckFrames++
		if pl.link.Judge(start+ackArrive, ackFrame, m.FaultSupport) {
			acked = true
			if ackArrive > roundEnd {
				roundEnd = ackArrive
			}
		}
	}

	// Charge the three stages' occupancy concurrently and wait out the
	// burst's makespan: a handful of events, however wide the window.
	h := s.helpers(pl)
	jobs := 0
	if txBusy > 0 {
		h.tx.Push(winJob{hold: txBusy})
		jobs++
	}
	if wireBusy > 0 {
		h.wire.Push(winJob{delay: cs, hold: wireBusy})
		jobs++
	}
	if rxBusy > 0 {
		h.rx.Push(winJob{delay: rxStart, hold: rxBusy})
		jobs++
	}
	for i := 0; i < jobs; i++ {
		h.done.Pop(p)
	}
	if end := start + roundEnd; end > p.Now() {
		p.Sleep(end - p.Now())
	}

	if s.k.Tracing() {
		s.k.Emit(obs.Event{
			Kind:    obs.LinkXmit,
			Machine: s.name,
			Proc:    p.Name(),
			Name:    "xmit.window",
			Bytes:   totalBytes,
			Dur:     p.Now() - start,
			Op:      m.Op,
		})
		if resentFrames > 0 {
			s.k.Emit(obs.Event{
				Kind:    obs.NetRetransmit,
				Machine: s.name,
				Proc:    p.Name(),
				Bytes:   resentBytes,
				Op:      m.Op,
			})
		}
	}
	return acked
}
