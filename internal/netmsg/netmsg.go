// Package netmsg implements the NetMsgServer of §2.4: the user-level
// server that extends IPC transparently across machine boundaries. It
// installs itself as the IPC router for its machine, forwards messages
// to peers with fragmentation costs, learns return routes from the
// traffic it carries, and — its copy-on-reference trick — may cache the
// RealMem portions of a passing message and substitute IOUs, becoming
// the backer for that data.
package netmsg

import (
	"bytes"
	"fmt"
	"time"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/wire"
)

// The server's calibrated costs and wire framing (DESIGN.md §3). The
// fragment payload is the machine's page size, so a one-page payload
// plus its headers fills one fragment.
const (
	// fragCPU is the per-fragment handling cost on each side.
	fragCPU = 13 * time.Millisecond
	// smallCPU is the handling cost for a small control message, one
	// fragment of at most smallBytes on the wire.
	smallCPU = 3 * time.Millisecond
	// smallBytes is the control-message size threshold.
	smallBytes = 256
	// cachePerPageCPU is the cost of absorbing one page into the IOU
	// cache when the server elects to become a backer.
	cachePerPageCPU = 20 * time.Microsecond
	// serveCPU is the backer's cost to service one read request beyond
	// the IPC costs.
	serveCPU = 3 * time.Millisecond
	// cacheMinPages is the server's own-initiative threshold (§2.4): an
	// attachment smaller than this many pages is cheaper to ship than
	// to back, so it passes through physically.
	cacheMinPages = 4
	// frameOverhead is per-fragment wire framing bytes.
	frameOverhead = 32
	// fragHeadroom is extra per-fragment capacity for protocol headers,
	// so a one-page payload plus its headers still fits one fragment.
	fragHeadroom = 128
)

// Reliable-delivery parameters. They engage only on links that can
// drop frames (link.MayDrop()); on reliable links the transport behaves
// — and costs — exactly as it did before they existed.
const (
	// ackBytes is the payload size of an acknowledgement frame.
	ackBytes = 32
	// retransmitBackoff is the initial wait before resending an
	// unacknowledged frame; it doubles per attempt up to maxBackoff.
	retransmitBackoff = 200 * time.Millisecond
	// maxBackoff caps the exponential backoff.
	maxBackoff = 2 * time.Second
	// maxAttempts is how many times a frame is sent before the peer is
	// declared dead.
	maxAttempts = 10
)

// Config sets the server's caching and transport policy.
type Config struct {
	// DisableIOUCache turns off the caching behaviour (it is on by
	// default); senders can also veto per message (NoIOUs) or per
	// attachment (Copy).
	DisableIOUCache bool
	// Window is how many fragments of a multi-fragment transfer may be
	// in flight at once. 0 or 1 reproduces the Accent protocol's
	// effective stop-and-wait behaviour (the paper-faithful default,
	// byte-identical to the pre-window transport); larger values enable
	// the pipelined sliding-window mode, where each burst of up to
	// Window fragments overlaps sender CPU, wire, and receiver CPU and
	// is confirmed by one cumulative + selective ack frame.
	Window int
}

// WillAbsorb reports whether forward would absorb a data attachment
// with the given Copy flag and page count from a message with the given
// NoIOUs flag — the §2.4 own-initiative caching decision, exposed so
// protocol layers (the dedup manifest) can predict which attachments
// will physically ship. It must mirror forward's test exactly.
func (c Config) WillAbsorb(copyFlag, noIOUs bool, pages int) bool {
	return !c.DisableIOUCache && !noIOUs && !copyFlag && pages >= cacheMinPages
}

// Stats counts server activity.
type Stats struct {
	Forwarded   uint64 // messages sent to peers
	Delivered   uint64 // messages received from peers and delivered
	DeadLetters uint64 // inbound messages with no local port or route
	CachedPages uint64 // pages absorbed into the IOU cache
	Served      uint64 // read requests answered from the cache
	HashServed  uint64 // content-addressed reads answered from the index
	Retransmits uint64 // frames resent after injected loss
	Lost        uint64 // messages abandoned after the peer was declared dead

	// Reliable-transport counters (lossy links only).
	AckFrames       uint64        // acknowledgement frames sent by the peer
	Duplicates      uint64        // retransmitted frames the peer had already seen
	DeadPeers       uint64        // retransmit budgets exhausted
	RetransmitBytes uint64        // wire bytes consumed by resends
	BackoffTime     time.Duration // total virtual time spent waiting to resend

	// Sliding-window transport counters (Window > 1 only).
	Windowed     uint64 // multi-fragment messages sent through the windowed path
	WindowRounds uint64 // in-flight bursts (window rounds) sent

	// Robustness counters.
	CreditedPages uint64 // pages of aborted transfers credited to the peer's ledger
	CorruptPages  uint64 // delivered payload pages bit-flipped by the failure model

	// Shipped pages, Table 4-3's transferred fraction.
	DataPages  uint64 // data-attachment pages forwarded to peers
	FaultPages uint64 // pages sent in answer to imaginary faults and hash reads
}

// Server is one machine's NetMsgServer.
type Server struct {
	k    *sim.Kernel
	name string
	cpu  *sim.Resource
	sys  *ipc.System
	cfg  Config
	// ps is the machine's page size: the payload of one fragment and
	// the stride that slices attachments into pages.
	ps int

	peers  map[string]*peerLink
	routes map[ipc.PortID]string // remote port → peer name
	// outbound is a token per routed message; fg and bg hold the
	// messages themselves in two FIFO classes. The forwarder drains
	// every foreground message before any background one, so streamed
	// prefetch never head-of-line-blocks a demand fault reply.
	outbound *sim.Queue[struct{}]
	fg, bg   []*ipc.Message

	store    *imag.Store
	backPort *ipc.Port

	// index is the machine's content index (nil when the dedup store is
	// disabled). The server registers every page it absorbs, making its
	// IOU cache — the pages a migrated-away process left behind —
	// discoverable by hash, and answers OpHashRead against it.
	index *vm.ContentIndex

	// ledger retains page content from migration transfers to THIS
	// machine that aborted partway (nil unless resume is configured).
	// Senders credit it with the whole pages of every fragment the
	// peer acknowledged before the transfer died.
	ledger *vm.DeliveryLedger

	rec   *metrics.Recorder
	stats Stats
}

// migrationPayload is implemented by message bodies that carry a
// migration's memory image (core.RIMASBody), naming the migrating
// process so partial deliveries can be credited to its ledger entry.
type migrationPayload interface{ MigrationProc() string }

type peerLink struct {
	link *netlink.Link
	peer *Server
	// win holds the lazily spawned pipeline-stage helper processes for
	// windowed transfers; nil until the first Window > 1 burst, so
	// stop-and-wait runs schedule exactly the events they always did.
	win *winHelpers
}

// New creates the server and installs it as the machine's IPC router.
// Call Start to launch its service processes.
func New(k *sim.Kernel, name string, cpu *sim.Resource, sys *ipc.System, cfg Config) *Server {
	s := &Server{
		k:        k,
		name:     name,
		cpu:      cpu,
		sys:      sys,
		cfg:      cfg,
		ps:       sys.PageSize(),
		peers:    make(map[string]*peerLink),
		routes:   make(map[ipc.PortID]string),
		outbound: sim.NewQueue[struct{}](k),
		store:    imag.NewStore(),
	}
	s.backPort = sys.AllocPort(name + ".netmsg.backer")
	sys.SetRouter(s.route)
	return s
}

// Connect attaches a bidirectional link to a peer server. Both sides
// must call Connect (or use ConnectPair).
func (s *Server) Connect(peer *Server, link *netlink.Link) {
	s.peers[peer.name] = &peerLink{link: link, peer: peer}
}

// ConnectPair wires two servers over one shared link.
func ConnectPair(a, b *Server, link *netlink.Link) {
	a.Connect(b, link)
	b.Connect(a, link)
}

// AddRoute teaches the server that a port lives at (or via) a peer.
func (s *Server) AddRoute(port ipc.PortID, peer string) {
	s.routes[port] = peer
}

// BackingPort is the port backing this server's cached IOUs.
func (s *Server) BackingPort() ipc.PortID { return s.backPort.ID }

// Store exposes the IOU cache for inspection (residual-dependency
// accounting in experiments).
func (s *Server) Store() *imag.Store { return s.store }

// SetRecorder directs metrics to rec (may be nil).
func (s *Server) SetRecorder(rec *metrics.Recorder) { s.rec = rec }

// SetContentIndex attaches the machine's content index; absorbed pages
// are registered in it (charging vm.HashPerPageCPU each) and
// OpHashRead requests are answered from it. A nil index keeps the
// server's paths byte-identical to a build without the dedup store.
func (s *Server) SetContentIndex(ix *vm.ContentIndex) { s.index = ix }

// SetLedger attaches the machine's delivery ledger (resumable
// migration). A nil ledger keeps every transport path byte-identical
// to a build without resume support.
func (s *Server) SetLedger(l *vm.DeliveryLedger) { s.ledger = l }

// fragUnit is the fragmentation unit: one page of payload plus
// fragHeadroom of protocol headers per fragment.
func (s *Server) fragUnit() int { return s.ps + fragHeadroom }

// fragsFor reports how many fragments a message of n wire bytes
// occupies (always at least one). It delegates to wire.FragCount so
// the transport's fragment math and the frame encoder share one unit
// and cannot drift.
func (s *Server) fragsFor(n int) int { return wire.FragCount(n, s.ps, fragHeadroom) }

// Ledger exposes the delivery ledger (nil unless resume is on).
func (s *Server) Ledger() *vm.DeliveryLedger { return s.ledger }

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Start launches the forwarder and backer service processes.
func (s *Server) Start() {
	s.k.Go(s.name+".netmsg.fwd", s.forwarder)
	s.k.Go(s.name+".netmsg.backer", s.backer)
}

// route is the IPC router hook: it claims messages addressed to ports
// this server knows to be remote.
func (s *Server) route(m *ipc.Message) bool {
	if _, ok := s.routes[m.To]; !ok {
		return false
	}
	if m.Background {
		s.bg = append(s.bg, m)
	} else {
		s.fg = append(s.fg, m)
	}
	s.outbound.Push(struct{}{})
	return true
}

// forwarder drains the outbound queue and pushes each message across
// the wire to its peer, stop-and-wait per fragment (the Accent network
// protocol's effective behaviour; its buffering was too small to keep
// many fragments in flight).
func (s *Server) forwarder(p *sim.Proc) {
	for {
		s.outbound.Pop(p)
		var m *ipc.Message
		if len(s.fg) > 0 {
			m = s.fg[0]
			s.fg = s.fg[1:]
			if len(s.fg) == 0 {
				s.fg = nil // let the drained backlog be collected
			}
		} else {
			m = s.bg[0]
			s.bg = s.bg[1:]
			if len(s.bg) == 0 {
				s.bg = nil
			}
		}
		peerName := s.routes[m.To]
		pl, ok := s.peers[peerName]
		if !ok {
			s.stats.DeadLetters++
			continue
		}
		s.forward(p, m, pl)
	}
}

func (s *Server) forward(p *sim.Proc, m *ipc.Message, pl *peerLink) {
	// Copy-on-reference caching: absorb eligible data attachments and
	// pass IOUs in their place (§2.4, §3.1).
	if !s.cfg.DisableIOUCache && !m.NoIOUs {
		for i, a := range m.Mem {
			if a.Kind != ipc.AttachData || a.Copy || a.PageCount() < cacheMinPages {
				continue
			}
			m.Mem[i] = s.absorb(p, a)
		}
	}

	// Account physically shipped data pages (Table 4-3's transferred
	// fraction).
	dataPages, dataBytes := 0, 0
	for _, a := range m.Mem {
		if a.Kind == ipc.AttachData {
			dataPages += a.PageCount()
			dataBytes += a.DataBytes()
		}
	}
	s.stats.DataPages += uint64(dataPages)
	if dataPages > 0 && s.k.Tracing() {
		s.k.Emit(obs.Event{
			Kind:    obs.PageTransfer,
			Machine: s.name,
			Proc:    p.Name(),
			Name:    "data",
			Bytes:   dataBytes,
			Op:      m.Op,
		})
	}

	bytes := m.WireBytes()
	frags := s.fragsFor(bytes)
	// Control messages are cheaper to process than data-bearing ones.
	cost := fragCPU
	if frags == 1 && bytes <= smallBytes {
		cost = smallCPU
	}
	var handling time.Duration

	switch {
	case frags == 1 && pl.link.MayDrop():
		// Lossy link: sequence-numbered ack/retransmit datagram. A lost
		// control message now produces a retransmit (and eventually a
		// dead-peer nack) instead of wedging the receiver forever.
		delivered, h := s.sendReliable(p, pl, m, bytes, cost)
		handling += h
		if !delivered {
			s.stats.Lost++
			s.account(m, handling)
			s.nack(p, m)
			return
		}
	case frags > 1 && s.cfg.Window > 1:
		// Pipelined sliding-window transfer (see window.go): bursts of
		// up to Window fragments in flight, cumulative + selective acks,
		// same dead-peer semantics as stop-and-wait.
		if !s.forwardWindowed(p, m, pl, bytes, frags, &handling) {
			return
		}
	default:
		// Stop-and-wait per-fragment ARQ makes the transfer reliable at
		// the cost of retransmission time and bytes; on a reliable link
		// every fragment goes through on its first attempt. A fragment
		// that exhausts its retransmit budget declares the peer dead and
		// abandons the whole transfer.
		unit := s.fragUnit()
		rem := bytes
		for f := 0; f < frags; f++ {
			n := unit
			if rem < n {
				n = rem
			}
			rem -= n
			sent := false
			backoff := retransmitBackoff
			for attempt := 0; attempt < maxAttempts; attempt++ {
				if attempt > 0 {
					backoff = s.backoffWait(p, backoff, n+frameOverhead, m.Op)
				}
				s.cpu.UseHigh(p, cost)
				handling += cost
				if pl.link.Transmit(p, n+frameOverhead, m.FaultSupport) {
					sent = true
					break
				}
			}
			if !sent {
				s.stats.DeadPeers++
				s.stats.Lost++
				// Fragments 0..f-1 were delivered in order before this one
				// exhausted its budget: credit their whole pages to the
				// peer's ledger so a retry ships only the tail.
				deliveredBytes := f * unit
				s.creditPartial(p, m, pl, func(lo, hi int) bool { return hi <= deliveredBytes })
				s.account(m, handling)
				s.nack(p, m)
				return
			}
			pl.peer.cpu.UseHigh(p, cost)
			handling += cost
		}
	}
	s.stats.Forwarded++
	s.account(m, handling)

	// The message crosses the wire as a frame: encode and hand the peer
	// a freshly decoded message, guaranteeing context messages are
	// self-contained (§3.1). Its page images are the sender's, which no
	// one writes once a message carries them (see package wire).
	decoded, err := wire.Transfer(m)
	if err != nil {
		// A codec failure is a protocol bug, not a runtime condition.
		panic(fmt.Sprintf("netmsg %s: wire transfer of op %#x: %v", s.name, m.Op, err))
	}
	if pl.link.MayCorrupt() {
		s.corruptDelivered(decoded, pl)
	}
	pl.peer.deliver(p, decoded, s.name)
}

// account records one logical message's handling cost (both sides).
func (s *Server) account(m *ipc.Message, cpu time.Duration) {
	if s.rec != nil {
		s.rec.AddMessage(cpu)
	}
}

// backoffWait charges one retransmission: it sleeps the current
// backoff, records the resend in stats and trace, and returns the
// next (doubled, capped) backoff.
func (s *Server) backoffWait(p *sim.Proc, backoff time.Duration, frame int, op int) time.Duration {
	p.Sleep(backoff)
	s.stats.BackoffTime += backoff
	s.stats.Retransmits++
	s.stats.RetransmitBytes += uint64(frame)
	if s.k.Tracing() {
		s.k.Emit(obs.Event{
			Kind:    obs.NetRetransmit,
			Machine: s.name,
			Proc:    p.Name(),
			Bytes:   frame,
			Dur:     backoff,
			Op:      op,
		})
	}
	backoff *= 2
	if backoff > maxBackoff {
		backoff = maxBackoff
	}
	return backoff
}

// sendReliable pushes a single-fragment message across a lossy link as
// a sequence-numbered datagram: send, await ack, retransmit with
// capped exponential backoff, and declare the peer dead after
// maxAttempts sends. It reports whether the message reached the peer;
// handling is the CPU charged. A duplicate (data arrived but its ack
// was lost) costs the peer only cheap recognition by sequence number.
func (s *Server) sendReliable(p *sim.Proc, pl *peerLink, m *ipc.Message, bytes int, perSide time.Duration) (bool, time.Duration) {
	var handling time.Duration
	frame := bytes + frameOverhead
	backoff := retransmitBackoff
	delivered := false
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			backoff = s.backoffWait(p, backoff, frame, m.Op)
		}
		s.cpu.UseHigh(p, perSide)
		handling += perSide
		if !pl.link.Transmit(p, frame, m.FaultSupport) {
			continue
		}
		if !delivered {
			pl.peer.cpu.UseHigh(p, perSide)
			handling += perSide
			delivered = true
		} else {
			s.stats.Duplicates++
			pl.peer.cpu.UseHigh(p, smallCPU)
			handling += smallCPU
		}
		s.stats.AckFrames++
		if pl.link.Transmit(p, ackBytes+frameOverhead, m.FaultSupport) {
			return true, handling
		}
	}
	if delivered {
		// The data arrived; only acks were lost. The peer holds the
		// message, so deliver it — the sender-side Lost/nack path is
		// reserved for messages that never got through.
		return true, handling
	}
	s.stats.DeadPeers++
	return false, handling
}

// nack synthesizes a local OpSendFailed to the abandoned message's
// reply port after a dead-peer declaration, so a caller blocked on
// that port unblocks with a cause instead of waiting out its timeout.
// Only a locally present reply port is notified; inbound dead letters
// on the peer are never nacked across the wire.
func (s *Server) nack(p *sim.Proc, m *ipc.Message) {
	if m.ReplyTo == 0 {
		return
	}
	if _, local := s.sys.Lookup(m.ReplyTo); !local {
		return
	}
	err := s.sys.Send(p, &ipc.Message{
		Op:        ipc.OpSendFailed,
		To:        m.ReplyTo,
		Body:      &ipc.SendFailure{To: m.To, Op: m.Op, Reason: "peer unreachable"},
		BodyBytes: ipc.SendFailureBytes,
	})
	if err != nil {
		s.stats.DeadLetters++
	}
}

// creditPartial runs after a multi-fragment transfer is abandoned: it
// walks the message's wire layout (ipc.Message.PageSpans, the
// accounting WireBytes prices) and credits every payload page whose
// full byte span — page header plus image — rode a fragment the peer
// acknowledged, so the next attempt's manifest exchange can elide it.
// covered reports whether the encoded byte span [lo, hi) reached the
// peer. Compressed attachments have no page spans on the wire and are
// skipped. A page that the failure model corrupts in flight is not
// credited — the receiver would retain bytes whose hash can never
// match a manifest entry.
func (s *Server) creditPartial(p *sim.Proc, m *ipc.Message, pl *peerLink, covered func(lo, hi int) bool) {
	led := pl.peer.ledger
	if led == nil {
		return
	}
	body, ok := m.Body.(migrationPayload)
	if !ok {
		return
	}
	proc := body.MigrationProc()
	ps := pl.peer.ps
	mayCorrupt := pl.link.MayCorrupt()
	credited := uint64(0)
	m.PageSpans(ps, func(lo, hi int, pg []byte) {
		if !covered(lo, hi) {
			return
		}
		if mayCorrupt && pl.link.CorruptPage(s.k.Now()) {
			return
		}
		if h, zero := vm.HashPage(pg, ps); !zero {
			led.Credit(proc, h, pg)
			credited++
		}
	})
	if credited > 0 {
		s.stats.CreditedPages += credited
		if s.k.Tracing() {
			s.k.Emit(obs.Event{
				Kind:    obs.PageTransfer,
				Machine: s.name,
				Proc:    p.Name(),
				Name:    "credit",
				Bytes:   int(credited) * ps,
				Op:      m.Op,
			})
		}
	}
}

// corruptDelivered applies the failure model's bit-flips to a freshly
// decoded inbound message: each integrity-protected payload page may
// arrive damaged (corruption the link CRC missed). The decoded run
// lists are the message's own, but their images are the sender's — its
// rollback snapshot — so a run is copied before its first flip and the
// damage lands in the copy. Unprotected attachments are left alone —
// the corrupt fault models damage on the checksummed migration stream.
func (s *Server) corruptDelivered(m *ipc.Message, pl *peerLink) {
	ps := s.ps
	for _, a := range m.Mem {
		if a.Kind != ipc.AttachData || len(a.Sums) == 0 {
			continue
		}
		for ri := range a.Runs {
			run := &a.Runs[ri]
			copied := false
			for i := 0; i < run.Count; i++ {
				if !pl.link.CorruptPage(s.k.Now()) {
					continue
				}
				if !copied {
					run.Data = bytes.Clone(run.Data)
					copied = true
				}
				pg := run.Page(i, ps)
				if len(pg) > 0 {
					pg[0] ^= 0x80
					s.stats.CorruptPages++
				}
			}
		}
	}
}

// absorb moves a data attachment into the IOU cache and returns the
// replacement IOU attachment. Page indices in the store are relative to
// the attachment base.
func (s *Server) absorb(p *sim.Proc, a *ipc.MemAttachment) *ipc.MemAttachment {
	ps := s.ps
	seg := s.store.AddSegment(s.k.NextID(), a.Size, ps)
	// The cache aliases the attachment's page images instead of copying
	// them: each stretch of consecutive pages becomes one page list (one
	// for a collapsed attachment, whose pages number densely from zero).
	pages := make([][]byte, 0, a.PageCount())
	first, start := 0, uint64(0) // the current stretch: pages[first:], from page start
	for _, run := range a.Runs {
		if run.Index != start+uint64(len(pages)-first) {
			seg.PutPages(start, pages[first:])
			first, start = len(pages), run.Index
		}
		for i := 0; i < run.Count; i++ {
			pages = append(pages, run.Page(i, ps))
		}
	}
	seg.PutPages(start, pages[first:])
	s.cpu.UseHigh(p, time.Duration(len(pages))*cachePerPageCPU)
	s.stats.CachedPages += uint64(len(pages))
	if s.index != nil {
		// Register absorbed contents so a later migration (or a nearest-
		// holder fault from anywhere) can discover the pages this machine
		// now backs — they are the "surviving from a prior visit" case.
		// The names are the ones the sender's manifest or integrity
		// stamp already computed, when either ran.
		for k, h := range a.PageHashes(ps) {
			if h != vm.ZeroHash {
				s.index.Put(h, pages[k])
			}
		}
		s.cpu.UseHigh(p, time.Duration(len(pages))*vm.HashPerPageCPU)
	}
	return &ipc.MemAttachment{
		Kind:      ipc.AttachIOU,
		VA:        a.VA,
		Size:      a.Size,
		Collapsed: a.Collapsed,
		Resident:  a.Resident,
		SegID:     seg.ID,
		SegOff:    0,
		SegSize:   a.Size,
		Backing:   s.backPort.ID,
	}
}

// deliver hands an inbound message to its local destination, learning
// return routes from the message on the way.
func (s *Server) deliver(p *sim.Proc, m *ipc.Message, from string) {
	s.learnRoute(m.ReplyTo, from)
	for _, a := range m.Mem {
		if a.Kind == ipc.AttachIOU {
			s.learnRoute(a.Backing, from)
		}
	}
	_, local := s.sys.Lookup(m.To)
	if err := s.sys.Send(p, m); err != nil {
		s.stats.DeadLetters++
		return
	}
	if local {
		s.stats.Delivered++
	}
	// Otherwise the send re-entered the router: pure transit, counted
	// by the onward Forwarded.
}

// learnRoute records that port is reachable via peer, unless the port
// is local here.
func (s *Server) learnRoute(port ipc.PortID, peer string) {
	if port == 0 {
		return
	}
	if _, local := s.sys.Lookup(port); local {
		return
	}
	s.routes[port] = peer
}

// backer services read requests against the IOU cache.
func (s *Server) backer(p *sim.Proc) {
	for {
		m := s.sys.Receive(p, s.backPort)
		switch m.Op {
		case imag.OpReadRequest:
			req, ok := m.Body.(*imag.ReadRequest)
			if !ok {
				continue
			}
			seg, live := s.store.Segment(req.SegID)
			var rep *imag.ReadReply
			if live {
				rep = seg.Serve(req)
			}
			if rep == nil {
				// Dead segment or page never cached: tell the faulter
				// its request can never succeed, so it surfaces a typed
				// error instead of retrying forever.
				reason := "segment dead"
				if live {
					reason = "page not held"
				}
				s.cpu.UseHigh(p, serveCPU)
				s.replyErr(p, m, &imag.ReadError{
					SegID:   req.SegID,
					PageIdx: req.PageIdx,
					Reason:  reason,
				})
				continue
			}
			s.cpu.UseHigh(p, serveCPU)
			s.stats.Served++
			s.stats.FaultPages += uint64(rep.PageCount())
			if s.k.Tracing() {
				s.k.Emit(obs.Event{
					Kind:    obs.PageTransfer,
					Machine: s.name,
					Proc:    p.Name(),
					Name:    "fault",
					Bytes:   rep.Bytes(),
					Op:      imag.OpReadReply,
				})
			}
			if req.StreamTo != 0 {
				// The stream port lives wherever the reply port does;
				// routes are otherwise only learned from ReplyTo.
				if peer, ok := s.routes[m.ReplyTo]; ok {
					s.routes[ipc.PortID(req.StreamTo)] = peer
				}
				// Split reply: the demanded page returns alone at
				// demand priority — a one-page reply unstalls the
				// faulter fastest — and the prefetch run follows at
				// background priority, yielding the wire to any demand
				// traffic that arrives meanwhile.
				demand, rest := rep.Split()
				s.reply(p, m, imag.OpReadReply, demand)
				if rest != nil {
					// One page per reply: same wire cost as the batched
					// run, but a demand reply that arrives meanwhile
					// overtakes the stream after at most one page.
					for _, pr := range rest.PerPage() {
						if err := s.sys.Send(p, &ipc.Message{
							Op:           imag.OpReadReply,
							To:           ipc.PortID(req.StreamTo),
							Body:         pr,
							BodyBytes:    pr.Bytes(),
							FaultSupport: true,
							Background:   true,
						}); err != nil {
							s.stats.DeadLetters++
							break
						}
					}
				}
				continue
			}
			s.reply(p, m, imag.OpReadReply, rep)
		case imag.OpHashRead:
			req, ok := m.Body.(*imag.HashRead)
			if !ok {
				continue
			}
			s.cpu.UseHigh(p, serveCPU)
			data, held := s.index.Lookup(req.Hash)
			if !held {
				s.replyErr(p, m, &imag.ReadError{
					SegID:   req.SegID,
					PageIdx: req.Page,
					Reason:  "content not held",
				})
				continue
			}
			s.stats.HashServed++
			s.stats.FaultPages++
			if s.k.Tracing() {
				s.k.Emit(obs.Event{
					Kind:    obs.PageTransfer,
					Machine: s.name,
					Proc:    p.Name(),
					Name:    "fault",
					Bytes:   len(data),
					Op:      imag.OpReadReply,
				})
			}
			// The reply is a normal read reply stamped with the
			// requester's segment and page, so the faulter's install
			// path cannot tell content routing from origin backing. It
			// carries a copy: the index aliases live frames, which
			// their pages may still write.
			s.reply(p, m, imag.OpReadReply, &imag.ReadReply{
				SegID: req.SegID,
				Runs:  []vm.PageRun{{Index: req.Page, Count: 1, Data: bytes.Clone(data)}},
			})
		case imag.OpFlush:
			req, ok := m.Body.(*imag.FlushRequest)
			if !ok {
				continue
			}
			seg, ok := s.store.Segment(req.SegID)
			if !ok {
				continue
			}
			rep := seg.Flush(req.MaxPages)
			s.cpu.UseHigh(p, serveCPU)
			s.reply(p, m, imag.OpFlushReply, rep)
		case imag.OpSegmentDeath:
			if d, ok := m.Body.(*imag.SegmentDeath); ok {
				s.store.Drop(d.SegID)
			}
		}
	}
}

// replyErr sends a negative read reply to the requester.
func (s *Server) replyErr(p *sim.Proc, req *ipc.Message, e *imag.ReadError) {
	if req.ReplyTo == 0 {
		return
	}
	err := s.sys.Send(p, &ipc.Message{
		Op:           imag.OpReadError,
		To:           req.ReplyTo,
		Body:         e,
		BodyBytes:    imag.ReadErrorBytes,
		FaultSupport: true,
	})
	if err != nil {
		s.stats.DeadLetters++
	}
}

// reply sends rep to the requester at demand priority. Streamed
// prefetch pages go out at background priority on their own path.
func (s *Server) reply(p *sim.Proc, req *ipc.Message, op int, rep *imag.ReadReply) {
	if req.ReplyTo == 0 {
		return
	}
	err := s.sys.Send(p, &ipc.Message{
		Op:           op,
		To:           req.ReplyTo,
		Body:         rep,
		BodyBytes:    rep.Bytes(),
		FaultSupport: true,
	})
	if err != nil {
		s.stats.DeadLetters++
	}
}

// Crash simulates failure of this server's backing service (e.g. the
// host going down for everyone who still holds IOUs on it): the backing
// port is withdrawn, so inbound read requests dead-letter and remote
// faulters time out. Used by failure-injection tests and the residual-
// dependency experiments.
func (s *Server) Crash() {
	s.sys.RemovePort(s.backPort)
	// The retained-delivery ledger is kernel memory: it dies with the
	// machine, so a retry against a restarted host starts from zero.
	s.ledger.Clear()
}
