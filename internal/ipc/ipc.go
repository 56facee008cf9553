// Package ipc models the Accent inter-process communication facility:
// ports with simulation-wide unique names, messages that can carry both
// small inline bodies and arbitrarily large memory attachments, and the
// copy-vs-map cost discipline of §2.1 — small messages are physically
// copied twice (in and out of the kernel) while large ones are mapped
// copy-on-write at a fraction of the cost.
package ipc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// PortID names a port uniquely across the whole simulation, so that
// port identity survives migration and proxying between machines.
type PortID uint64

// nextPortID is atomic so that independent simulation kernels running
// on concurrent goroutines (parallel experiment trials) can allocate
// ports without racing. Port IDs are opaque identities; their numeric
// values never influence simulation behavior.
var nextPortID atomic.Uint64

// ErrDeadPort is returned when sending to a deallocated or unknown port.
var ErrDeadPort = errors.New("ipc: send to dead port")

// OpSendFailed is a local-only negative acknowledgement: when a
// reliable transport declares the peer dead after exhausting
// retransmits, it synthesizes this message to the sender's local
// ReplyTo port so the waiter unblocks with a cause instead of timing
// out. It never crosses the wire and has no codec. Body: *SendFailure.
const OpSendFailed = 0x0F01

// SendFailure describes the message a transport gave up on.
type SendFailure struct {
	To     PortID // destination of the failed message
	Op     int    // its operation code
	Reason string
}

// SendFailureBytes is the accounting size of a SendFailure body.
const SendFailureBytes = 32

// Port is a protected kernel message queue. The process holding Receive
// rights drains it; anyone naming the ID can send.
type Port struct {
	ID    PortID
	Name  string
	sys   *System
	queue *sim.Queue[*Message]
	dead  bool
}

// String identifies the port for logs.
func (p *Port) String() string { return fmt.Sprintf("port(%d:%s)", p.ID, p.Name) }

// Pending reports queued, unreceived messages.
func (p *Port) Pending() int { return p.queue.Len() }

// AttachKind distinguishes the ways a message can convey memory.
type AttachKind int

const (
	// AttachData carries physical page images.
	AttachData AttachKind = iota
	// AttachIOU carries a promise: an imaginary-segment descriptor whose
	// pages will be delivered on demand by the backing port (§2.2).
	AttachIOU
)

// MemAttachment is one contiguous range of process memory conveyed by a
// message, either physically (Data) or by promise (IOU).
type MemAttachment struct {
	Kind AttachKind
	VA   vm.Addr // base virtual address the range occupies
	Size uint64  // bytes

	// Collapsed marks a RIMAS collapsed-area attachment, which has no
	// VA of its own — the RIMAS run table maps slices of it. Resident
	// further marks the resident-set half of a split collapsed area.
	// Intermediaries preserve both.
	Collapsed bool
	Resident  bool

	// AttachData fields. Page data travels run-batched: each PageRun is
	// one header plus the bytes of Count consecutive pages (indices are
	// page offsets from the attachment's base address). A collapsed
	// attachment carries one page-size run per page, the page's image by
	// reference: its neighbours' images live in other buffers.
	Runs []vm.PageRun
	Copy bool // per-attachment NoIOU: intermediaries must not replace this data with an IOU

	// CompBytes, when positive, is the modeled post-compression size of
	// the attachment's payload: WireBytes prices the payload at this
	// size instead of DataBytes. Set by the content-addressed store's
	// compression model; zero means uncompressed. Intermediaries
	// preserve it. Kernel copy costs (transferCPU) still see the raw
	// bytes — compression is a wire-format property, not an
	// address-space one.
	CompBytes int

	// Sums, when non-nil, carries an end-to-end per-page checksum for
	// each payload page, in run order (Sums[i] names the i-th page
	// across the attachment's Runs). The receiver verifies them at
	// install time; WireBytes prices them. Intermediaries preserve
	// them. Nil means the attachment is unprotected, which keeps
	// integrity-off runs byte-identical.
	Sums []uint64

	// AttachIOU fields.
	SegID   uint64 // backing segment identity at the backer
	SegOff  uint64 // offset of VA within that segment
	SegSize uint64 // full segment size
	Backing PortID // port owing the data

	// hashes caches the vm.HashPage name of every payload page, in run
	// order, hashed at page size hashPS (see PageHashes). It is a
	// host-side value: no codec encodes it, WireBytes never prices it,
	// and a decoded attachment starts without it.
	hashes []uint64
	hashPS int
}

// DataBytes reports the physical payload carried by the attachment.
func (a *MemAttachment) DataBytes() int {
	return vm.RunDataBytes(a.Runs)
}

// PageCount reports the number of pages the attachment carries.
func (a *MemAttachment) PageCount() int {
	return vm.RunPageCount(a.Runs)
}

// AppendPage appends a single page image as its own one-page run —
// the incremental construction path for builders whose pages are not
// already contiguous in memory (pre-copy snapshots, tests). It drops
// any cached page names.
func (a *MemAttachment) AppendPage(index uint64, data []byte) {
	a.Runs = append(a.Runs, vm.PageRun{Index: index, Count: 1, Data: data})
	a.hashes, a.hashPS = nil, 0
}

// PageHashes returns the vm.HashPage name of every page the attachment
// carries, in run order: entry i names the i-th page across Runs. The
// first call hashes the pages; later calls at the same page size return
// the same slice, which callers must not modify. Every source-side
// consumer (the dedup manifest, the integrity stamp, IOU-cache
// indexing) reads these, so an outgoing page is hashed once. The page
// data must not change once named.
func (a *MemAttachment) PageHashes(pageSize int) []uint64 {
	if hs := a.CachedPageHashes(pageSize); hs != nil {
		return hs
	}
	hs := make([]uint64, 0, a.PageCount())
	for _, r := range a.Runs {
		for j := 0; j < r.Count; j++ {
			h, _ := vm.HashPage(r.Page(j, pageSize), pageSize)
			hs = append(hs, h)
		}
	}
	a.hashes, a.hashPS = hs, pageSize
	return hs
}

// CachedPageHashes returns the names PageHashes computed, or
// SetPageHashes installed, at this page size; nil if there are none. It
// never hashes.
func (a *MemAttachment) CachedPageHashes(pageSize int) []uint64 {
	if a.hashPS != pageSize {
		return nil
	}
	return a.hashes
}

// SetPageHashes installs names the caller already holds for exactly
// the pages of Runs, in run order: how a copy that keeps some of an
// attachment's pages carries their names instead of hashing again.
func (a *MemAttachment) SetPageHashes(hs []uint64, pageSize int) {
	if len(hs) != a.PageCount() {
		panic(fmt.Sprintf("ipc: %d page names for %d pages", len(hs), a.PageCount()))
	}
	a.hashes, a.hashPS = hs, pageSize
}

// descriptor sizes for wire accounting.
const (
	msgHeaderBytes  = 64
	dataDescBytes   = 24
	iouDescBytes    = 48
	pageImageHeader = 8
	pageSumBytes    = 8
)

// Message is a single IPC message.
type Message struct {
	// ID is the flight-recorder correlation id: stamped (lazily, only
	// while tracing) at the message's first Send and preserved across
	// wire re-encodings, so every MsgSend/MsgRecv event of one logical
	// message can be matched into a causal edge. Zero when untraced.
	// It is observability metadata, never protocol state.
	ID      uint64
	Op      int
	To      PortID
	ReplyTo PortID
	Body    any
	// BodyBytes is the encoded size of Body for costing; callers set it
	// because Body is an arbitrary Go value.
	BodyBytes int
	Mem       []*MemAttachment

	// NoIOUs, when set, tells intermediaries (NetMsgServers) that every
	// data attachment must be physically transmitted (§2.4).
	NoIOUs bool

	// FaultSupport marks traffic generated in support of imaginary
	// fault activity, for the Figure 4-5 traffic split.
	FaultSupport bool

	// Background marks opportunistic traffic (streamed prefetch) that
	// must yield the wire to demand traffic: a NetMsgServer drains its
	// foreground backlog before forwarding any background message. A
	// local scheduling hint, not part of the encoded frame — each hop
	// that needs it sets it from the request body.
	Background bool
}

// WireBytes reports the message's encoded size: header, body, and
// attachment descriptors plus physical payloads.
func (m *Message) WireBytes() int {
	n := msgHeaderBytes + m.BodyBytes
	for _, a := range m.Mem {
		switch a.Kind {
		case AttachData:
			// Accounting stays per-page even though transfer is
			// run-batched: the wire estimate charges one page header per
			// page, as the calibrated model always has. A modeled
			// compressed size, when set, replaces the raw payload (the
			// headers still ship uncompressed).
			payload := a.DataBytes()
			if a.CompBytes > 0 {
				payload = a.CompBytes
			}
			n += dataDescBytes + a.PageCount()*pageImageHeader + payload
			n += len(a.Sums) * pageSumBytes
		case AttachIOU:
			n += iouDescBytes
		}
	}
	return n
}

// PageSpans walks the layout WireBytes prices and calls fn with the
// byte span [lo, hi) of each payload page, its image header plus its
// image, in order. It returns the layout's end offset, which is
// WireBytes. The pages of a compressed attachment have no spans of
// their own and are skipped.
func (m *Message) PageSpans(pageSize int, fn func(lo, hi int, page []byte)) int {
	off := msgHeaderBytes + m.BodyBytes
	for _, a := range m.Mem {
		switch a.Kind {
		case AttachData:
			off += dataDescBytes + len(a.Sums)*pageSumBytes
			if a.CompBytes > 0 {
				off += a.PageCount()*pageImageHeader + a.CompBytes
				continue
			}
			for _, run := range a.Runs {
				for i := 0; i < run.Count; i++ {
					pg := run.Page(i, pageSize)
					lo := off
					off += pageImageHeader + len(pg)
					fn(lo, off, pg)
				}
			}
		case AttachIOU:
			off += iouDescBytes
		}
	}
	return off
}

// The kernel's message-handling costs, calibrated for the Perq-era
// testbed (DESIGN.md §3).
const (
	// perMsgCPU is the fixed kernel cost of queueing or dequeueing one
	// message.
	perMsgCPU = 2 * time.Millisecond
	// copyPerByte is the cost of physically copying payload (≈0.7 MB/s
	// Perq memcpy).
	copyPerByte = 1500 * time.Nanosecond
	// mapPerPage is the cost of map-in/map-out per page for large
	// messages transferred by COW mapping.
	mapPerPage = 20 * time.Microsecond
)

// Config sets the IPC copy-or-map policy. The zero value selects the
// calibrated default.
type Config struct {
	// CopyThreshold: messages at or below this many payload bytes are
	// physically copied; larger ones are memory-mapped copy-on-write.
	CopyThreshold int
}

func (c Config) withDefaults() Config {
	if c.CopyThreshold == 0 {
		c.CopyThreshold = 4096
	}
	return c
}

// Router is the hook a NetMsgServer installs to claim messages whose
// destination port is not local. It returns true if it accepted the
// message for forwarding.
type Router func(m *Message) bool

// System is one machine's IPC facility.
type System struct {
	k        *sim.Kernel
	cpu      *sim.Resource
	cfg      Config
	pageSize int
	name     string
	ports    map[PortID]*Port
	router   Router

	sends    uint64
	receives uint64
	copies   uint64 // messages moved by physical copy
	maps     uint64 // messages moved by COW mapping
}

// NewSystem returns the IPC system for one machine. cpu is the
// machine's CPU: all IPC handling work contends for it. pageSize is the
// machine's page size, the unit of mapped transfers.
func NewSystem(k *sim.Kernel, name string, cpu *sim.Resource, pageSize int, cfg Config) *System {
	return &System{
		k:        k,
		cpu:      cpu,
		cfg:      cfg.withDefaults(),
		pageSize: pageSize,
		name:     name,
		ports:    make(map[PortID]*Port),
	}
}

// PageSize reports the machine's page size.
func (s *System) PageSize() int { return s.pageSize }

// AllocPort creates a new port owned by this machine.
func (s *System) AllocPort(name string) *Port {
	p := &Port{ID: PortID(nextPortID.Add(1)), Name: name, sys: s, queue: sim.NewQueue[*Message](s.k)}
	s.ports[p.ID] = p
	return p
}

// AdoptPort installs an existing port identity on this machine (port
// rights arriving with a migrated process). The queue starts empty; any
// in-flight messages are the network layer's problem, as in real life.
func (s *System) AdoptPort(id PortID, name string) *Port {
	p := &Port{ID: id, Name: name, sys: s, queue: sim.NewQueue[*Message](s.k)}
	s.ports[id] = p
	return p
}

// RemovePort deallocates the port; future sends fail with ErrDeadPort.
func (s *System) RemovePort(p *Port) {
	p.dead = true
	delete(s.ports, p.ID)
}

// Drain removes and returns all buffered, undelivered messages — used
// when a port right migrates so its pending mail travels with it.
func (p *Port) Drain() []*Message {
	var out []*Message
	for {
		m, ok := p.queue.TryPop()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

// Enqueue re-queues a message directly (mail re-delivered on the far
// side of a migration). No cost is charged: the copy-in was paid at the
// original Send.
func (p *Port) Enqueue(m *Message) {
	p.queue.Push(m)
}

// Lookup finds a local port by ID.
func (s *System) Lookup(id PortID) (*Port, bool) {
	p, ok := s.ports[id]
	return p, ok
}

// transferCPU is the copy-or-map cost for moving a message across one
// address-space boundary (§2.1's double-copy done lazily).
func (s *System) transferCPU(m *Message) (time.Duration, bool) {
	payload := m.BodyBytes
	for _, a := range m.Mem {
		if a.Kind == AttachData {
			payload += a.DataBytes()
		}
	}
	if payload <= s.cfg.CopyThreshold {
		return time.Duration(payload) * copyPerByte, true
	}
	pages := (payload + s.pageSize - 1) / s.pageSize
	return time.Duration(pages) * mapPerPage, false
}

// SetRouter installs the network-forwarding hook consulted when a
// destination port is not local (the NetMsgServer's role), and returns
// the hook it replaces, so a caller may chain to it.
func (s *System) SetRouter(r Router) (prev Router) {
	prev, s.router = s.router, r
	return prev
}

// emitMsg records one message crossing the user/kernel boundary; cost
// is the handling CPU just charged, ending at the current instant.
func (s *System) emitMsg(kind obs.Kind, p *sim.Proc, m *Message, cost time.Duration) {
	if !s.k.Tracing() {
		return
	}
	if m.ID == 0 {
		m.ID = s.k.NextTraceID()
	}
	s.k.Emit(obs.Event{
		Kind:    kind,
		Machine: s.name,
		Proc:    p.Name(),
		Op:      m.Op,
		Bytes:   m.WireBytes(),
		Dur:     cost,
		MsgID:   m.ID,
	})
}

// Send queues m on its destination port, charging the kernel's copy-in
// cost against the machine CPU. A destination not present on this
// machine is offered to the router (network transparency); with no
// router or no route the send fails with ErrDeadPort.
func (s *System) Send(p *sim.Proc, m *Message) error {
	xfer, copied := s.transferCPU(m)
	s.cpu.UseHigh(p, perMsgCPU+xfer)
	s.emitMsg(obs.MsgSend, p, m, perMsgCPU+xfer)
	dst, ok := s.ports[m.To]
	if !ok || dst.dead {
		if s.router != nil && s.router(m) {
			if copied {
				s.copies++
			} else {
				s.maps++
			}
			s.sends++
			return nil
		}
		return fmt.Errorf("%w: id %d on %s", ErrDeadPort, m.To, s.name)
	}
	if copied {
		s.copies++
	} else {
		s.maps++
	}
	s.sends++
	dst.queue.Push(m)
	return nil
}

// Receive blocks p until a message arrives on port, charging the
// copy-out (or map-in) cost.
func (s *System) Receive(p *sim.Proc, port *Port) *Message {
	m := port.queue.Pop(p)
	xfer, _ := s.transferCPU(m)
	s.cpu.UseHigh(p, perMsgCPU+xfer)
	s.emitMsg(obs.MsgRecv, p, m, perMsgCPU+xfer)
	s.receives++
	return m
}

// ReceiveTimeout is Receive with a virtual-time deadline; ok is false
// on timeout. Used by retry logic under failure injection.
func (s *System) ReceiveTimeout(p *sim.Proc, port *Port, d time.Duration) (*Message, bool) {
	m, ok := port.queue.PopTimeout(p, d)
	if !ok {
		return nil, false
	}
	xfer, _ := s.transferCPU(m)
	s.cpu.UseHigh(p, perMsgCPU+xfer)
	s.emitMsg(obs.MsgRecv, p, m, perMsgCPU+xfer)
	s.receives++
	return m, true
}

// Call performs an RPC: allocates a one-shot reply port, sends m with
// ReplyTo set, and waits for the reply.
func (s *System) Call(p *sim.Proc, m *Message) (*Message, error) {
	reply := s.AllocPort("reply")
	defer s.RemovePort(reply)
	m.ReplyTo = reply.ID
	if err := s.Send(p, m); err != nil {
		return nil, err
	}
	return s.Receive(p, reply), nil
}

// Stats reports send/receive/copy/map counts (copy vs map feeds the
// copy-threshold ablation).
func (s *System) Stats() (sends, receives, copies, maps uint64) {
	return s.sends, s.receives, s.copies, s.maps
}
