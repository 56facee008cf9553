// Package obs is the simulation-wide flight recorder: a lightweight
// event-sink interface receiving typed, virtual-timestamped events from
// every layer of the stack — IPC sends and receives, page faults and
// their resolutions, page transfers, resource-queue waits, migration
// phases, and process state transitions.
//
// The package is deliberately dependency-free (standard library only)
// so that even the simulation kernel can import it. Emission points
// throughout the tree are guarded by sim.Kernel.Tracing(), so a
// simulation with no sink installed pays nothing beyond a nil check on
// its hot paths.
//
// Two exporters turn an event stream into files: JSONLSink writes one
// JSON object per line (grep/jq-friendly), and ChromeSink writes the
// Chrome trace-event format, loadable in Perfetto (ui.perfetto.dev)
// with machines as processes and simulated processes as threads, all
// keyed to virtual time.
package obs

import (
	"strconv"
	"time"
)

// Kind is the type of one event.
type Kind uint8

const (
	// MsgSend is one IPC message entering the kernel (copy-in charged).
	MsgSend Kind = iota
	// MsgRecv is one IPC message leaving a port queue (copy-out charged).
	MsgRecv
	// FaultStart marks entry to a page-fault service path.
	FaultStart
	// FaultResolved marks fault completion; Dur is the resolution
	// latency and Name the fault kind (fillzero, disk, imag).
	FaultResolved
	// PageTransfer is page data crossing a layer boundary: shipped with
	// a message (Name "data"), served by a backer (Name "fault"), or
	// installed during process insertion (Name "install").
	PageTransfer
	// QueueWait is time spent blocked on a contended resource; Name is
	// the resource, Dur the wait.
	QueueWait
	// PhaseBegin opens a named migration phase (excise, xfer.core,
	// xfer.rimas, insert).
	PhaseBegin
	// PhaseEnd closes a named migration phase.
	PhaseEnd
	// StateChange is a process or migration state transition; Name is
	// the new state.
	StateChange
	// LinkXmit is one frame crossing a network link; Dur includes
	// medium contention and propagation.
	LinkXmit
	// NetRetransmit is a reliable-transport retransmission after a lost
	// frame; Dur is the backoff waited before resending.
	NetRetransmit
	// ResourceHold is one completed hold of a contended resource (CPU
	// slice, disk arm): Name is the resource, Dur the held time, and the
	// span covers [T-Dur, T]. Together with QueueWait and LinkXmit these
	// spans are the raw material of per-resource utilization timelines
	// and critical-path blame (package prof).
	ResourceHold

	numKinds
)

// String names the kind for logs and exporters.
func (k Kind) String() string {
	switch k {
	case MsgSend:
		return "MsgSend"
	case MsgRecv:
		return "MsgRecv"
	case FaultStart:
		return "FaultStart"
	case FaultResolved:
		return "FaultResolved"
	case PageTransfer:
		return "PageTransfer"
	case QueueWait:
		return "QueueWait"
	case PhaseBegin:
		return "PhaseBegin"
	case PhaseEnd:
		return "PhaseEnd"
	case StateChange:
		return "StateChange"
	case LinkXmit:
		return "LinkXmit"
	case NetRetransmit:
		return "NetRetransmit"
	case ResourceHold:
		return "ResourceHold"
	default:
		return "Kind(?)"
	}
}

// Kinds lists every event kind, for exhaustive iteration in tests and
// reports.
func Kinds() []Kind {
	out := make([]Kind, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one flight-recorder record. Only T, Seq and Kind are always
// meaningful; the remaining fields are populated as the kind requires.
type Event struct {
	// T is the virtual time of the event (for completed spans, the end).
	T time.Duration
	// Seq is a per-kernel emission sequence number; events with equal T
	// are causally ordered by Seq.
	Seq uint64
	// Kind is the event type.
	Kind Kind
	// Machine is the emitting machine (or link) name; empty for
	// machine-less kernel events.
	Machine string
	// Proc is the simulated process involved, when known.
	Proc string
	// Name carries the kind-specific label: phase name, fault kind,
	// resource name, new state.
	Name string
	// Addr is the faulting page address, for fault events.
	Addr uint64
	// Bytes is the payload size for message and transfer events.
	Bytes int
	// Dur is the span length (handling CPU, resolution latency, queue
	// wait); events with Dur > 0 cover [T-Dur, T].
	Dur time.Duration
	// Op is the IPC operation code for message events.
	Op int
	// MsgID is the causal correlation id for message events: every
	// MsgSend and MsgRecv of one logical message carries the same
	// nonzero id, however many hops and re-encodings it crosses. The
	// profiler's DAG builder turns equal ids into happens-before edges.
	MsgID uint64
}

// Sink receives events. Emit is called from the single simulation
// goroutine that is live at any instant, so implementations need no
// locking: a sink is never shared by kernels driven concurrently.
type Sink interface {
	Emit(Event)
}

// MemorySink buffers every event in order, for tests and in-process
// analysis (timelines, critical paths).
type MemorySink struct {
	events []Event
}

// NewMemorySink returns an empty memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit appends the event.
func (m *MemorySink) Emit(ev Event) { m.events = append(m.events, ev) }

// Events returns the buffered events in emission order.
func (m *MemorySink) Events() []Event { return m.events }

// Len reports the number of buffered events.
func (m *MemorySink) Len() int { return len(m.events) }

// CountKinds tallies buffered events by kind.
func (m *MemorySink) CountKinds() map[Kind]int {
	out := make(map[Kind]int)
	for _, ev := range m.events {
		out[ev.Kind]++
	}
	return out
}

// prefixSink namespaces Machine names, so several trials sharing one
// sink (e.g. one trace file for a whole experiment sweep) stay
// distinguishable — in the Chrome exporter each prefixed machine
// becomes its own process group.
type prefixSink struct {
	next   Sink
	prefix string
	trials int // how many trials ForTrial has numbered under prefix
}

// WithPrefix returns a sink that forwards to next with prefix prepended
// to every event's Machine field.
func WithPrefix(next Sink, prefix string) Sink {
	return &prefixSink{next: next, prefix: prefix}
}

func (s *prefixSink) Emit(ev Event) {
	ev.Machine = s.prefix + ev.Machine
	s.next.Emit(ev)
}

// ForTrial returns the sink one trial's simulation records to. Under a
// WithPrefix sink the n-th trial gets the prefix "<prefix><n>/", so no
// two trials of one trace file share a machine's track; any other sink
// (nil included) is returned as it is. The names are the same on every
// run when trials are numbered in a fixed order.
func ForTrial(s Sink) Sink {
	p, ok := s.(*prefixSink)
	if !ok {
		return s
	}
	p.trials++
	return WithPrefix(p.next, p.prefix+strconv.Itoa(p.trials)+"/")
}
