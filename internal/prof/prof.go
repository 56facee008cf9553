// Package prof is the causal critical-path profiler: it consumes a
// flight-recorder event stream (package obs) and reconstructs one
// migration as a span DAG — message sends happen-before their receives
// (matched by MsgID), fault parks happen-before their resolving
// replies, phase begins happen-before phase ends — and from the DAG
// answers the question the paper's whole argument turns on: where did
// the migration's time go?
//
// Three products come out of a Build:
//
//   - the critical path with per-resource blame: the migration phases
//     are strictly sequential (excise → xfer.core → xfer.rimas →
//     insert), so the critical path is the frozen interval itself, and
//     every instant of it is attributed to exactly one resource class
//     (wire, destination CPU, source CPU, disk, queue wait, other) by
//     priority among the spans active at that instant. The attribution
//     is an exact partition, so blame fractions sum to 1.
//   - the downtime span: excise-freeze to the first post-insert
//     instruction at the destination (the StateChange "Resumed" event),
//     the metric every pre-copy/cluster/dedup follow-up is judged on.
//   - per-resource utilization timelines: time-bucketed busy and
//     queue-depth gauges for each CPU, link, and disk arm, accumulated
//     into a metrics.Utilization.
//
// The builder tolerates back-dated events (sim.Kernel.EmitAt stamps an
// earlier T under a monotonic Seq): events are ordered by (T, Seq)
// before reconstruction, and a phase pair whose boundaries cross —
// an end before its begin — is reported as an error rather than a
// negative-duration span.
package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"accentmig/internal/metrics"
	"accentmig/internal/obs"
)

// Class is a critical-path blame class: the resource an instant of the
// migration interval is attributed to.
type Class uint8

const (
	// SrcCPU is source-machine CPU occupancy (packaging, IPC handling).
	SrcCPU Class = iota
	// Wire is network-link occupancy including propagation.
	Wire
	// DstCPU is destination-machine CPU occupancy (rights processing,
	// insertion).
	DstCPU
	// Disk is paging-disk arm occupancy on either machine.
	Disk
	// Queue is time blocked on a contended resource with no covering
	// hold span of its own.
	Queue
	// Other is everything unattributed: protocol latency, timer waits,
	// scheduling gaps.
	Other

	// NumClasses counts the blame classes.
	NumClasses = int(Other) + 1
)

// String names the class for tables and logs.
func (c Class) String() string {
	switch c {
	case SrcCPU:
		return "src-cpu"
	case Wire:
		return "wire"
	case DstCPU:
		return "dst-cpu"
	case Disk:
		return "disk"
	case Queue:
		return "queue"
	case Other:
		return "other"
	default:
		return "class(?)"
	}
}

// Classes lists every blame class in reporting order.
func Classes() []Class {
	return []Class{SrcCPU, Wire, DstCPU, Disk, Queue, Other}
}

// blamePriority orders attribution when several spans cover the same
// instant: the wire is the scarcest pipeline stage, then the CPUs doing
// protocol work, then the disk, and a bare queue wait only if nothing
// is actually held.
var blamePriority = [...]Class{Wire, DstCPU, SrcCPU, Disk, Queue}

// MigrationPhases is the canonical source-manager phase sequence.
var MigrationPhases = [...]string{"excise", "xfer.core", "xfer.rimas", "insert"}

// Span is one resource-occupancy interval reconstructed from the
// stream: a CPU or disk hold, a frame crossing the wire, or a queued
// wait.
type Span struct {
	Class    Class
	Resource string
	Proc     string
	Start    time.Duration
	End      time.Duration
	Seq      uint64
}

// Phase is one closed migration phase span.
type Phase struct {
	Name     string
	Start    time.Duration
	End      time.Duration
	BeginSeq uint64
	EndSeq   uint64
}

// Elapsed reports the phase length.
func (p Phase) Elapsed() time.Duration { return p.End - p.Start }

// EdgeKind distinguishes the DAG's causal edge types.
type EdgeKind uint8

const (
	// EdgeMsg joins a message's first send to each of its receives.
	EdgeMsg EdgeKind = iota
	// EdgeFault joins a fault park to its resolving completion.
	EdgeFault
	// EdgePhase joins a phase begin to its end.
	EdgePhase
)

// Edge is one happens-before edge between two events, named by their
// emission sequence numbers.
type Edge struct {
	Kind    EdgeKind
	FromSeq uint64
	ToSeq   uint64
	From    time.Duration
	To      time.Duration
	Label   string
}

// Breakdown is a per-class time partition of some interval.
type Breakdown [NumClasses]time.Duration

// Total sums the partition (equal to the interval length for a
// partition produced by Build).
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Fraction reports class c's share of the partition, in [0, 1].
func (b *Breakdown) Fraction(c Class) float64 {
	t := b.Total()
	if t <= 0 {
		return 0
	}
	return float64(b[c]) / float64(t)
}

// Options parameterizes a Build. The zero value matches the standard
// two-machine testbed.
type Options struct {
	// Src and Dst name the source and destination machines (defaults
	// "src" and "dst").
	Src, Dst string
	// Bucket is the utilization-timeline bucket width (default 1s).
	Bucket time.Duration
}

func (o Options) withDefaults() Options {
	if o.Src == "" {
		o.Src = "src"
	}
	if o.Dst == "" {
		o.Dst = "dst"
	}
	if o.Bucket <= 0 {
		o.Bucket = time.Second
	}
	return o
}

// Profile is the reconstruction of one migration.
type Profile struct {
	Src, Dst string

	// Phases holds the closed canonical phases found, in canonical
	// order (missing phases are absent).
	Phases []Phase

	// Freeze is the excise start; InsertEnd the insertion completion;
	// Resume the first post-insert instruction at the destination.
	// Resumed reports whether a resume was observed (a held destination
	// never resumes; Resume then equals InsertEnd and Downtime is the
	// frozen-so-far lower bound).
	Freeze    time.Duration
	InsertEnd time.Duration
	Resume    time.Duration
	Resumed   bool

	// Downtime is Resume - Freeze: the span during which the migrating
	// process executed no instruction anywhere.
	Downtime time.Duration

	// Spans are the resource-occupancy intervals of the whole run.
	Spans []Span
	// Edges are the causal edges of the DAG.
	Edges []Edge
	// UnmatchedFaults counts fault parks with no resolving completion;
	// UnmatchedMsgs counts message ids sent but never received (mail
	// still queued when the run ended).
	UnmatchedFaults int
	UnmatchedMsgs   int

	// Blame partitions [Freeze, InsertEnd] by resource class; the
	// fractions sum to 1 by construction.
	Blame Breakdown
	// PhaseBlame partitions each canonical phase's own interval.
	PhaseBlame map[string]*Breakdown

	// Util is the per-resource busy/queue-depth timeline of the run.
	Util *metrics.Utilization
}

// Total reports the migration interval length (the critical path: the
// phases are strictly sequential).
func (pf *Profile) Total() time.Duration { return pf.InsertEnd - pf.Freeze }

// Connected reports whether the reconstructed critical path is whole:
// all four canonical phases were found, closed, non-negative, in
// order, spanning a positive interval, and every fault park found its
// resolving completion.
func (pf *Profile) Connected() bool {
	if len(pf.Phases) != len(MigrationPhases) {
		return false
	}
	for i, name := range MigrationPhases {
		ph := pf.Phases[i]
		if ph.Name != name || ph.End < ph.Start {
			return false
		}
		if i > 0 && ph.Start < pf.Phases[i-1].Start {
			return false
		}
	}
	return pf.InsertEnd > pf.Freeze && pf.UnmatchedFaults == 0
}

// faultKey identifies one outstanding fault park.
type faultKey struct {
	machine string
	proc    string
	name    string
	addr    uint64
}

// msgSite is the first-send record of one message id.
type msgSite struct {
	seq  uint64
	t    time.Duration
	rcvd bool
}

// Build reconstructs a migration from the event stream. The events may
// arrive in emission order with back-dated timestamps (EmitAt); they
// are re-ordered by (T, Seq) first. An end-before-begin phase pair —
// which would be a negative-duration span — is an error.
func Build(events []obs.Event, opt Options) (*Profile, error) {
	opt = opt.withDefaults()
	evs := make([]obs.Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].T != evs[j].T {
			return evs[i].T < evs[j].T
		}
		return evs[i].Seq < evs[j].Seq
	})

	pf := &Profile{
		Src:        opt.Src,
		Dst:        opt.Dst,
		PhaseBlame: make(map[string]*Breakdown, len(MigrationPhases)),
		Util:       metrics.NewUtilization(opt.Bucket),
	}

	phaseOpen := make(map[string]obs.Event) // machine|name -> begin event
	phases := make(map[string]Phase)        // name -> last closed span
	faultOpen := make(map[faultKey]obs.Event)
	msgs := make(map[uint64]*msgSite)
	var resumes []time.Duration

	for _, ev := range evs {
		switch ev.Kind {
		case obs.PhaseBegin:
			phaseOpen[ev.Machine+"|"+ev.Name] = ev
		case obs.PhaseEnd:
			begin, ok := phaseOpen[ev.Machine+"|"+ev.Name]
			if !ok {
				return nil, fmt.Errorf("prof: PhaseEnd %q on %s with no open begin", ev.Name, ev.Machine)
			}
			delete(phaseOpen, ev.Machine+"|"+ev.Name)
			if ev.T < begin.T {
				return nil, fmt.Errorf("prof: negative-duration phase %q on %s: begins %v, ends %v",
					ev.Name, ev.Machine, begin.T, ev.T)
			}
			phases[ev.Name] = Phase{
				Name: ev.Name, Start: begin.T, End: ev.T,
				BeginSeq: begin.Seq, EndSeq: ev.Seq,
			}
			pf.Edges = append(pf.Edges, Edge{
				Kind: EdgePhase, FromSeq: begin.Seq, ToSeq: ev.Seq,
				From: begin.T, To: ev.T, Label: ev.Name,
			})
		case obs.FaultStart:
			faultOpen[faultKey{ev.Machine, ev.Proc, ev.Name, ev.Addr}] = ev
		case obs.FaultResolved:
			key := faultKey{ev.Machine, ev.Proc, ev.Name, ev.Addr}
			if start, ok := faultOpen[key]; ok {
				delete(faultOpen, key)
				pf.Edges = append(pf.Edges, Edge{
					Kind: EdgeFault, FromSeq: start.Seq, ToSeq: ev.Seq,
					From: start.T, To: ev.T, Label: ev.Name,
				})
			}
		case obs.MsgSend:
			if ev.MsgID != 0 {
				if _, seen := msgs[ev.MsgID]; !seen {
					msgs[ev.MsgID] = &msgSite{seq: ev.Seq, t: ev.T}
				}
			}
		case obs.MsgRecv:
			if ev.MsgID != 0 {
				if site, ok := msgs[ev.MsgID]; ok {
					site.rcvd = true
					pf.Edges = append(pf.Edges, Edge{
						Kind: EdgeMsg, FromSeq: site.seq, ToSeq: ev.Seq,
						From: site.t, To: ev.T, Label: fmt.Sprintf("msg %d", ev.MsgID),
					})
				}
			}
		case obs.StateChange:
			if ev.Name == "Resumed" && ev.Machine == opt.Dst {
				resumes = append(resumes, ev.T)
			}
		case obs.ResourceHold:
			if cl, ok := classifyHold(ev, opt); ok && ev.Dur > 0 {
				pf.Spans = append(pf.Spans, Span{
					Class: cl, Resource: ev.Name, Proc: ev.Proc,
					Start: ev.T - ev.Dur, End: ev.T, Seq: ev.Seq,
				})
				pf.Util.AddBusy(ev.Name, ev.T-ev.Dur, ev.T)
			}
		case obs.LinkXmit:
			if ev.Dur > 0 {
				pf.Spans = append(pf.Spans, Span{
					Class: Wire, Resource: ev.Machine, Proc: ev.Proc,
					Start: ev.T - ev.Dur, End: ev.T, Seq: ev.Seq,
				})
				pf.Util.AddBusy(ev.Machine, ev.T-ev.Dur, ev.T)
			}
		case obs.QueueWait:
			if ev.Dur > 0 {
				pf.Spans = append(pf.Spans, Span{
					Class: Queue, Resource: ev.Name, Proc: ev.Proc,
					Start: ev.T - ev.Dur, End: ev.T, Seq: ev.Seq,
				})
				pf.Util.AddWait(ev.Name, ev.T-ev.Dur, ev.T)
			}
		}
	}

	pf.UnmatchedFaults = len(faultOpen)
	for _, site := range msgs {
		if !site.rcvd {
			pf.UnmatchedMsgs++
		}
	}

	// Canonical phases in canonical order; the migration window.
	for _, name := range MigrationPhases {
		if ph, ok := phases[name]; ok {
			pf.Phases = append(pf.Phases, ph)
		}
	}
	if len(pf.Phases) > 0 {
		if ph, ok := phases["excise"]; ok {
			pf.Freeze = ph.Start
		} else {
			pf.Freeze = pf.Phases[0].Start
		}
		if ph, ok := phases["insert"]; ok {
			pf.InsertEnd = ph.End
		} else {
			pf.InsertEnd = pf.Phases[len(pf.Phases)-1].End
		}
	}

	// Downtime: freeze to the first destination resume at or after the
	// freeze. A run that never resumed (held destination) reports the
	// frozen-so-far interval, which is the downtime's lower bound.
	pf.Resume = pf.InsertEnd
	for _, t := range resumes {
		if t >= pf.Freeze {
			pf.Resume = t
			pf.Resumed = true
			break
		}
	}
	if pf.Resume > pf.Freeze {
		pf.Downtime = pf.Resume - pf.Freeze
	}

	// Blame: exact partitions of the migration window and each phase.
	pf.Blame = partition(pf.Spans, pf.Freeze, pf.InsertEnd)
	for _, ph := range pf.Phases {
		b := partition(pf.Spans, ph.Start, ph.End)
		pf.PhaseBlame[ph.Name] = &b
	}
	return pf, nil
}

// classifyHold maps a ResourceHold event to a blame class by resource
// name: "<machine>.cpu" to the machine's CPU class, anything with
// ".disk" to Disk. Unknown resources are unattributed (covered by
// Other in the partition).
func classifyHold(ev obs.Event, opt Options) (Class, bool) {
	switch {
	case ev.Name == opt.Src+".cpu":
		return SrcCPU, true
	case ev.Name == opt.Dst+".cpu":
		return DstCPU, true
	case strings.Contains(ev.Name, ".disk"):
		return Disk, true
	default:
		return Other, false
	}
}

// partition attributes every instant of [lo, hi] to exactly one class:
// the highest-priority class with an active span, or Other where no
// span covers the instant. The result sums to hi-lo exactly.
func partition(spans []Span, lo, hi time.Duration) Breakdown {
	var b Breakdown
	if hi <= lo {
		return b
	}
	type boundary struct {
		t     time.Duration
		class Class
		delta int
	}
	var bs []boundary
	for _, s := range spans {
		start, end := s.Start, s.End
		if start < lo {
			start = lo
		}
		if end > hi {
			end = hi
		}
		if end <= start {
			continue
		}
		bs = append(bs, boundary{start, s.Class, +1}, boundary{end, s.Class, -1})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].t < bs[j].t })

	active := [NumClasses]int{}
	cur := lo
	i := 0
	for cur < hi {
		// Apply all boundaries at cur, then attribute up to the next
		// boundary (or the window end).
		for i < len(bs) && bs[i].t == cur {
			active[bs[i].class] += bs[i].delta
			i++
		}
		next := hi
		if i < len(bs) && bs[i].t < hi {
			next = bs[i].t
		}
		cl := Other
		for _, c := range blamePriority {
			if active[c] > 0 {
				cl = c
				break
			}
		}
		b[cl] += next - cur
		cur = next
	}
	return b
}

// Format renders the profile as the -profile report: the critical
// path's phase chain, the blame partition with fractions, and the
// downtime span.
func (pf *Profile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%.2fs, %s):", pf.Total().Seconds(), connWord(pf.Connected()))
	for _, ph := range pf.Phases {
		fmt.Fprintf(&b, " %s %.2fs", ph.Name, ph.Elapsed().Seconds())
	}
	fmt.Fprintf(&b, "\nblame:")
	for _, c := range Classes() {
		fmt.Fprintf(&b, " %s %.2fs (%.1f%%)", c, pf.Blame[c].Seconds(), 100*pf.Blame.Fraction(c))
	}
	resumed := "first instruction at destination"
	if !pf.Resumed {
		resumed = "never resumed; lower bound"
	}
	fmt.Fprintf(&b, "\ndowntime: %.2fs (freeze %.2fs -> resume %.2fs, %s)\n",
		pf.Downtime.Seconds(), pf.Freeze.Seconds(), pf.Resume.Seconds(), resumed)
	return b.String()
}

func connWord(ok bool) string {
	if ok {
		return "connected"
	}
	return "DISCONNECTED"
}
