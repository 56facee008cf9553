package netlink

import (
	"fmt"
	"time"

	"accentmig/internal/sim"
)

// Iface is one machine's network interface in a many-machine cluster:
// an outbound wire resource on the machine's own event lane plus
// lane-aware delivery to any peer. It is the NIC abstraction behind the
// sharded kernel (sim.Cluster): the same Iface code runs the machine on
// a single shared kernel (-shards 1) and on its own lane, producing
// identical virtual timings in both modes.
//
// Two properties make cross-lane execution byte-identical to the
// sequential kernel:
//
//   - Lookahead. Delivery is never sooner than the configured latency,
//     so a cluster whose lookahead is the minimum Iface latency can run
//     every lane a full latency ahead without missing an interaction.
//
//   - Phase skew. Each delivery lands at latency plus a per-sender
//     sub-microsecond skew ((lane+1) nanoseconds). Machine-local work in
//     the scenarios sits on a whole-microsecond lattice, and receivers
//     re-align to it after each receive, so a delivery can never share a
//     virtual nanosecond with a local event, two senders can never
//     collide at a receiver, and two frames from one sender are spaced
//     by their wire occupancy. With every same-state tie removed, heap
//     time-ordering alone fixes the schedule, and the single-kernel and
//     per-lane interleavings become the same schedule.
//
// Unlike Link.Transmit (a stop-and-wait medium where the sender also
// waits out the propagation), Iface.Send releases the sender after the
// wire occupancy: propagation overlaps with the sender's next frame, so
// back-to-back frames pipeline. Iface models a reliable switched
// fabric; failure injection stays on Link.
type Iface struct {
	k    *sim.Kernel
	cl   *sim.Cluster // nil when the whole cluster shares one kernel
	lane int
	wire *sim.Resource
	rate int
	lat  time.Duration
	skew time.Duration

	frames    uint64
	bytesMove uint64
}

// NewIface builds the interface for the machine on lane. cl may be nil
// when every machine shares one kernel (the -shards 1 path); k is then
// that shared kernel. lane is the machine's index in either mode — it
// seeds the phase skew, so both modes compute identical arrival times.
// With a cluster, k is ignored and the lane's own kernel is used, and
// the latency must be at least the cluster's lookahead.
func NewIface(cl *sim.Cluster, k *sim.Kernel, lane int, name string, cfg Config) *Iface {
	cfg = cfg.withDefaults()
	if cl != nil {
		k = cl.Lane(lane)
		if cfg.Latency < cl.Lookahead() {
			panic(fmt.Sprintf("netlink: iface %s latency %v below cluster lookahead %v", name, cfg.Latency, cl.Lookahead()))
		}
	}
	return &Iface{
		k:    k,
		cl:   cl,
		lane: lane,
		wire: sim.NewResource(k, name+".wire", 1),
		rate: cfg.BytesPerSecond,
		lat:  cfg.Latency,
		skew: time.Duration(lane + 1),
	}
}

// Kernel returns the lane kernel the interface schedules on.
func (f *Iface) Kernel() *sim.Kernel { return f.k }

// TxTime reports the wire occupancy for an n-byte frame.
func (f *Iface) TxTime(n int) time.Duration {
	return time.Duration(n) * time.Second / time.Duration(f.rate)
}

// Send transmits an n-byte frame from proc p to the machine behind dst:
// it occupies the sender's wire for the frame time, then delivers fn on
// the destination's lane at the sender's latency plus phase skew. p
// must run on f's lane. Frames from one sender arrive in send order
// (they serialize on the wire and share the skew); fn runs in event
// context on the destination lane and must only touch that machine's
// state — typically it pushes onto a destination-owned sim.Queue.
func (f *Iface) Send(p *sim.Proc, dst *Iface, n int, fn func()) {
	if dst.cl != f.cl {
		panic("netlink: Send across unrelated clusters")
	}
	f.wire.Acquire(p)
	p.Sleep(f.TxTime(n))
	f.wire.Release()
	f.frames++
	f.bytesMove += uint64(n)
	d := f.lat + f.skew
	if f.cl == nil || dst.lane == f.lane {
		f.k.Schedule(d, fn)
		return
	}
	f.cl.Send(f.lane, dst.lane, d, fn)
}

// Frames reports how many frames the interface has transmitted.
func (f *Iface) Frames() uint64 { return f.frames }

// Bytes reports the total payload bytes transmitted.
func (f *Iface) Bytes() uint64 { return f.bytesMove }

// BusyTime reports cumulative wire occupancy — the basis for per-lane
// utilization reporting. Like Resource.BusyTime it is exact whenever
// the wire is idle, which is always true once the simulation drains.
func (f *Iface) BusyTime() time.Duration { return f.wire.BusyTime() }
