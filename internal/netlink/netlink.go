// Package netlink models the shared Ethernet joining the testbed
// machines: a half-duplex medium with propagation latency, a raw bit
// rate, and optional failure injection (a faults.Injector). All migration
// traffic crosses a Link, which is also where byte accounting for
// Figures 4-3 and 4-5 happens.
package netlink

import (
	"time"

	"accentmig/internal/faults"
	"accentmig/internal/metrics"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
)

// Config sets the link's characteristics. Zero values select defaults
// calibrated to the paper's 3 Mbit testbed Ethernet.
type Config struct {
	// Latency is one-way propagation plus interface turnaround.
	Latency time.Duration
	// BytesPerSecond is the raw medium rate.
	BytesPerSecond int
}

func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 5 * time.Millisecond
	}
	if c.BytesPerSecond == 0 {
		c.BytesPerSecond = 375_000 // 3 Mbit/s
	}
	return c
}

// Link is a point-to-point (shared-medium) network between two
// machines.
type Link struct {
	cfg  Config
	k    *sim.Kernel
	name string
	wire *sim.Resource
	inj  *faults.Injector
	rec  *metrics.Recorder

	frames    uint64
	drops     uint64
	bytesMove uint64
}

// New returns a reliable link on kernel k; SetFaults makes it lossy.
func New(k *sim.Kernel, name string, cfg Config) *Link {
	return &Link{
		cfg:  cfg.withDefaults(),
		k:    k,
		name: name,
		wire: sim.NewResource(k, name+".wire", 1),
	}
}

// SetFaults replaces the link's failure model with inj (nil restores a
// reliable link). Call before traffic starts.
func (l *Link) SetFaults(inj *faults.Injector) { l.inj = inj }

// MayDrop reports whether the link can ever lose a frame. Transports
// consult it to decide whether acknowledgement machinery is needed.
func (l *Link) MayDrop() bool { return l.inj.Active() }

// MayCorrupt reports whether the link can ever bit-flip a delivered
// payload page; the data plane consults it to skip corruption work on
// clean links.
func (l *Link) MayCorrupt() bool { return l.inj.CorruptActive() }

// CorruptPage asks the failure model whether one delivered payload
// page arriving at time at is bit-flipped.
func (l *Link) CorruptPage(at time.Duration) bool { return l.inj.CorruptPage(at) }

// SetRecorder directs byte accounting to rec (may be nil to disable).
func (l *Link) SetRecorder(rec *metrics.Recorder) { l.rec = rec }

// Transmit occupies the wire for n bytes plus propagation and reports
// whether the frame survived (false under injected loss). The bytes are
// charged to the recorder either way — a dropped frame still burned
// bandwidth. fault marks imaginary-fault support traffic.
func (l *Link) Transmit(p *sim.Proc, n int, fault bool) bool {
	start := l.k.Now()
	l.wire.Acquire(p)
	p.Sleep(time.Duration(n) * time.Second / time.Duration(l.cfg.BytesPerSecond))
	l.wire.Release()
	p.Sleep(l.cfg.Latency)
	l.frames++
	l.bytesMove += uint64(n)
	if l.rec != nil {
		l.rec.AddBytes(p.Now(), n, fault)
	}
	if l.k.Tracing() {
		name := "xmit"
		if fault {
			name = "xmit.fault"
		}
		l.k.Emit(obs.Event{
			Kind:    obs.LinkXmit,
			Machine: l.name,
			Proc:    p.Name(),
			Name:    name,
			Bytes:   n,
			Dur:     l.k.Now() - start,
		})
	}
	if l.inj.Drop(l.k.Now()) {
		l.drops++
		return false
	}
	return true
}

// Rate reports the raw medium rate in bytes per second.
func (l *Link) Rate() int { return l.cfg.BytesPerSecond }

// Occupy holds the wire for d of transmission time: one pipelined
// burst's aggregate occupancy, charged as a single hold so a window of
// frames costs O(1) scheduler events instead of one acquire/release
// per frame. Per-frame byte accounting and loss for the burst happen
// in Judge.
func (l *Link) Occupy(p *sim.Proc, d time.Duration) {
	l.wire.Acquire(p)
	p.Sleep(d)
	l.wire.Release()
}

// Judge accounts one frame of a pipelined burst that finishes crossing
// the wire at absolute time at, and reports whether it survives the
// failure model. Bytes are charged either way — a dropped frame still
// burned bandwidth. fault marks imaginary-fault support traffic.
func (l *Link) Judge(at time.Duration, n int, fault bool) bool {
	l.frames++
	l.bytesMove += uint64(n)
	if l.rec != nil {
		l.rec.AddBytes(at, n, fault)
	}
	if l.inj.Drop(at) {
		l.drops++
		return false
	}
	return true
}

// Frames reports transmitted frame count (including dropped ones).
func (l *Link) Frames() uint64 { return l.frames }

// Drops reports injected losses.
func (l *Link) Drops() uint64 { return l.drops }

// Bytes reports total bytes put on the wire.
func (l *Link) Bytes() uint64 { return l.bytesMove }

// Latency reports the configured one-way latency.
func (l *Link) Latency() time.Duration { return l.cfg.Latency }
