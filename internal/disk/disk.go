// Package disk models a machine's local paging disk: a single arm
// (transfers are serialized) with positioning latency and a byte
// transfer rate. The simulator keeps page *contents* in vm.Segment, so
// the disk is purely a timing and accounting device — exactly the role
// it plays in the paper's measurements, where a local disk page access
// costs ≈40.8 ms including fault overheads.
package disk

import (
	"time"

	"accentmig/internal/sim"
)

// Config sets the disk's performance envelope. The zero value selects
// defaults calibrated to the paper's Perq-era hardware.
type Config struct {
	// Seek is the per-operation positioning time (seek + rotational).
	Seek time.Duration
	// BytesPerSecond is the media transfer rate.
	BytesPerSecond int
}

func (c Config) withDefaults() Config {
	if c.Seek == 0 {
		c.Seek = 30 * time.Millisecond
	}
	if c.BytesPerSecond == 0 {
		c.BytesPerSecond = 500 << 10 // 500 KB/s
	}
	return c
}

// Disk is one machine's paging disk.
type Disk struct {
	cfg Config
	arm *sim.Resource

	reads      uint64
	writes     uint64
	bytesRead  uint64
	bytesWrite uint64
}

// New returns a disk attached to kernel k.
func New(k *sim.Kernel, name string, cfg Config) *Disk {
	return &Disk{
		cfg: cfg.withDefaults(),
		arm: sim.NewResource(k, name+".arm", 1),
	}
}

// xferTime is positioning plus media transfer for n bytes.
func (d *Disk) xferTime(n int) time.Duration {
	media := time.Duration(n) * time.Second / time.Duration(d.cfg.BytesPerSecond)
	return d.cfg.Seek + media
}

// Read blocks p for one read of n bytes. Demand reads are admitted at
// high priority so page-ins never starve behind a backlog of lazy
// write-backs.
func (d *Disk) Read(p *sim.Proc, n int) {
	d.arm.AcquireHigh(p)
	p.Sleep(d.xferTime(n))
	d.arm.Release()
	d.reads++
	d.bytesRead += uint64(n)
}

// Write blocks p for one write of n bytes.
func (d *Disk) Write(p *sim.Proc, n int) {
	d.arm.Acquire(p)
	p.Sleep(d.xferTime(n))
	d.arm.Release()
	d.writes++
	d.bytesWrite += uint64(n)
}

// WriteAsync queues a background write of n bytes (page write-back)
// without blocking the caller. The write still serializes on the arm,
// at normal priority. It runs as callbacks, not as a proc, on the event
// schedule a writer proc calling Write would have: a zero-delay start,
// the arm grant (at once if the arm is free, else in the zero-delay
// event of the Release that hands it over), then completion at the
// grant time plus the transfer time.
func (d *Disk) WriteAsync(k *sim.Kernel, n int) {
	k.Schedule(0, func() {
		d.arm.AcquireFunc("disk.writeback", func() {
			k.Schedule(d.xferTime(n), func() {
				d.arm.Release()
				d.writes++
				d.bytesWrite += uint64(n)
			})
		})
	})
}

// Reads reports completed read operations.
func (d *Disk) Reads() uint64 { return d.reads }

// Writes reports completed write operations.
func (d *Disk) Writes() uint64 { return d.writes }

// BytesRead reports total bytes read.
func (d *Disk) BytesRead() uint64 { return d.bytesRead }

// BytesWritten reports total bytes written.
func (d *Disk) BytesWritten() uint64 { return d.bytesWrite }

// BusyTime reports accumulated arm busy time.
func (d *Disk) BusyTime() time.Duration { return d.arm.BusyTime() }
