// Package machine assembles one SPICE testbed host: a CPU, physical
// memory, a paging disk, the IPC system, the pager, and the
// NetMsgServer, plus the process table and the reference-program
// executor that simulated user processes run on.
package machine

import (
	"fmt"
	"sort"
	"time"

	"accentmig/internal/disk"
	"accentmig/internal/ipc"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/netmsg"
	"accentmig/internal/obs"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// quantum is the CPU scheduling quantum: user compute bursts hold the
// CPU at most this long before other work can interleave.
const quantum = 50 * time.Millisecond

// Config parameterizes a machine. Zero values select the calibrated
// Perq-era defaults throughout.
type Config struct {
	// PhysFrames is physical memory size in page frames (default 600
	// frames = 300 KB of 512-byte pages).
	PhysFrames int
	// PageSize for all address spaces on this machine. The IPC system's
	// mapped-transfer unit and the NetMsgServer's fragment payload
	// follow it.
	PageSize int
	Disk     disk.Config
	IPC      ipc.Config
	Pager    pager.Config
	Net      netmsg.Config
	// Dedup configures the content-addressed page store. Disabled by
	// default; the machine then carries no content index and every data
	// path is byte-identical to a build without the store.
	Dedup vm.DedupConfig
}

func (c Config) withDefaults() Config {
	if c.PhysFrames == 0 {
		c.PhysFrames = 600
	}
	if c.PageSize == 0 {
		c.PageSize = vm.DefaultPageSize
	}
	return c
}

// Status is a process's lifecycle state.
type Status int

const (
	// Running: the process body is executing (or runnable).
	Running Status = iota
	// AtMigrationPoint: the body reached its MigratePoint and waits to
	// be excised.
	AtMigrationPoint
	// Excised: the context has been extracted; the process no longer
	// exists on any machine until inserted.
	Excised
	// Finished: the program ran to completion.
	Finished
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Running:
		return "Running"
	case AtMigrationPoint:
		return "AtMigrationPoint"
	case Excised:
		return "Excised"
	case Finished:
		return "Finished"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Process is a simulated user process: an address space, port rights,
// a small non-memory context, and a reference program with its saved
// program counter.
type Process struct {
	Name string
	AS   *vm.AddressSpace

	// Ports are the rights the process owns; they move with it.
	Ports []*ipc.Port

	// Non-memory context sizes (the paper: ≈1 KB combined).
	MicrostateBytes  int
	KernelStackBytes int
	PCBBytes         int

	Program *trace.Program
	PC      int

	Status Status
	Host   *Machine

	// AtMigrate opens when the body reaches its MigratePoint.
	AtMigrate *sim.Gate
	// Done opens when the body finishes.
	Done *sim.Gate

	// ExecError records a fault-handling failure that killed the body.
	ExecError error

	// preempt asks the executor to stop at the next op boundary, as if
	// a MigratePoint had been reached (set via RequestPreempt).
	preempt bool
}

// Machine is one testbed host.
type Machine struct {
	Name  string
	K     *sim.Kernel
	CPU   *sim.Resource
	Phys  *vm.PhysMem
	Disk  *disk.Disk
	IPC   *ipc.System
	Pager *pager.Pager
	Net   *netmsg.Server
	// Pool recycles page frames across the machine's processes: frames
	// freed by excision or segment death back later materializations.
	Pool *vm.FramePool
	// Index is the machine's content index: hash → one resident copy of
	// those page bytes. Nil unless Config.Dedup.Enabled (or Integrity,
	// which uses it to serve single-page repair reads).
	Index *vm.ContentIndex
	// Ledger retains page content delivered by migration attempts that
	// later failed, so retries ship a delta. Nil unless
	// Config.Dedup.Resume.
	Ledger *vm.DeliveryLedger

	cfg   Config
	rec   *metrics.Recorder
	procs map[string]*Process
}

// New builds a machine on kernel k and starts its NetMsgServer.
func New(k *sim.Kernel, name string, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	cpu := sim.NewResource(k, name+".cpu", 1)
	sys := ipc.NewSystem(k, name, cpu, cfg.PageSize, cfg.IPC)
	dsk := disk.New(k, name+".disk", cfg.Disk)
	phys := vm.NewPhysMem(cfg.PhysFrames)
	pg := pager.New(k, name, cpu, phys, dsk, sys, cfg.Pager)
	srv := netmsg.New(k, name, cpu, sys, cfg.Net)
	m := &Machine{
		Name:  name,
		K:     k,
		CPU:   cpu,
		Phys:  phys,
		Disk:  dsk,
		IPC:   sys,
		Pager: pg,
		Net:   srv,
		Pool:  vm.NewFramePool(cfg.PageSize),
		cfg:   cfg,
		procs: make(map[string]*Process),
	}
	if cfg.Dedup.Enabled || cfg.Dedup.Integrity {
		m.Index = vm.NewContentIndex(cfg.PageSize)
		srv.SetContentIndex(m.Index)
		pg.SetContentIndex(m.Index)
	}
	if cfg.Dedup.Resume {
		m.Ledger = vm.NewDeliveryLedger()
		srv.SetLedger(m.Ledger)
	}
	srv.Start()
	return m
}

// Connect joins two machines with a fresh link and returns it.
func Connect(a, b *Machine, cfg netlink.Config) *netlink.Link {
	link := netlink.New(a.K, a.Name+"-"+b.Name, cfg)
	netmsg.ConnectPair(a.Net, b.Net, link)
	return link
}

// PageSize reports the machine's page size.
func (m *Machine) PageSize() int { return m.cfg.PageSize }

// DedupConfig reports the content-addressed store configuration
// (zero-valued when the store is disabled).
func (m *Machine) DedupConfig() vm.DedupConfig { return m.cfg.Dedup }

// NetConfig reports the machine's network-server configuration, so
// protocol layers can predict transport decisions — e.g. which
// attachments the server will absorb as IOUs.
func (m *Machine) NetConfig() netmsg.Config { return m.cfg.Net }

// SetRecorder points the machine's metric producers at rec.
func (m *Machine) SetRecorder(rec *metrics.Recorder) {
	m.rec = rec
	m.Pager.SetRecorder(rec)
	m.Net.SetRecorder(rec)
}

// Recorder returns the active recorder, possibly nil.
func (m *Machine) Recorder() *metrics.Recorder { return m.rec }

// emitState records a process lifecycle transition in the flight
// recorder.
func (m *Machine) emitState(pr *Process, state string) {
	if m.K.Tracing() {
		m.K.Emit(obs.Event{
			Kind:    obs.StateChange,
			Machine: m.Name,
			Proc:    pr.Name,
			Name:    state,
		})
	}
}

// NewProcess creates an empty process resident on this machine with a
// fresh address space and n port rights.
func (m *Machine) NewProcess(name string, nports int) (*Process, error) {
	if _, exists := m.procs[name]; exists {
		return nil, fmt.Errorf("machine %s: process %q already exists", m.Name, name)
	}
	as, err := vm.NewAddressSpace(vm.Config{PageSize: m.cfg.PageSize, Pool: m.Pool})
	if err != nil {
		return nil, err
	}
	pr := &Process{
		Name:             name,
		AS:               as,
		MicrostateBytes:  512,
		KernelStackBytes: 256,
		PCBBytes:         256,
		Host:             m,
		AtMigrate:        sim.NewGate(m.K),
		Done:             sim.NewGate(m.K),
	}
	for i := 0; i < nports; i++ {
		pr.Ports = append(pr.Ports, m.IPC.AllocPort(fmt.Sprintf("%s.port%d", name, i)))
	}
	m.procs[name] = pr
	return pr, nil
}

// Adopt installs an inserted process (built by core.InsertProcess).
func (m *Machine) Adopt(pr *Process) error {
	if _, exists := m.procs[pr.Name]; exists {
		return fmt.Errorf("machine %s: process %q already exists", m.Name, pr.Name)
	}
	pr.Host = m
	m.procs[pr.Name] = pr
	return nil
}

// Remove deletes the process from the table (excision).
func (m *Machine) Remove(name string) {
	delete(m.procs, name)
}

// Process looks up a process by name.
func (m *Machine) Process(name string) (*Process, bool) {
	pr, ok := m.procs[name]
	return pr, ok
}

// Procs reports the number of processes resident here.
func (m *Machine) Procs() int { return len(m.procs) }

// ProcNames lists resident process names in sorted order, for
// deterministic iteration over the process table.
func (m *Machine) ProcNames() []string {
	names := make([]string, 0, len(m.procs))
	for name := range m.procs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Start launches the process body: it executes the reference program
// from the saved PC. At a MigratePoint the body parks and opens
// AtMigrate; on completion it opens Done.
func (m *Machine) Start(pr *Process) {
	pr.Status = Running
	m.emitState(pr, Running.String())
	m.K.Go(m.Name+"."+pr.Name, func(p *sim.Proc) {
		if err := m.exec(p, pr); err != nil {
			pr.ExecError = err
			pr.Status = Finished
			m.emitState(pr, Finished.String())
			pr.Done.Open()
			return
		}
		if pr.Status == Running {
			pr.Status = Finished
			m.emitState(pr, Finished.String())
			pr.Done.Open()
		}
	})
}

// RequestPreempt asks a running process to stop at its next trace-op
// boundary as if it had hit a MigratePoint, so it can be excised at a
// clean point. The AtMigrate gate recloses and reopens when the stop
// happens; callers should also watch Done in case the program finishes
// first.
func (m *Machine) RequestPreempt(pr *Process) {
	pr.AtMigrate.Close()
	pr.preempt = true
}

// WaitStopped blocks until the process is either preempted (true) or
// finished (false).
func (m *Machine) WaitStopped(p *sim.Proc, pr *Process) bool {
	for !pr.AtMigrate.Opened() && !pr.Done.Opened() {
		p.Sleep(5 * time.Millisecond)
	}
	return pr.AtMigrate.Opened() && !pr.Done.Opened()
}

// exec interprets the program from pr.PC. It returns nil both at
// completion and at a migration point (distinguished by pr.Status).
func (m *Machine) exec(p *sim.Proc, pr *Process) error {
	ps := uint64(m.cfg.PageSize)
	if pr.PC > 0 {
		// Resuming a saved context: the first instruction after a
		// migration insert (or a rollback) runs now. This instant closes
		// the downtime span that opened at excise-freeze.
		if m.rec != nil {
			m.rec.MarkResume(p.Now())
		}
		m.emitState(pr, "Resumed")
	}
	for pr.PC < len(pr.Program.Ops) {
		if pr.preempt {
			pr.preempt = false
			pr.Status = AtMigrationPoint
			m.emitState(pr, AtMigrationPoint.String())
			pr.AtMigrate.Open()
			return nil
		}
		op := pr.Program.Ops[pr.PC]
		pr.PC++
		switch o := op.(type) {
		case trace.Compute:
			m.compute(p, o.D)
		case trace.IOWait:
			p.Sleep(o.D)
		case trace.Touch:
			if err := m.Pager.Touch(p, pr.AS, o.Addr, o.Write); err != nil {
				return err
			}
		case trace.SeqScan:
			stride := o.Stride
			if stride == 0 {
				stride = ps
			}
			for off := uint64(0); off < o.Bytes; off += stride {
				if o.PerTouch > 0 {
					m.compute(p, o.PerTouch)
				}
				if err := m.Pager.Touch(p, pr.AS, o.Start+vm.Addr(off), o.Write); err != nil {
					return err
				}
			}
		case trace.WSLoop:
			for it := 0; it < o.Iters; it++ {
				for pg := 0; pg < o.Pages; pg++ {
					a := o.Start + vm.Addr(uint64(pg)*ps)
					if err := m.Pager.Touch(p, pr.AS, a, o.Write); err != nil {
						return err
					}
				}
				if o.Compute > 0 {
					m.compute(p, o.Compute)
				}
			}
		case trace.MigratePoint:
			pr.Status = AtMigrationPoint
			m.emitState(pr, AtMigrationPoint.String())
			pr.AtMigrate.Open()
			return nil
		default:
			return fmt.Errorf("machine %s: unknown trace op %T", m.Name, op)
		}
	}
	return nil
}

// compute burns d of CPU in quantum-sized slices, so kernel and server
// work (high-priority acquirers) can interleave with long user bursts.
func (m *Machine) compute(p *sim.Proc, d time.Duration) {
	for d > 0 {
		q := quantum
		if d < q {
			q = d
		}
		m.CPU.Use(p, q)
		d -= q
	}
}

// WaitDone blocks p until the process body finishes and surfaces any
// execution error.
func (pr *Process) WaitDone(p *sim.Proc) error {
	pr.Done.Wait(p)
	return pr.ExecError
}

// ContextBytes reports the non-memory context size (≈1 KB).
func (pr *Process) ContextBytes() int {
	return pr.MicrostateBytes + pr.KernelStackBytes + pr.PCBBytes
}

// MakeResident materializes the page under each addr and inserts it
// into physical memory without simulated cost — test and workload setup
// plumbing to establish the paper's documented resident sets.
func (m *Machine) MakeResident(pr *Process, addrs []vm.Addr) error {
	for _, a := range addrs {
		pl, ok := pr.AS.Resolve(a)
		if !ok {
			return fmt.Errorf("machine %s: MakeResident %#x: bad address", m.Name, a)
		}
		if pl.Seg.Page(pl.PageIdx) == nil {
			pl.Seg.MaterializeZero(pl.PageIdx)
		}
		m.Phys.Insert(pl.Seg, pl.PageIdx)
	}
	return nil
}

// ImageHash digests a resident process's logical memory image: every
// region in address order, and for each page slot of a region whether
// the page is present and, if so, its content name (vm.HashPage). Two
// runs of the same program that end with the same memory state produce
// the same hash; a corrupted, zero-filled, moved or missing page
// changes it. Used by the chaos campaign's image-identity invariant.
//
// The digest is one FNV-1a chain over bytes: each region's start
// address (8 bytes, little-endian), then per page slot a zero byte for
// an absent page, or a one byte and the page's 8-byte name for a
// present one. The marker keeps a present zero page (name ZeroHash)
// apart from an absent page.
func (m *Machine) ImageHash(name string) (uint64, bool) {
	pr, ok := m.procs[name]
	if !ok {
		return 0, false
	}
	d := imageDigest{h: fnvOffset64, ps: m.cfg.PageSize}
	ps := uint64(m.cfg.PageSize)
	for _, r := range pr.AS.Regions() {
		d.region(uint64(r.Start))
		first := r.SegOff / ps
		last := (r.SegOff + r.Size() + ps - 1) / ps
		for idx := first; idx < last; {
			start, end, ok := r.Seg.NextRun(idx, last-1)
			if !ok {
				d.absent += last - idx
				break
			}
			d.absent += start - idx
			for i := start; i < end; i++ {
				d.present(r.Seg.Page(i).Data)
			}
			idx = end
		}
	}
	return d.sum(), true
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// imageDigest is ImageHash's chain. Present pages are named one at a
// time as the walk reaches them; absent pages are only counted.
//
// An absent page is a zero byte: h ^= 0 is a no-op, so it costs one
// h *= prime, and a gap of n absent pages is h *= prime^n, computed in
// O(log n) by square-and-multiply (uint64 multiplication is already mod
// 2^64). That keeps a sparse 4 GB Lisp space (8M page slots, ~4K
// present) cheap, with the same value as a walk one slot at a time.
type imageDigest struct {
	h      uint64
	ps     int
	absent uint64 // absent pages since the last present page
}

// present folds the absent pages before a present page, then the
// page's marker and name.
func (d *imageDigest) present(data []byte) {
	d.sum()
	d.h = (d.h ^ 1) * fnvPrime64
	name, _ := vm.HashPage(data, d.ps)
	d.mix64(name)
}

// region folds everything pending, then the start of the next region.
func (d *imageDigest) region(start uint64) {
	d.sum()
	d.mix64(start)
}

// sum folds everything pending and returns the digest so far.
func (d *imageDigest) sum() uint64 {
	d.skip(d.absent)
	d.absent = 0
	return d.h
}

// skip folds n absent pages: h *= prime^n.
func (d *imageDigest) skip(n uint64) {
	for p := uint64(fnvPrime64); n > 0; n >>= 1 {
		if n&1 != 0 {
			d.h *= p
		}
		p *= p
	}
}

// mix64 folds the eight bytes of v, low byte first.
func (d *imageDigest) mix64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ v>>(8*i)&0xff) * fnvPrime64
	}
}
