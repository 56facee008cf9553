package core

import (
	"fmt"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
)

// This file implements the paper's §6 future-work direction: automatic
// migration strategies with a load metric that "specifically take[s]
// into account the fact that a process virtual address space may be
// physically dispersed among several computational hosts". A Balancer
// samples host loads, picks candidates whose spaces are least
// dispersed (migrating a process whose memory is already owed by a
// third host adds another indirection hop to every future fault), and
// relocates them lazily.

// HostLoad is one machine's sampled load.
type HostLoad struct {
	Name string
	// Runnable counts processes currently executing their programs.
	Runnable int
	// OwedPages is the residual dependency this host carries for
	// processes that have migrated away — work it must keep serving.
	OwedPages int
}

// Candidate scores one process as a migration candidate.
type Candidate struct {
	Proc *machine.Process
	// DispersedBytes counts address-space bytes currently owed by some
	// other host (unfetched imaginary memory). Migrating such a process
	// chains backers: every later fault pays an extra hop.
	DispersedBytes uint64
}

// Balancer automatically levels load across a set of managers.
type Balancer struct {
	Mgrs []*Manager
	// Opts are applied to every automatic migration; the zero value
	// selects pure-IOU with one page of prefetch (the paper's
	// recommendation).
	Opts Options
	// Threshold is the minimum runnable-count imbalance that triggers a
	// migration (default 2).
	Threshold int

	migrations uint64
}

// NewBalancer returns a balancer over the given managers.
func NewBalancer(mgrs ...*Manager) *Balancer {
	return &Balancer{
		Mgrs:      mgrs,
		Opts:      Options{Strategy: PureIOU, Prefetch: 1},
		Threshold: 2,
	}
}

// Migrations reports how many automatic migrations have run.
func (b *Balancer) Migrations() uint64 { return b.migrations }

// Loads samples every host.
func (b *Balancer) Loads() []HostLoad {
	out := make([]HostLoad, 0, len(b.Mgrs))
	for _, mgr := range b.Mgrs {
		out = append(out, HostLoad{
			Name:      mgr.M.Name,
			Runnable:  runnable(mgr.M),
			OwedPages: mgr.M.Net.Store().TotalRemaining(),
		})
	}
	return out
}

func runnable(m *machine.Machine) int {
	n := 0
	for _, name := range procNames(m) {
		if pr, ok := m.Process(name); ok && pr.Status == machine.Running {
			n++
		}
	}
	return n
}

// procNames enumerates the machine's process table deterministically.
func procNames(m *machine.Machine) []string {
	return m.ProcNames()
}

// dispersal measures how much of the process's space is owed remotely.
func dispersal(pr *machine.Process) uint64 {
	return pr.AS.Usage().Imag
}

// pick selects the busiest and idlest hosts and the best candidate on
// the busiest: a runnable process with minimal dispersed memory.
func (b *Balancer) pick() (src, dst *Manager, cand *machine.Process) {
	var maxR, minR = -1, 1 << 30
	for _, mgr := range b.Mgrs {
		r := runnable(mgr.M)
		if r > maxR {
			maxR, src = r, mgr
		}
		if r < minR {
			minR, dst = r, mgr
		}
	}
	if src == nil || dst == nil || src == dst || maxR-minR < b.threshold() {
		return nil, nil, nil
	}
	var best *machine.Process
	var bestDisp uint64
	for _, name := range procNames(src.M) {
		pr, ok := src.M.Process(name)
		if !ok || pr.Status != machine.Running {
			continue
		}
		d := dispersal(pr)
		if best == nil || d < bestDisp {
			best, bestDisp = pr, d
		}
	}
	return src, dst, best
}

func (b *Balancer) threshold() int {
	if b.Threshold <= 0 {
		return 2
	}
	return b.Threshold
}

// Rebalance performs at most one automatic migration and reports
// whether it moved anything. Call it periodically from a driver proc.
func (b *Balancer) Rebalance(p *sim.Proc) (bool, error) {
	src, dst, cand := b.pick()
	if cand == nil {
		return false, nil
	}
	src.M.RequestPreempt(cand)
	if !src.M.WaitStopped(p, cand) {
		// Finished before it could be stopped; nothing to move.
		return false, nil
	}
	if _, err := src.MigrateTo(p, cand.Name, dst.Port.ID, b.Opts); err != nil {
		return false, fmt.Errorf("core: rebalance %q %s->%s: %w", cand.Name, src.M.Name, dst.M.Name, err)
	}
	b.migrations++
	return true, nil
}

// ChooseStrategy picks a transfer strategy and prefetch for a process
// using the paper's lessons (§4.5): resident sets only pay off for
// very short-lived processes whose touches the resident set covers;
// everything else does best with pure-IOU plus one page of prefetch.
// Without oracle knowledge of lifetime, residency fraction is the
// available signal: a process whose resident set covers most of its
// real memory is either young or small, the regime where RS shipping
// was observed to help.
func ChooseStrategy(pr *machine.Process) (Strategy, int) {
	u := pr.AS.Usage()
	if u.Real > 0 && float64(u.Resident)/float64(u.Real) > 0.5 {
		return ResidentSet, 1
	}
	return PureIOU, 1
}

// Evacuate migrates every running process off this manager's machine
// to the destination manager (host-maintenance drain). Processes that
// finish before they can be stopped are left in place. It returns the
// names of the processes moved.
func (mgr *Manager) Evacuate(p *sim.Proc, destPort ipc.PortID, opts Options) ([]string, error) {
	var moved []string
	for _, name := range mgr.M.ProcNames() {
		pr, ok := mgr.M.Process(name)
		if !ok || pr.Status != machine.Running {
			continue
		}
		mgr.M.RequestPreempt(pr)
		if !mgr.M.WaitStopped(p, pr) {
			continue // ran to completion instead
		}
		if _, err := mgr.MigrateTo(p, name, destPort, opts); err != nil {
			return moved, fmt.Errorf("core: evacuate %q: %w", name, err)
		}
		moved = append(moved, name)
	}
	return moved, nil
}

// Run loops Rebalance every interval until stop opens. Intended to be
// launched as its own proc.
func (b *Balancer) Run(p *sim.Proc, interval time.Duration, stop *sim.Gate) error {
	for !stop.Opened() {
		if _, err := b.Rebalance(p); err != nil {
			return err
		}
		p.Sleep(interval)
	}
	return nil
}
