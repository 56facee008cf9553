// Package trace defines memory-reference programs: the abstract
// behaviour of a representative process as a sequence of compute bursts
// and page touches. A program is pure data — the machine package
// executes it — so the same program can run before migration on one
// host and resume after migration on another, exactly like a real
// process context whose program counter travels in the PCB.
package trace

import (
	"time"

	"accentmig/internal/vm"
)

// Op is one step of a reference program.
type Op interface{ isOp() }

// Compute burns CPU for D of virtual time.
type Compute struct{ D time.Duration }

// IOWait blocks without consuming CPU (terminal output, clock ticks).
type IOWait struct{ D time.Duration }

// Touch references a single address.
type Touch struct {
	Addr  vm.Addr
	Write bool
}

// SeqScan touches [Start, Start+Bytes) at Stride intervals in address
// order — the Pasmac file-processing pattern. A zero stride means one
// touch per page. PerTouch compute time is charged between touches.
type SeqScan struct {
	Start    vm.Addr
	Bytes    uint64
	Stride   uint64
	Write    bool
	PerTouch time.Duration
}

// WSLoop repeatedly touches a working set: Iters passes over Pages
// pages starting at Start, with Compute time charged per pass — the
// long-lived compute-bound Chess pattern.
type WSLoop struct {
	Start   vm.Addr
	Pages   int
	Iters   int
	Compute time.Duration
	Write   bool
}

// MigratePoint marks where the trial's migration happens: the executor
// stops here and the process waits to be excised.
type MigratePoint struct{}

func (Compute) isOp()      {}
func (IOWait) isOp()       {}
func (Touch) isOp()        {}
func (SeqScan) isOp()      {}
func (WSLoop) isOp()       {}
func (MigratePoint) isOp() {}

// Program is a complete reference program.
type Program struct {
	Ops []Op
}

// MigrateIndex returns the index of the MigratePoint op, or -1.
func (pr *Program) MigrateIndex() int {
	for i, op := range pr.Ops {
		if _, ok := op.(MigratePoint); ok {
			return i
		}
	}
	return -1
}

// Touches enumerates every (page-granular) address the program will
// reference from op index `from`, in order, without timing. Used by
// analysis and tests; the executor in package machine is authoritative
// for costs.
func (pr *Program) Touches(from int, pageSize int) []vm.Addr {
	var out []vm.Addr
	ps := uint64(pageSize)
	for _, op := range pr.Ops[from:] {
		switch o := op.(type) {
		case Touch:
			out = append(out, o.Addr)
		case SeqScan:
			stride := o.Stride
			if stride == 0 {
				stride = ps
			}
			for off := uint64(0); off < o.Bytes; off += stride {
				out = append(out, o.Start+vm.Addr(off))
			}
		case WSLoop:
			for it := 0; it < o.Iters; it++ {
				for pg := 0; pg < o.Pages; pg++ {
					out = append(out, o.Start+vm.Addr(uint64(pg)*ps))
				}
			}
		}
	}
	return out
}

// UniquePages reports the number of distinct pages the program touches
// from op index `from`.
func (pr *Program) UniquePages(from int, pageSize int) int {
	seen := make(map[vm.Addr]bool)
	for _, a := range pr.Touches(from, pageSize) {
		seen[vm.Addr(uint64(a)/uint64(pageSize))] = true
	}
	return len(seen)
}
