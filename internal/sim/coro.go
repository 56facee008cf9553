//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// launch runs in kernel context at the proc's start event: it makes the
// body a coroutine and runs it until it first parks or returns. The
// coroutine is made here, not in Go, so a proc killed or reaped before
// it starts never has one.
//
// A panic in the body other than the kill unwind finishes the proc,
// leaves proc context, and continues into the event that resumed it, so
// it reaches Run's caller (a Cluster reports it as a lane panic).
func (p *Proc) launch(fn func(p *Proc)) {
	if p.killed {
		p.finish()
		return
	}
	p.started = true
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.k.cur = nil
			p.finish()
			if r := recover(); r != nil {
				if ks, ok := r.(killSignal); !ok || ks.p != p {
					panic(r)
				}
			}
		}()
		p.k.cur = p
		fn(p)
	})
	p.next()
}

// park suspends the body and returns control to the event that resumed
// it, until unparked. It must be called from the proc's own body.
func (p *Proc) park() {
	if p.k.cur != p {
		panic(fmt.Sprintf("sim: proc %q parking while not current", p.name))
	}
	p.k.cur = nil
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal{p})
	}
	p.k.cur = p
}

// unpark runs in kernel context and switches to the parked proc,
// returning once the proc parks again or finishes.
func (p *Proc) unpark() {
	if p.done {
		return
	}
	p.next()
}
