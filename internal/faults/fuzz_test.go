package faults

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzParsePlan feeds arbitrary bytes to Parse, which decodes a plan
// and runs Validate on it. Parsing must never panic. A plan it accepts
// must compile (NewInjector) into injectors that survive a Drop and
// CorruptPage sweep across every window edge without panicking, drop
// every frame inside a partition, and never drop or corrupt when Active
// or CorruptActive says they cannot; and re-encoding it must be a fixed
// point of Parse. The seed corpus in testdata/fuzz holds the shrunk
// plans of the two failing chaos campaigns (13: one loss burst; 22: a
// base loss rate plus a burst), a plan using every field, and malformed
// JSON: truncated, a bad duration, an empty window, a non-object.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Parse(raw)
		if err != nil {
			return
		}
		var edges []time.Duration
		for _, w := range windows(p) {
			edges = append(edges, time.Duration(w.Start)-1, time.Duration(w.Start),
				time.Duration(w.End)-1, time.Duration(w.End))
		}
		edges = append(edges, 0, time.Second)
		for _, stream := range []string{"", "src->dst"} {
			in := NewInjector(p, stream)
			for _, now := range edges {
				if in.Drop(now) && !in.Active() {
					t.Fatalf("inactive injector dropped a frame at %v", now)
				}
				if in.CorruptPage(now) && !in.CorruptActive() {
					t.Fatalf("corruption-free injector corrupted a page at %v", now)
				}
			}
			for _, w := range p.Partitions {
				for _, now := range []time.Duration{time.Duration(w.Start), time.Duration(w.End) - 1} {
					if !in.Drop(now) {
						t.Fatalf("frame at %v survived partition [%v, %v)", now, time.Duration(w.Start), time.Duration(w.End))
					}
				}
			}
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal an accepted plan: %v", err)
		}
		p2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse %s: %v", enc, err)
		}
		if again, err := json.Marshal(p2); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the plan:\n%s\n%s (err %v)", enc, again, err)
		}
	})
}

// windows lists every window a plan schedules.
func windows(p *Plan) []Window {
	ws := append([]Window(nil), p.Partitions...)
	for _, b := range p.Bursts {
		ws = append(ws, b.Window)
	}
	for _, b := range p.CorruptBursts {
		ws = append(ws, b.Window)
	}
	return ws
}
