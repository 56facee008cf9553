package core

import (
	"testing"

	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/wire"
	"accentmig/internal/workload"
)

// exciseLispDel installs Lisp-Del on a fresh machine and excises it
// under pure copy, returning the context.
func exciseLispDel(b *testing.B, timed func(run func())) *Context {
	k := sim.New()
	defer k.Close()
	m := machine.New(k, "src", machine.Config{})
	built, err := workload.Build(m, workload.LispDel)
	if err != nil {
		b.Fatal(err)
	}
	var ctx *Context
	k.Go("excise", func(p *sim.Proc) {
		ctx, err = ExciseProcess(p, m, built.Proc, PureCopy, 0, DefaultTuning())
	})
	timed(func() { k.Run() })
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkExcise times ExciseProcess of a freshly installed Lisp-Del
// under pure copy: the AMap, the collapse of its 4.3K real pages into
// the RIMAS attachment, and the release of the process's frames.
func BenchmarkExcise(b *testing.B) {
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		exciseLispDel(b, func(run func()) {
			b.StartTimer()
			run()
			b.StopTimer()
		})
	}
}

// BenchmarkTransfer times one wire crossing of the RIMAS message that
// carries Lisp-Del's collapsed attachment: the encode into a frame of
// headers, with the page images riding beside it by reference, and the
// decode, which checks each run against its reference. Its MB/s counts
// the frame's header bytes only.
func BenchmarkTransfer(b *testing.B) {
	ctx := exciseLispDel(b, func(run func()) { run() })
	frame, _, err := wire.EncodeMessage(ctx.RIMAS)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Transfer(ctx.RIMAS); err != nil {
			b.Fatal(err)
		}
	}
}
