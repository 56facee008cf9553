// Tracing: attach the flight recorder to a lazy migration and export
// it as a Chrome trace-event file. Open the output in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing — each machine is a
// process group, each simulated process a thread, with the migration
// phases as nested spans and every message, fault, and page transfer
// as individual events on the virtual-time axis.
//
//	go run ./examples/tracing            # writes migration-trace.json
//	go run ./examples/tracing out.json   # custom path
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/machine"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	out := "migration-trace.json"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()

	// The recorder stack: a ChromeSink streams every event to the
	// trace file; a MemorySink keeps them for the summary below. Tee
	// via a tiny fan-out sink — any obs.Sink composes this way.
	chrome := obs.NewChromeSink(f)
	mem := obs.NewMemorySink()
	tee := teeSink{chrome, mem}

	k := sim.New()
	k.SetSink(tee)

	src := machine.New(k, "perq-a", machine.Config{})
	dst := machine.New(k, "perq-b", machine.Config{})
	machine.Connect(src, dst, netlink.Config{})
	rec := metrics.NewRecorder()
	src.SetRecorder(rec)
	dst.SetRecorder(rec)

	srcMgr := core.NewManager(src, core.DefaultTuning())
	dstMgr := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstMgr.Port.ID, "perq-b")
	dst.Net.AddRoute(srcMgr.Port.ID, "perq-a")

	// A process with 128 pages of real data that it re-reads after the
	// migration point — every one of those reads is a remote fault
	// under pure-IOU, and each shows up in the trace as a
	// FaultStart/FaultResolved pair plus the network traffic between.
	pr, err := src.NewProcess("worker", 2)
	if err != nil {
		return err
	}
	reg, err := pr.AS.Validate(0, 128*512, "data")
	if err != nil {
		return err
	}
	for i := uint64(0); i < 128; i++ {
		reg.Seg.Materialize(i, bytes.Repeat([]byte{byte(i)}, 512))
	}
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.Compute{D: 200 * time.Millisecond},
		trace.MigratePoint{},
		trace.SeqScan{Start: 0, Bytes: 64 * 512, PerTouch: time.Millisecond},
		trace.Compute{D: 100 * time.Millisecond},
	}}
	src.Start(pr)

	var report *core.Report
	k.Go("driver", func(p *sim.Proc) {
		rep, err := srcMgr.MigrateTo(p, "worker", dstMgr.Port.ID, core.Options{Strategy: core.PureIOU})
		if err != nil {
			log.Printf("migration failed: %v", err)
			return
		}
		report = rep
		npr, _ := dst.Process("worker")
		if err := npr.WaitDone(p); err != nil {
			log.Printf("remote execution failed: %v", err)
		}
	})
	k.Run()
	if report == nil {
		return fmt.Errorf("migration did not complete")
	}
	if err := chrome.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}

	fmt.Printf("lazy migration traced to %s — load it in https://ui.perfetto.dev\n", out)
	fmt.Printf("  migration total %.0f ms, %d remote faults afterwards\n",
		report.Total.Seconds()*1000, dst.Pager.Stats().ImagFaults)
	counts := mem.CountKinds()
	fmt.Printf("  %d events:", mem.Len())
	for _, kind := range obs.Kinds() {
		if n := counts[kind]; n > 0 {
			fmt.Printf(" %s=%d", kind, n)
		}
	}
	fmt.Println()
	if d := rec.RemoteFaults(); d != nil {
		fmt.Printf("  remote fault latency p50/p95/p99: %.1f / %.1f / %.1f ms\n",
			d.Quantile(0.50).Seconds()*1000, d.Quantile(0.95).Seconds()*1000,
			d.Quantile(0.99).Seconds()*1000)
	}
	return nil
}

// teeSink duplicates every event to both sinks.
type teeSink struct{ a, b obs.Sink }

func (t teeSink) Emit(ev obs.Event) {
	t.a.Emit(ev)
	t.b.Emit(ev)
}
