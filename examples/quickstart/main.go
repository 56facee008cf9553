// Quickstart: build a two-machine SPICE testbed, create a process with
// real page data, migrate it by copy-on-reference, and watch it finish
// remotely — verifying that every byte survived the move.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/machine"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A simulation kernel and two machines joined by the 3 Mbit
	// testbed Ethernet.
	k := sim.New()
	src := machine.New(k, "perq-a", machine.Config{})
	dst := machine.New(k, "perq-b", machine.Config{})
	link := machine.Connect(src, dst, netlink.Config{})
	rec := metrics.NewRecorder()
	src.SetRecorder(rec)
	dst.SetRecorder(rec)
	link.SetRecorder(rec)

	// Migration managers on both hosts; each can name the other's port.
	srcMgr := core.NewManager(src, core.DefaultTuning())
	dstMgr := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstMgr.Port.ID, "perq-b")
	dst.Net.AddRoute(srcMgr.Port.ID, "perq-a")

	// A process: 64 pages of recognizable data, 1 MB of lazily
	// zero-filled heap, and a program that runs a little, migrates,
	// then reads its memory back on the new host.
	pr, err := src.NewProcess("worker", 2)
	if err != nil {
		return err
	}
	reg, err := pr.AS.Validate(0, 64*512, "data")
	if err != nil {
		return err
	}
	if _, err := pr.AS.Validate(1<<20, 1<<20, "heap"); err != nil {
		return err
	}
	content := func(i uint64) []byte {
		return bytes.Repeat([]byte{byte('A' + i%26)}, 512)
	}
	for i := uint64(0); i < 64; i++ {
		pg := reg.Seg.Materialize(i, content(i))
		pg.State.OnDisk = true
	}
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.Compute{D: 500 * time.Millisecond},
		trace.Touch{Addr: 0},
		trace.MigratePoint{},
		trace.SeqScan{Start: 0, Bytes: 16 * 512, PerTouch: 5 * time.Millisecond},
		trace.Touch{Addr: 1 << 20, Write: true}, // FillZero on the heap
		trace.Compute{D: 250 * time.Millisecond},
	}}
	src.Start(pr)

	var report *core.Report
	var verified bool
	k.Go("driver", func(p *sim.Proc) {
		rep, err := srcMgr.MigrateTo(p, "worker", dstMgr.Port.ID, core.Options{
			Strategy: core.PureIOU,
			Prefetch: 1,
		})
		if err != nil {
			log.Printf("migration failed: %v", err)
			return
		}
		report = rep
		npr, _ := dst.Process("worker")
		if err := npr.WaitDone(p); err != nil {
			log.Printf("remote execution failed: %v", err)
			return
		}
		// Verify the data content on the destination.
		for i := uint64(0); i < 16; i++ {
			got, err := dst.Pager.Read(p, npr.AS, vm.Addr(i*512), 512)
			if err != nil {
				log.Printf("verify: %v", err)
				return
			}
			if !bytes.Equal(got, content(i)) {
				log.Printf("verify: page %d corrupted", i)
				return
			}
		}
		verified = true
	})
	k.Run()
	if report == nil {
		return fmt.Errorf("migration did not complete")
	}

	fmt.Println("copy-on-reference migration of 'worker' from perq-a to perq-b")
	fmt.Printf("  excise (AMap %.0fms + RIMAS %.0fms)    %8.0f ms\n",
		report.Excise.AMap.Seconds()*1000, report.Excise.RIMAS.Seconds()*1000,
		report.Excise.Overall.Seconds()*1000)
	fmt.Printf("  Core context transfer                %8.0f ms\n", report.CoreTransfer.Seconds()*1000)
	fmt.Printf("  RIMAS (address space) transfer       %8.0f ms  <- the IOU trick\n", report.RIMASTransfer.Seconds()*1000)
	fmt.Printf("  insertion                            %8.0f ms\n", report.Insert.Overall.Seconds()*1000)
	fmt.Printf("  bytes on the wire                    %8d B (of %d B of RealMem)\n",
		rec.BytesTotal(), 64*512)
	fmt.Printf("  remote faults                        %8d\n", dst.Pager.Stats().ImagFaults)
	fmt.Printf("  residual pages still owed by perq-a  %8d\n", src.Net.Store().TotalRemaining())
	fmt.Printf("  data verified after migration:       %v\n", verified)
	if !verified {
		return fmt.Errorf("verification failed")
	}
	return nil
}
