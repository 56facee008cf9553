// Lazyfile: the paper's closing claim is that the copy-on-reference
// facility is generic — "available to any application wishing to
// lazy-evaluate its data transfers" — not just to migration. This
// example uses it for remote file access: a file server publishes a
// 256 KB file as an imaginary segment; a client on another machine maps
// it and reads only the records it needs, paying for exactly those
// pages. A full-copy fetch of the same file is timed for contrast.
//
//	go run ./examples/lazyfile
package main

import (
	"fmt"
	"log"
	"time"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

const (
	filePages = 512 // 256 KB file
	pageSize  = 512
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func fileContent(page uint64) []byte {
	d := make([]byte, pageSize)
	copy(d, fmt.Sprintf("record %04d:", page))
	return d
}

func run() error {
	k := sim.New()
	server := machine.New(k, "fileserver", machine.Config{})
	client := machine.New(k, "client", machine.Config{})
	link := machine.Connect(server, client, netlink.Config{})

	// The server publishes the file from its NetMsgServer-backed store:
	// one imaginary segment, owed page by page.
	segID := k.NextID()
	sseg := server.Net.Store().AddSegment(segID, filePages*pageSize, pageSize)
	for i := uint64(0); i < filePages; i++ {
		sseg.Put(i, fileContent(i))
	}

	// The client maps the file without moving a byte.
	as := vm.MustNewAddressSpace(vm.Config{})
	fileSeg := vm.NewImaginarySegment("remote-file", filePages*pageSize, pageSize, uint64(server.Net.BackingPort()), segID)
	if _, err := as.MapSegment(0, filePages*pageSize, fileSeg, 0, "remote-file"); err != nil {
		return err
	}
	client.Net.AddRoute(server.Net.BackingPort(), "fileserver")
	client.Pager.SetPrefetch(1)

	var mapAt, lazyDone time.Duration
	var sample string
	k.Go("client", func(p *sim.Proc) {
		mapAt = p.Now() // mapping was free: no bytes moved yet
		// Read 10 scattered records out of 512.
		for i := 0; i < 10; i++ {
			page := uint64(i * 50)
			got, err := client.Pager.Read(p, as, vm.Addr(page*pageSize), 16)
			if err != nil {
				log.Printf("read: %v", err)
				return
			}
			if i == 0 {
				sample = string(got[:12])
			}
		}
		lazyDone = p.Now()
	})
	k.Run()
	lazyBytes := link.Bytes()

	fmt.Printf("lazy access to a %d KB remote file (10 of %d records read):\n",
		filePages*pageSize/1024, filePages)
	fmt.Printf("  map-in cost:            %v (an IOU, no data moved)\n", mapAt)
	fmt.Printf("  10 record reads:        %.2fs, %d bytes on the wire\n",
		(lazyDone - mapAt).Seconds(), lazyBytes)
	fmt.Printf("  first record sample:    %q\n", sample)
	fmt.Printf("  pages still owed:       %d of %d\n",
		server.Net.Store().TotalRemaining(), filePages)

	// Contrast: fetching the whole file eagerly (flush every page).
	var fullDone time.Duration
	k.Go("client-full", func(p *sim.Proc) {
		start := p.Now()
		rep, err := client.IPC.Call(p, &ipc.Message{
			Op:        imag.OpFlush,
			To:        server.Net.BackingPort(),
			Body:      &imag.FlushRequest{SegID: segID},
			BodyBytes: imag.FlushRequestBytes,
		})
		if err != nil {
			log.Printf("flush: %v", err)
			return
		}
		body := rep.Body.(*imag.ReadReply)
		for _, run := range body.Runs {
			fileSeg.MaterializeRun(run.Index, run.Count, run.Data)
		}
		fullDone = p.Now() - start
	})
	k.Run()

	fmt.Printf("\neager fetch of the remaining %d KB:\n", (filePages-10*2)*pageSize/1024)
	fmt.Printf("  full transfer:          %.2fs, %d total bytes on the wire\n",
		fullDone.Seconds(), link.Bytes())
	fmt.Println("\nLazy shipment made the 10-record read ~two orders of magnitude")
	fmt.Println("cheaper than fetching the file — the same arithmetic that makes")
	fmt.Println("copy-on-reference migration practically instantaneous.")
	return nil
}
