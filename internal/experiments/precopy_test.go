package experiments

import (
	"fmt"
	"testing"
	"time"

	"accentmig/internal/faults"
	"accentmig/internal/sim"
)

// TestFailedPreCopyRoundKeepsTheWriter: a pre-copy round that the
// transport gives up on fails the migration, and the writer finishes at
// the source, whether the partition hits a round run beside it (from 1
// s or 9 s) or the round run with it stopped (from 9.4 s or 9.6 s). A
// round whose nack was taken for its ack used to be counted as
// delivered, and the writer was lost or its last round went missing.
func TestFailedPreCopyRoundKeepsTheWriter(t *testing.T) {
	for _, w := range []struct{ start, end string }{
		{"1s", "20s"}, {"9s", "40s"}, {"9.4s", "40s"}, {"9.6s", "40s"},
	} {
		t.Run(w.start, func(t *testing.T) {
			plan, err := faults.Parse([]byte(fmt.Sprintf(`{"seed":1,"partitions":[{"start":%q,"end":%q}]}`, w.start, w.end)))
			if err != nil {
				t.Fatal(err)
			}
			tb, err := preCopyTestbed(Config{Faults: plan}, 128, 16, 2000)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.K.Close()
			m := &migration{}
			tb.K.Go("driver", func(p *sim.Proc) {
				p.Sleep(time.Second)
				_, m.err = tb.SrcMgr.PreCopyTo(p, "writer", tb.DstMgr.Port.ID)
				tb.settle(p, m, "writer")
			})
			tb.K.RunUntil(30 * time.Minute)
			if m.err == nil {
				t.Fatal("pre-copy across the partition reported success")
			}
			if !m.finished || !m.found || m.exec != nil {
				t.Errorf("after %v: writer finished %v, found at the source %v, exec error %v; want it run to completion there",
					m.err, m.finished, m.found, m.exec)
			}
			if _, ok := tb.Dst.Process("writer"); ok {
				t.Errorf("writer is on the destination too")
			}
		})
	}
}
