package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// ssTestOpts is a scaled-down stress configuration: 8 machines, a short
// span, still enough load for dozens of arrivals and a handful of
// concurrent migrations.
var ssTestOpts = ShardStressOptions{
	Machines:     8,
	Span:         4 * time.Second,
	ArrivalEvery: 250 * time.Millisecond,
	ProcOps:      40,
}

// TestShardStressDeterminism is the scenario-level byte-identity gate
// from the issue: sharded runs at 2, 4, and 8 workers must DeepEqual
// the sequential-kernel run.
func TestShardStressDeterminism(t *testing.T) {
	seq, _, err := RunShardStress(ssTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		o := ssTestOpts
		o.Shards = workers
		got, perf, err := RunShardStress(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("%d-worker result differs from sequential kernel", workers)
		}
		if !perf.Sharded || perf.Windows == 0 || perf.CrossEvents == 0 {
			t.Errorf("%d-worker run did not exercise the window scheduler: %+v", workers, perf)
		}
	}
}

// TestShardStressInvariants checks the scenario's conservation laws on
// the sequential run: every spawned process finishes somewhere, every
// accepted migration either completes or is cancelled, and the load is
// actually a stress (migrations, rejections for the inflight cap, and
// wire traffic all happen).
func TestShardStressInvariants(t *testing.T) {
	r, _, err := RunShardStress(ssTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Finished != r.Spawned {
		t.Errorf("Finished = %d, want %d (every process must run to completion somewhere)", r.Finished, r.Spawned)
	}
	if r.Completed != r.Accepted-r.Cancelled {
		t.Errorf("Completed = %d, want Accepted-Cancelled = %d (wedged transfer?)", r.Completed, r.Accepted-r.Cancelled)
	}
	if r.Offers != r.Accepted+r.Rejected {
		t.Errorf("Offers = %d, want Accepted+Rejected = %d", r.Offers, r.Accepted+r.Rejected)
	}
	if r.Completed == 0 {
		t.Error("no migrations completed; the stress is not stressing")
	}
	if r.BytesOnWire == 0 || r.Frames == 0 {
		t.Error("no wire traffic recorded")
	}
	if len(r.Migrations) != r.Completed {
		t.Errorf("%d migration records for %d completions", len(r.Migrations), r.Completed)
	}
	for i, m := range r.Migrations {
		if m.ResumeAt <= m.FreezeAt || m.FreezeAt <= m.OfferAt {
			t.Errorf("migration %d (%s): times out of order: offer %v freeze %v resume %v", i, m.Name, m.OfferAt, m.FreezeAt, m.ResumeAt)
		}
		if m.Src == m.Dst {
			t.Errorf("migration %d (%s): src == dst == %d", i, m.Name, m.Src)
		}
	}
	if r.DownP50 <= 0 || r.DownP99 < r.DownP50 || r.DownMax < r.DownP99 {
		t.Errorf("downtime quantiles out of order: p50 %v p99 %v max %v", r.DownP50, r.DownP99, r.DownMax)
	}
	var bytesOut uint64
	for _, pm := range r.PerMachine {
		bytesOut += pm.BytesOut
		if pm.CPUBusy <= 0 {
			t.Errorf("machine %s reports no CPU time", pm.Name)
		}
	}
	if bytesOut != r.BytesOnWire {
		t.Errorf("per-machine bytes %d != total %d", bytesOut, r.BytesOnWire)
	}
}

// TestShardStressReport: the experiment harness runs end to end and
// asserts its own identity check.
func TestShardStressReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shardstress experiment in -short mode")
	}
	out, _, err := ShardStress(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"machines", "byte-identical to sequential: true", "cross events"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
