package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAddBytesTotals(t *testing.T) {
	r := NewRecorder()
	r.AddBytes(0, 100, false)
	r.AddBytes(500*time.Millisecond, 50, true)
	r.AddBytes(2*time.Second, 25, true)
	if r.BytesTotal() != 175 {
		t.Errorf("BytesTotal = %d, want 175", r.BytesTotal())
	}
	var fault uint64
	for _, pt := range r.Series() {
		fault += pt.FaultBytes
	}
	if fault != 75 {
		t.Errorf("fault bytes over the series = %d, want 75", fault)
	}
}

func TestAddBytesIgnoresNonPositive(t *testing.T) {
	r := NewRecorder()
	r.AddBytes(0, 0, false)
	r.AddBytes(0, -5, true)
	if r.BytesTotal() != 0 {
		t.Errorf("BytesTotal = %d, want 0", r.BytesTotal())
	}
}

func TestSeriesBucketing(t *testing.T) {
	r := NewRecorder()
	r.AddBytes(100*time.Millisecond, 10, false)
	r.AddBytes(900*time.Millisecond, 20, true)
	r.AddBytes(3500*time.Millisecond, 40, false)
	s := r.Series()
	if len(s) != 4 {
		t.Fatalf("len(Series) = %d, want 4 (buckets 0..3)", len(s))
	}
	if s[0].Bytes != 30 || s[0].FaultBytes != 20 {
		t.Errorf("bucket 0 = %+v", s[0])
	}
	if s[1].Bytes != 0 || s[2].Bytes != 0 {
		t.Errorf("interior buckets not zero: %+v %+v", s[1], s[2])
	}
	if s[3].Bytes != 40 || s[3].T != 3*time.Second {
		t.Errorf("bucket 3 = %+v", s[3])
	}
}

func TestSeriesEmpty(t *testing.T) {
	r := NewRecorder()
	if s := r.Series(); s != nil {
		t.Errorf("Series on empty recorder = %v, want nil", s)
	}
}

func TestPeakRate(t *testing.T) {
	r := NewRecorder()
	r.AddBytes(0, 10, false)
	r.AddBytes(time.Second, 500, false)
	r.AddBytes(1500*time.Millisecond, 500, false)
	r.AddBytes(2*time.Second, 30, false)
	if got := r.PeakRate(); got != 1000 {
		t.Errorf("PeakRate = %d, want 1000", got)
	}
}

func TestMessages(t *testing.T) {
	r := NewRecorder()
	r.AddMessage(10 * time.Millisecond)
	r.AddMessage(5 * time.Millisecond)
	if r.MessageTime() != 15*time.Millisecond {
		t.Errorf("MessageTime = %v, want 15ms", r.MessageTime())
	}
}

// Property: sum over series buckets always equals BytesTotal, the
// fault bytes sum to the fault traffic recorded, and they never exceed
// total bytes per bucket.
func TestQuickSeriesConservation(t *testing.T) {
	f := func(events []struct {
		At    uint16
		N     uint8
		Fault bool
	}) bool {
		r := NewRecorder()
		var fault uint64
		for _, e := range events {
			r.AddBytes(time.Duration(e.At)*time.Millisecond, int(e.N), e.Fault)
			if e.Fault {
				fault += uint64(e.N)
			}
		}
		var sum, fsum uint64
		for _, pt := range r.Series() {
			if pt.FaultBytes > pt.Bytes {
				return false
			}
			sum += pt.Bytes
			fsum += pt.FaultBytes
		}
		return sum == r.BytesTotal() && fsum == fault
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestObserveDistribution(t *testing.T) {
	r := NewRecorder()
	if r.RemoteFaults() != nil {
		t.Error("RemoteFaults before any sample not nil")
	}
	r.ObserveRemoteFault(10 * time.Millisecond)
	r.ObserveRemoteFault(30 * time.Millisecond)
	r.ObserveRemoteFault(20 * time.Millisecond)
	d := r.RemoteFaults()
	if d.Count != 3 || d.Min != 10*time.Millisecond || d.Max != 30*time.Millisecond {
		t.Errorf("dist = %+v", d)
	}
	if d.Mean() != 20*time.Millisecond {
		t.Errorf("Mean = %v", d.Mean())
	}
	var nilDist *Distribution
	if nilDist.Mean() != 0 {
		t.Error("nil Mean not zero")
	}
}
