package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistIndexMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		idx := histIndex(v)
		if idx < prev {
			t.Errorf("histIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistMidWithinBucket(t *testing.T) {
	// The midpoint must map back to its own bucket, and the relative
	// error of representing any value by its bucket midpoint is bounded
	// by the sub-bucket width (1/8 above the linear range).
	if err := quick.Check(func(v uint64) bool {
		idx := histIndex(v)
		mid := histMid(idx)
		if histIndex(mid) != idx {
			return false
		}
		if v < 8 {
			return mid == v
		}
		relErr := math.Abs(float64(mid)-float64(v)) / float64(v)
		return relErr <= 1.0/8
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileEmptyAndNil(t *testing.T) {
	var d *Distribution
	if d.Quantile(0.5) != 0 {
		t.Error("nil distribution quantile should be 0")
	}
	d = &Distribution{}
	if d.Quantile(0.99) != 0 {
		t.Error("empty distribution quantile should be 0")
	}
}

func TestQuantileAgainstExact(t *testing.T) {
	r := NewRecorder()
	// A deterministic skewed sample set: most values small, a heavy
	// tail, mimicking fault-latency distributions.
	var samples []time.Duration
	for i := 0; i < 900; i++ {
		samples = append(samples, time.Duration(40+i%20)*time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		samples = append(samples, time.Duration(100+i*5)*time.Millisecond)
	}
	for _, s := range samples {
		r.Observe("lat", s)
	}
	d := r.Dist("lat")

	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.50, 0.95, 0.99} {
		exact := sorted[int(q*float64(len(sorted)))]
		got := d.Quantile(q)
		relErr := math.Abs(got.Seconds()-exact.Seconds()) / exact.Seconds()
		if relErr > 1.0/8 {
			t.Errorf("Quantile(%.2f) = %v, exact %v (rel err %.3f)", q, got, exact, relErr)
		}
	}
	if d.Quantile(0) != d.Min || d.Quantile(1) != d.Max {
		t.Errorf("extreme quantiles should clamp to Min/Max: %v %v", d.Quantile(0), d.Quantile(1))
	}
}

func TestQuantileSingleSample(t *testing.T) {
	r := NewRecorder()
	r.Observe("one", 42*time.Millisecond)
	d := r.Dist("one")
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := d.Quantile(q); got != 42*time.Millisecond {
			t.Errorf("Quantile(%.2f) = %v, want 42ms", q, got)
		}
	}
}

func TestQuantileClampsToEnvelope(t *testing.T) {
	r := NewRecorder()
	r.Observe("x", 100*time.Millisecond)
	r.Observe("x", 101*time.Millisecond)
	d := r.Dist("x")
	if got := d.Quantile(0.5); got < d.Min || got > d.Max {
		t.Errorf("Quantile(0.5) = %v outside [%v, %v]", got, d.Min, d.Max)
	}
}

func TestObserveZeroAndNegative(t *testing.T) {
	r := NewRecorder()
	r.Observe("z", 0)
	r.Observe("z", -time.Millisecond) // clamped into bucket 0; Min stays exact
	d := r.Dist("z")
	if d.Count != 2 {
		t.Fatalf("Count = %d", d.Count)
	}
	if d.Min != -time.Millisecond {
		t.Errorf("Min = %v", d.Min)
	}
	if got := d.Quantile(0.5); got < d.Min || got > d.Max {
		t.Errorf("Quantile = %v outside envelope", got)
	}
}

// TestSeriesInteriorGaps pins the zero-filling contract: buckets with
// no traffic between the first and last non-empty buckets appear with
// zero bytes (plots must show gaps honestly).
func TestSeriesInteriorGaps(t *testing.T) {
	r := NewRecorder()
	r.AddBytes(500*time.Millisecond, 100, false)
	r.AddBytes(4500*time.Millisecond, 200, true)
	s := r.Series()
	if len(s) != 5 {
		t.Fatalf("Series length = %d, want 5 (buckets 0..4 inclusive)", len(s))
	}
	for i := 1; i <= 3; i++ {
		if s[i].Bytes != 0 || s[i].FaultBytes != 0 {
			t.Errorf("interior bucket %d not zero: %+v", i, s[i])
		}
		if s[i].T != time.Duration(i)*time.Second {
			t.Errorf("interior bucket %d at %v", i, s[i].T)
		}
	}
	if s[0].Bytes != 100 || s[4].Bytes != 200 || s[4].FaultBytes != 200 {
		t.Errorf("endpoint buckets wrong: %+v", s)
	}
}

// TestPeakRateEmpty pins PeakRate's behaviour on a fresh recorder.
func TestPeakRateEmpty(t *testing.T) {
	r := NewRecorder()
	if got := r.PeakRate(); got != 0 {
		t.Errorf("PeakRate on empty recorder = %d, want 0", got)
	}
}

// TestReopenedPhase pins StartPhase/EndPhase reopen semantics: a
// second StartPhase discards the earlier span entirely, and the phase
// is invisible in Phases() while open.
func TestReopenedPhase(t *testing.T) {
	r := NewRecorder()
	r.StartPhase("xfer", 1*time.Second)
	r.EndPhase("xfer", 2*time.Second)
	if got := elapsed(r, "xfer"); got != time.Second {
		t.Fatalf("first span elapsed = %v", got)
	}

	r.StartPhase("xfer", 10*time.Second)
	// While reopened, the phase must not appear closed.
	if got := elapsed(r, "xfer"); got != 0 {
		t.Errorf("reopened phase elapsed = %v, want 0", got)
	}
	if phs := r.Phases(); len(phs) != 0 {
		t.Errorf("reopened phase visible in Phases(): %+v", phs)
	}

	r.EndPhase("xfer", 13*time.Second)
	phs := r.Phases()
	if len(phs) != 1 || phs[0].End-phs[0].Start != 3*time.Second {
		t.Errorf("reopened span = %+v, want one 3s phase", phs)
	}

	// Ending a never-opened phase records a zero-length span.
	r.EndPhase("ghost", 5*time.Second)
	if got := elapsed(r, "ghost"); got != 0 {
		t.Errorf("unopened EndPhase elapsed = %v", got)
	}
	if phs := r.Phases(); len(phs) != 2 {
		t.Errorf("ghost phase missing from Phases(): %+v", phs)
	}
}
