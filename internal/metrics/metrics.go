// Package metrics accumulates the measurements the paper reports:
// bytes exchanged between machines (split into imaginary-fault support
// traffic and everything else, as in Figure 4-5), IPC message-handling
// CPU time (Figure 4-4), and named phase timings
// (packaging, transfer, remote execution).
//
// The package is passive — it never touches the simulation kernel — so
// any layer can record into a shared Recorder without import cycles.
package metrics

import (
	"math/bits"
	"sort"
	"time"
)

// Recorder collects the measurements of one migration trial.
//
// Recorder is single-goroutine by design: the simulation kernel runs
// exactly one Proc at a time (see package sim), so every producer —
// pager, link, NetMsgServer, migration manager — records from what is
// effectively one thread of control, and Recorder uses no locks. A
// Recorder belongs to one trial's kernel: concurrent trials each record
// into their own.
type Recorder struct {
	buckets map[int64]*rateBucket

	bytesTotal uint64
	bytesFault uint64

	msgTime time.Duration

	phases map[string]*Phase
	dists  map[string]*Distribution

	// Downtime accounting: the frozen interval of the most recent
	// migration, from excise-freeze (MarkFreeze) to the first
	// post-insert instruction (MarkResume). Plain field writes — the
	// emission gate is the caller's nil-recorder check, so an
	// uninstrumented run allocates nothing.
	freezeAt time.Duration
	resumeAt time.Duration
	frozen   bool
	resumed  bool
}

// Phase is a named span of virtual time.
type Phase struct {
	Name       string
	Start, End time.Duration
	open       bool
}

type rateBucket struct {
	total uint64
	fault uint64
}

// bucketWidth is the byte-rate series' sampling interval: Figure 4-5
// plots bytes per second.
const bucketWidth = time.Second

// RatePoint is one sample of the byte-rate time series: bytes moved in
// [T, T+1s), split as in Figure 4-5.
type RatePoint struct {
	T          time.Duration
	Bytes      uint64 // all traffic in the bucket
	FaultBytes uint64 // subset carried in support of imaginary faults
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		buckets: make(map[int64]*rateBucket),
		phases:  make(map[string]*Phase),
		dists:   make(map[string]*Distribution),
	}
}

// AddBytes records n bytes crossing the network at virtual time at.
// fault marks traffic carried in support of imaginary fault activity.
func (r *Recorder) AddBytes(at time.Duration, n int, fault bool) {
	if n <= 0 {
		return
	}
	r.bytesTotal += uint64(n)
	idx := int64(at / bucketWidth)
	b := r.buckets[idx]
	if b == nil {
		b = &rateBucket{}
		r.buckets[idx] = b
	}
	b.total += uint64(n)
	if fault {
		r.bytesFault += uint64(n)
		b.fault += uint64(n)
	}
}

// AddMessage records one IPC message whose handling consumed cpu of
// processing time (summed across both endpoints by the caller).
func (r *Recorder) AddMessage(cpu time.Duration) {
	r.msgTime += cpu
}

// Observe records one sample of a named duration distribution (fault
// latencies). Recording is O(1): besides count/sum/min/max the sample
// lands in one log-bucketed histogram cell, from which Quantile
// reconstructs p50/p95/p99 within ~6% relative error.
func (r *Recorder) Observe(name string, v time.Duration) {
	d := r.dists[name]
	if d == nil {
		d = &Distribution{Min: v, Max: v}
		r.dists[name] = d
	}
	d.add(v)
}

// Log-linear histogram layout (HDR-histogram style): values below 8 ns
// get exact unit buckets; above that, each power of two is split into
// 2^histSubBits = 8 sub-buckets, bounding relative error by 1/8.
const histSubBits = 3

// histIndex maps a non-negative sample to its bucket.
func histIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	top := v >> (uint(exp) - histSubBits) // in [8, 15]
	return (1 << histSubBits) + (exp-histSubBits)*(1<<histSubBits) + int(top) - (1 << histSubBits)
}

// histMid is the representative (midpoint) value of bucket idx.
func histMid(idx int) uint64 {
	if idx < 1<<histSubBits {
		return uint64(idx)
	}
	e := (idx - (1 << histSubBits)) / (1 << histSubBits)
	rem := (idx - (1 << histSubBits)) % (1 << histSubBits)
	exp := e + histSubBits
	lo := uint64(rem+(1<<histSubBits)) << (uint(exp) - histSubBits)
	width := uint64(1) << (uint(exp) - histSubBits)
	return lo + width/2
}

// Distribution summarizes observed samples: exact count/sum/min/max
// plus a log-bucketed histogram supporting approximate quantiles.
type Distribution struct {
	Count uint64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration

	hist []uint64
}

func (d *Distribution) add(v time.Duration) {
	d.Count++
	d.Sum += v
	if v < d.Min {
		d.Min = v
	}
	if v > d.Max {
		d.Max = v
	}
	u := uint64(0)
	if v > 0 {
		u = uint64(v)
	}
	idx := histIndex(u)
	if idx >= len(d.hist) {
		grown := make([]uint64, idx+1)
		copy(grown, d.hist)
		d.hist = grown
	}
	d.hist[idx]++
}

// Mean reports the average sample, or zero with no samples.
func (d *Distribution) Mean() time.Duration {
	if d == nil || d.Count == 0 {
		return 0
	}
	return d.Sum / time.Duration(d.Count)
}

// Quantile reports the approximate q-quantile (q in [0, 1]) from the
// histogram: the midpoint of the bucket holding the ceil(q*Count)-th
// smallest sample, clamped to the exact [Min, Max] envelope. Zero with
// no samples.
func (d *Distribution) Quantile(q float64) time.Duration {
	if d == nil || d.Count == 0 {
		return 0
	}
	if q <= 0 {
		return d.Min
	}
	if q >= 1 {
		return d.Max
	}
	rank := uint64(q * float64(d.Count))
	if rank >= d.Count {
		rank = d.Count - 1
	}
	var seen uint64
	for idx, n := range d.hist {
		seen += n
		if seen > rank {
			v := time.Duration(histMid(idx))
			if v < d.Min {
				v = d.Min
			}
			if v > d.Max {
				v = d.Max
			}
			return v
		}
	}
	return d.Max
}

// Dist returns the named distribution, possibly nil.
func (r *Recorder) Dist(name string) *Distribution { return r.dists[name] }

// BytesTotal reports all bytes recorded.
func (r *Recorder) BytesTotal() uint64 { return r.bytesTotal }

// BytesFault reports bytes recorded as imaginary-fault support traffic.
func (r *Recorder) BytesFault() uint64 { return r.bytesFault }

// MessageTime reports total message-handling CPU time.
func (r *Recorder) MessageTime() time.Duration { return r.msgTime }

// MarkFreeze records that a migration froze its process at time at.
// A freeze while the process is already frozen and has not resumed is
// ignored: retry attempts re-freeze without the process ever running
// in between, so the downtime interval must keep the first attempt's
// freeze instant, not the last one's. A freeze after a resume starts a
// new interval, clearing the earlier pair.
func (r *Recorder) MarkFreeze(at time.Duration) {
	if r.frozen && !r.resumed {
		return
	}
	r.freezeAt = at
	r.frozen = true
	r.resumed = false
}

// MarkResume records the first instruction executed after a freeze, at
// time at. Calls with no freeze outstanding (a fresh program start) or
// after a resume has already been recorded are ignored.
func (r *Recorder) MarkResume(at time.Duration) {
	if !r.frozen || r.resumed {
		return
	}
	r.resumeAt = at
	r.resumed = true
}

// Downtime reports the frozen interval of the last freeze/resume pair:
// the time the migrating process executed no instructions anywhere.
// Zero if no migration froze, or if the process never resumed (e.g. a
// destination held stopped by the experiment).
func (r *Recorder) Downtime() time.Duration {
	if !r.frozen || !r.resumed || r.resumeAt < r.freezeAt {
		return 0
	}
	return r.resumeAt - r.freezeAt
}

// StartPhase opens (or reopens) a named phase at time at.
func (r *Recorder) StartPhase(name string, at time.Duration) {
	r.phases[name] = &Phase{Name: name, Start: at, open: true}
}

// EndPhase closes a named phase at time at. Ending an unopened phase
// records a zero-length phase at at, which keeps callers simple.
func (r *Recorder) EndPhase(name string, at time.Duration) {
	p := r.phases[name]
	if p == nil {
		p = &Phase{Name: name, Start: at}
		r.phases[name] = p
	}
	p.End = at
	p.open = false
}

// Phases returns all closed phases sorted by start time.
func (r *Recorder) Phases() []Phase {
	out := make([]Phase, 0, len(r.phases))
	for _, p := range r.phases {
		if !p.open {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Series returns the byte-rate time series with one point per non-empty
// bucket, in time order. Empty interior buckets are included (with zero
// bytes) so plots show gaps honestly.
func (r *Recorder) Series() []RatePoint {
	if len(r.buckets) == 0 {
		return nil
	}
	idxs := make([]int64, 0, len(r.buckets))
	for i := range r.buckets {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	lo, hi := idxs[0], idxs[len(idxs)-1]
	out := make([]RatePoint, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		pt := RatePoint{T: time.Duration(i) * bucketWidth}
		if b := r.buckets[i]; b != nil {
			pt.Bytes = b.total
			pt.FaultBytes = b.fault
		}
		out = append(out, pt)
	}
	return out
}

// PeakRate reports the largest per-bucket byte count, i.e. the peak
// sustained transmission demand (the §4.4.3 "sustained network
// transmission speeds reduced up to 66%" metric).
func (r *Recorder) PeakRate() uint64 {
	var max uint64
	for _, b := range r.buckets {
		if b.total > max {
			max = b.total
		}
	}
	return max
}
