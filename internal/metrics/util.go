package metrics

import (
	"sort"
	"time"
)

// Utilization is a set of per-resource, time-bucketed gauges: for each
// named resource (a CPU, a link, a backer queue) it accumulates busy
// time and queued-waiting time per fixed-width bucket, from which
// busy-fraction and mean-queue-depth timelines fall out. It is passive
// like the rest of this package: producers (the profiler, replaying a
// flight-recorder stream) add clipped spans; nothing here touches the
// simulation kernel.
type Utilization struct {
	bucket time.Duration
	tracks map[string]*UtilTrack
}

// UtilTrack is one resource's timeline. Busy[i] is held-time inside
// bucket i ([i*bucket, (i+1)*bucket)); Wait[i] is the summed waiting
// time of queued procs in the bucket, so Wait[i]/bucket is the mean
// queue depth over the bucket.
type UtilTrack struct {
	Resource string
	Busy     []time.Duration
	Wait     []time.Duration
}

// NewUtilization returns an empty recorder with the given bucket width
// (<= 0 selects one second).
func NewUtilization(bucket time.Duration) *Utilization {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &Utilization{bucket: bucket, tracks: make(map[string]*UtilTrack)}
}

// Bucket reports the bucket width.
func (u *Utilization) Bucket() time.Duration { return u.bucket }

// track finds or creates the named track.
func (u *Utilization) track(resource string) *UtilTrack {
	t := u.tracks[resource]
	if t == nil {
		t = &UtilTrack{Resource: resource}
		u.tracks[resource] = t
	}
	return t
}

// grow extends s so index i exists.
func grow(s []time.Duration, i int) []time.Duration {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// add distributes the span [start, end) over the buckets it crosses.
func (u *Utilization) add(resource string, start, end time.Duration, busy bool) {
	if end <= start || start < 0 {
		return
	}
	t := u.track(resource)
	for cur := start; cur < end; {
		i := int(cur / u.bucket)
		edge := time.Duration(i+1) * u.bucket
		if edge > end {
			edge = end
		}
		if busy {
			t.Busy = grow(t.Busy, i)
			t.Busy[i] += edge - cur
		} else {
			t.Wait = grow(t.Wait, i)
			t.Wait[i] += edge - cur
		}
		cur = edge
	}
}

// AddBusy accumulates one held span [start, end) for the resource.
func (u *Utilization) AddBusy(resource string, start, end time.Duration) {
	u.add(resource, start, end, true)
}

// AddWait accumulates one queued-waiting span [start, end) for the
// resource (one waiter's wait; overlapping waiters sum into depth).
func (u *Utilization) AddWait(resource string, start, end time.Duration) {
	u.add(resource, start, end, false)
}

// Track returns the named track, possibly nil.
func (u *Utilization) Track(resource string) *UtilTrack { return u.tracks[resource] }

// Tracks lists all tracks sorted by resource name.
func (u *Utilization) Tracks() []*UtilTrack {
	names := make([]string, 0, len(u.tracks))
	for n := range u.tracks {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*UtilTrack, len(names))
	for i, n := range names {
		out[i] = u.tracks[n]
	}
	return out
}

// BusyFrac reports bucket i's busy fraction in [0, 1] (for a capacity-1
// resource; multi-unit resources can exceed 1).
func (t *UtilTrack) BusyFrac(bucket time.Duration, i int) float64 {
	if t == nil || i < 0 || i >= len(t.Busy) || bucket <= 0 {
		return 0
	}
	return float64(t.Busy[i]) / float64(bucket)
}
