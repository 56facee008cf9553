package disk

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"accentmig/internal/obs"
	"accentmig/internal/sim"
)

func TestReadTiming(t *testing.T) {
	k := sim.New()
	d := New(k, "d0", Config{Seek: 30 * time.Millisecond, BytesPerSecond: 512000})
	var done time.Duration
	k.Go("reader", func(p *sim.Proc) {
		d.Read(p, 512)
		done = p.Now()
	})
	k.Run()
	want := 30*time.Millisecond + time.Millisecond // 512B at 512KB/s = 1ms
	if done != want {
		t.Errorf("read finished at %v, want %v", done, want)
	}
	if d.Reads() != 1 || d.BytesRead() != 512 {
		t.Errorf("stats: reads=%d bytes=%d", d.Reads(), d.BytesRead())
	}
}

func TestArmSerializes(t *testing.T) {
	k := sim.New()
	d := New(k, "d0", Config{Seek: 10 * time.Millisecond, BytesPerSecond: 1 << 20})
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		k.Go("r", func(p *sim.Proc) {
			d.Read(p, 0)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestWriteAsyncDoesNotBlock(t *testing.T) {
	k := sim.New()
	d := New(k, "d0", Config{Seek: 50 * time.Millisecond, BytesPerSecond: 1 << 20})
	var callerDone time.Duration
	k.Go("caller", func(p *sim.Proc) {
		d.WriteAsync(k, 512)
		callerDone = p.Now()
	})
	end := k.Run()
	if callerDone != 0 {
		t.Errorf("caller blocked until %v", callerDone)
	}
	if end < 50*time.Millisecond {
		t.Errorf("write-back never happened (end %v)", end)
	}
	if d.Writes() != 1 {
		t.Errorf("Writes = %d", d.Writes())
	}
}

func TestDefaults(t *testing.T) {
	k := sim.New()
	d := New(k, "d0", Config{})
	if d.cfg.Seek == 0 || d.cfg.BytesPerSecond == 0 {
		t.Error("defaults not applied")
	}
}

// syncWrite blocks p for one write of n bytes: the proc-based write the
// callback write-back replaced, kept as the reference
// TestWriteAsyncMatchesProcReference holds WriteAsync to.
func syncWrite(d *Disk, p *sim.Proc, n int) {
	d.arm.Acquire(p)
	p.Sleep(d.xferTime(n))
	d.arm.Release()
	d.writes++
	d.bytesWrite += uint64(n)
}

func TestBusyTimeAccounting(t *testing.T) {
	k := sim.New()
	d := New(k, "d0", Config{Seek: 20 * time.Millisecond, BytesPerSecond: 1 << 20})
	k.Go("w", func(p *sim.Proc) {
		syncWrite(d, p, 0)
		syncWrite(d, p, 0)
	})
	k.Run()
	if d.BusyTime() != 40*time.Millisecond {
		t.Errorf("BusyTime = %v, want 40ms", d.BusyTime())
	}
}

func TestReadPreemptsWriteBacklog(t *testing.T) {
	// Queue many background writes, then issue a demand read: it must
	// complete after at most one in-flight write, not the whole backlog.
	k := sim.New()
	d := New(k, "d0", Config{Seek: 30 * time.Millisecond, BytesPerSecond: 1 << 20})
	for i := 0; i < 50; i++ {
		d.WriteAsync(k, 512)
	}
	var readDone time.Duration
	k.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		d.Read(p, 512)
		readDone = p.Now()
	})
	k.Run()
	if readDone > 100*time.Millisecond {
		t.Errorf("demand read finished at %v behind the write backlog", readDone)
	}
	if d.Writes() != 50 {
		t.Errorf("writes = %d", d.Writes())
	}
}

// procWriteAsync is the write-back as a proc per write calling
// syncWrite: the reference TestWriteAsyncMatchesProcReference holds the
// callback write-back to.
func procWriteAsync(d *Disk, k *sim.Kernel, n int) {
	k.Go("disk.writeback", func(p *sim.Proc) { syncWrite(d, p, n) })
}

// diskOp is one step of a randomized disk script: after think time, a
// proc issues a burst of background writes, a sync write or a demand
// read; a kernel-context op (proc < 0) issues its burst from an event.
type diskOp struct {
	proc  int
	think time.Duration
	kind  int // 0 WriteAsync burst, 1 syncWrite, 2 Read
	n     int
	burst int
}

// diskScript draws a disk config and a mix of ops over several procs.
// Think times and sizes sit on coarse lattices, so same-instant ties
// between releases, grants, starts and reads are common.
func diskScript(rng *rand.Rand) (Config, int, []diskOp, time.Duration) {
	cfg := Config{
		Seek:           time.Duration(1+rng.Intn(10)) * time.Millisecond,
		BytesPerSecond: 512000 * (1 + rng.Intn(2)),
	}
	procs := 2 + rng.Intn(4)
	var ops []diskOp
	for i := 0; i < 8+rng.Intn(32); i++ {
		ops = append(ops, diskOp{
			proc:  rng.Intn(procs+1) - 1,
			think: time.Duration(rng.Intn(6)) * time.Millisecond,
			kind:  rng.Intn(3),
			n:     512 * rng.Intn(4),
			burst: 1 + rng.Intn(4),
		})
	}
	var step time.Duration // nonzero: run in RunUntil windows of this size
	if rng.Intn(2) == 0 {
		step = time.Duration(1+rng.Intn(7)) * time.Millisecond
	}
	return cfg, procs, ops, step
}

// diskRun is everything observable about one run of a script.
type diskRun struct {
	Done       [][]time.Duration // per proc, completion time of each op
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrite uint64
	Busy       time.Duration
	Acquires   uint64
	Waits      []time.Duration // wait-observer delays in order
	QueueWaits []obs.Event     // flight-recorder queue waits
	End        time.Duration
}

func runDiskScript(cfg Config, procs int, ops []diskOp, step time.Duration, writeAsync func(*Disk, *sim.Kernel, int)) diskRun {
	k := sim.New()
	sink := obs.NewMemorySink()
	k.SetSink(sink)
	d := New(k, "m", cfg)
	var out diskRun
	d.arm.SetWaitObserver(func(w time.Duration) { out.Waits = append(out.Waits, w) })
	out.Done = make([][]time.Duration, procs)
	var at time.Duration
	for _, op := range ops {
		if op.proc >= 0 {
			continue
		}
		at += op.think
		op := op
		k.Schedule(at, func() {
			for i := 0; i < op.burst; i++ {
				writeAsync(d, k, op.n)
			}
		})
	}
	for i := 0; i < procs; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for _, op := range ops {
				if op.proc != i {
					continue
				}
				p.Sleep(op.think)
				switch op.kind {
				case 0:
					for j := 0; j < op.burst; j++ {
						writeAsync(d, k, op.n)
					}
				case 1:
					syncWrite(d, p, op.n)
				case 2:
					d.Read(p, op.n)
				}
				out.Done[i] = append(out.Done[i], p.Now())
			}
		})
	}
	if step > 0 {
		for !k.Idle() {
			k.RunUntil(k.Now() + step)
		}
	} else {
		k.Run()
	}
	out.Reads, out.Writes = d.Reads(), d.Writes()
	out.BytesRead, out.BytesWrite = d.BytesRead(), d.BytesWritten()
	out.Busy, out.Acquires = d.BusyTime(), d.arm.Acquires()
	for _, ev := range sink.Events() {
		if ev.Kind == obs.QueueWait {
			out.QueueWaits = append(out.QueueWaits, ev)
		}
	}
	out.End = k.Now()
	k.Close()
	return out
}

// TestWriteAsyncMatchesProcReference is the differential test for the
// callback write-back: over randomized mixes of background writes,
// sync writes and high-priority demand reads from several procs (and
// from kernel events, some runs inside RunUntil windows), it must match
// the proc-per-write reference in every completion time, every counter,
// the arm's busy time and acquisitions, and every queueing delay the
// wait observer and the flight recorder see.
func TestWriteAsyncMatchesProcReference(t *testing.T) {
	waited := map[string]int{} // runs in which each kind of waiter queued
	for seed := int64(0); seed < 300; seed++ {
		cfg, procs, ops, step := diskScript(rand.New(rand.NewSource(seed)))
		got := runDiskScript(cfg, procs, ops, step, (*Disk).WriteAsync)
		want := runDiskScript(cfg, procs, ops, step, procWriteAsync)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: callback write-back diverges from the proc reference\ngot  %+v\nwant %+v", seed, got, want)
		}
		seen := map[string]bool{}
		for _, ev := range got.QueueWaits {
			seen[ev.Proc] = true
		}
		for who := range seen {
			waited[who]++
		}
	}
	// The mixes must contend: background writes and demand reads alike
	// have to queue for the arm in a good share of the runs.
	if waited["disk.writeback"] < 100 || waited["p0"] < 50 {
		t.Errorf("too little contention to compare: runs with queued waiters %v", waited)
	}
}
