package experiments

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"time"

	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/xrand"
)

// Shard-stress scenario: a 16-64 machine cluster with a live process
// population — arrivals, CPU-bound programs, and concurrent migrations
// whose transfers and residual fetches contend for per-machine wires
// and backer service. It is the proving ground for the sharded kernel
// (sim.Cluster): the same scenario runs on one shared kernel
// (Shards <= 1, the sequential code path verbatim) or with one event
// lane per machine under conservative lookahead sync, and the results
// must be byte-identical.
//
// The identity rests on the tie-free lattice discipline (see
// netlink.Iface): every local duration in the scenario — compute
// bursts, IO waits, daemon ticks, CPU costs — is a whole number of
// microseconds, the wire moves exactly one byte per microsecond, and
// cross-machine deliveries land at latency plus a per-sender
// sub-microsecond skew. Receivers re-align to the microsecond lattice
// immediately after every receive (snapLattice), so no two events that
// touch the same machine ever share a virtual nanosecond, and the heap
// time-order alone fixes the schedule in both execution modes.
const (
	ssLattice = time.Microsecond

	// ssPage/ssFramePages: transfers ship the frozen image in 8-page
	// frames; every frame and control message carries a 64-byte header.
	ssPage       = 512
	ssFramePages = 8
	ssHdrBytes   = 64
	ssCtrlBytes  = 64

	ssExciseBase    = 2 * time.Millisecond
	ssExcisePerPage = 10 * time.Microsecond
	ssInsertBase    = 2 * time.Millisecond
	ssInsertPerPage = 10 * time.Microsecond
	ssServeFetchCPU = 200 * time.Microsecond
	ssFetchReply    = ssHdrBytes + ssPage

	// ssInflightCap bounds concurrent inbound migrations per machine;
	// offers beyond it are rejected.
	ssInflightCap = 2
	// ssFetches is the number of residual page fetches a migrated
	// process performs against its source's backer before resuming.
	ssFetches = 8

	// ssGrace keeps control daemons and backers serving after the
	// migration horizon so every in-flight transfer and residual fetch
	// drains; it is far beyond any plausible tail, and the invariant
	// Completed == Accepted - Cancelled (checked in tests) would expose
	// a wedge deterministically if it ever were not.
	ssGrace = 60 * time.Second
)

// ssLinkCfg is the interface configuration all scenario machines share:
// 1 MB/s puts one byte at exactly one lattice unit of wire time, and
// the 5 ms latency is the cluster lookahead.
var ssLinkCfg = netlink.Config{Latency: 5 * time.Millisecond, BytesPerSecond: 1_000_000}

// ShardStressOptions parameterizes the scenario. The zero value selects
// a 16-machine cluster on the sequential kernel.
type ShardStressOptions struct {
	// Machines is the cluster size (default 16).
	Machines int
	// Shards selects the execution mode: <= 1 runs every machine on one
	// shared sequential kernel; >= 2 gives each machine its own event
	// lane and runs them on Shards workers. The result is identical
	// either way; only wall-clock differs.
	Shards int
	// Span is the arrival/migration horizon: processes arrive over the
	// first three quarters of it and migration daemons stop offering at
	// its end (default 20s).
	Span time.Duration
	// ArrivalEvery is the mean process inter-arrival time per machine
	// (default 400ms).
	ArrivalEvery time.Duration
	// ProcOps is the number of compute/IO ops per process program
	// (default 120).
	ProcOps int
	// Seed perturbs every per-machine decision stream (default 1987).
	Seed uint64
}

func (o ShardStressOptions) withDefaults() ShardStressOptions {
	if o.Machines == 0 {
		o.Machines = 16
	}
	if o.Span == 0 {
		o.Span = 20 * time.Second
	}
	if o.ArrivalEvery == 0 {
		o.ArrivalEvery = 400 * time.Millisecond
	}
	if o.ProcOps == 0 {
		o.ProcOps = 120
	}
	if o.Seed == 0 {
		o.Seed = 1987
	}
	return o
}

// ShardMigRecord is one completed migration, fully determined by the
// simulation (virtual times only — nothing host- or mode-dependent).
type ShardMigRecord struct {
	Name       string
	Src, Dst   int
	Bytes      int
	OfferAt    time.Duration
	FreezeAt   time.Duration
	ResumeAt   time.Duration
	FetchStall time.Duration
}

// ShardMachineStats is one machine's deterministic accounting.
type ShardMachineStats struct {
	Name     string
	CPUBusy  time.Duration
	WireBusy time.Duration
	BytesOut uint64
	Spawned  int
	Finished int
	Out, In  int
}

// ShardStressResult is everything the scenario measures inside the
// simulation. It is the byte-identity surface: a sharded run at any
// worker count must DeepEqual the sequential run. Host-side figures
// (wall clock, event counts, barrier stalls) live in ShardStressPerf.
type ShardStressResult struct {
	Machines  int
	Spawned   int
	Finished  int
	Offers    int
	Accepted  int
	Rejected  int
	Cancelled int
	Completed int

	BytesOnWire uint64
	Frames      uint64

	DownP50, DownP99, DownMax time.Duration // freeze -> resume
	MigP50, MigP99            time.Duration // offer -> resume
	FetchStallMean            time.Duration

	PerMachine []ShardMachineStats
	Migrations []ShardMigRecord
}

// ShardStressPerf is the host-side measurement of one run: how fast the
// kernel(s) chewed through the event load. Everything here depends on
// the machine and worker count and must stay out of the result proper.
type ShardStressPerf struct {
	Sharded     bool
	Workers     int
	Wall        time.Duration
	Events      uint64
	Windows     uint64
	CrossEvents uint64
	StallPct    float64 // barrier stall, sharded runs only
}

// ssKind discriminates scenario control messages.
type ssKind uint8

const (
	ssOffer ssKind = iota
	ssAccept
	ssReject
	ssCancel
	ssCommit
	ssFetchReq
)

// ssMig is a migration descriptor. The source fills it in before each
// send; the destination only reads it, and the window barrier orders
// those accesses, so the pointer may safely cross lanes.
type ssMig struct {
	name       string
	src, dst   int
	program    *trace.Program
	pc         int
	imageBytes int
	offerAt    time.Duration
	freezeAt   time.Duration
}

// ssFetch is one residual-fetch request: the requester's machine index
// plus its reply queue (owned by the requester's lane; the backer only
// passes the pointer back into a delivery closure).
type ssFetch struct {
	from  int
	reply *sim.Queue[int]
}

type ssMsg struct {
	kind  ssKind
	src   int
	mig   *ssMig
	fetch *ssFetch
}

// ssNode is one machine plus its scenario state. All fields are owned
// by the machine's lane.
type ssNode struct {
	idx      int
	m        *machine.Machine
	iface    *netlink.Iface
	inbox    *sim.Queue[ssMsg] // control plane: offers, replies, commits
	backq    *sim.Queue[ssMsg] // residual-fetch service
	rng      *xrand.RNG        // migration decisions
	spawnRNG *xrand.RNG        // arrivals and program shapes

	inflightIn int
	spawned    int
	offers     int
	accepted   int
	rejects    int
	cancels    int
	outMigs    int
	inMigs     int
	records    []ShardMigRecord
}

// ssState is the cluster-wide scenario context. Nodes only read the
// shared fields (and other nodes' iface/inbox pointers, which are
// lane-safe hand-off points).
type ssState struct {
	opts        ShardStressOptions
	nodes       []*ssNode
	span        time.Duration
	arriveUntil time.Duration
	stopAt      time.Duration
}

// snapLattice re-aligns a proc to the whole-microsecond lattice after a
// skewed cross-machine delivery woke it, restoring the scenario's
// no-ties invariant for all downstream local work.
func snapLattice(p *sim.Proc) {
	if r := p.Now() % ssLattice; r != 0 {
		p.Sleep(ssLattice - r)
	}
}

// ssImageBytes derives a process's frozen-image size from its name: a
// pure function, so source and destination agree without shared state.
// Images span 8..64 frames (32..256 KB).
func ssImageBytes(name string) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	frames := 8 + int(h.Sum64()%57)
	return frames * ssFramePages * ssPage
}

// ssProgram builds a process's reference program: alternating compute
// bursts and IO waits, all whole microseconds.
func ssProgram(rng *xrand.RNG, ops int) *trace.Program {
	prog := &trace.Program{}
	for i := 0; i < ops; i++ {
		prog.Ops = append(prog.Ops,
			trace.Compute{D: time.Duration(200+rng.Intn(1800)) * time.Microsecond},
			trace.IOWait{D: time.Duration(100+rng.Intn(900)) * time.Microsecond},
		)
	}
	return prog
}

// sendCtrl ships a control message to dst's inbox.
func (n *ssNode) sendCtrl(p *sim.Proc, dst *ssNode, msg ssMsg) {
	inbox := dst.inbox
	n.iface.Send(p, dst.iface, ssCtrlBytes, func() { inbox.Push(msg) })
}

// spawner admits new processes at randomized intervals over the first
// three quarters of the span.
func (n *ssNode) spawner(p *sim.Proc, s *ssState) {
	jitter := int(s.opts.ArrivalEvery / ssLattice * 2)
	for {
		p.Sleep(time.Duration(1+n.spawnRNG.Intn(jitter)) * ssLattice)
		if p.Now() >= s.arriveUntil {
			return
		}
		name := fmt.Sprintf("m%02d.p%03d", n.idx, n.spawned)
		pr, err := n.m.NewProcess(name, 0)
		if err != nil {
			panic(err) // names are globally unique by construction
		}
		pr.Program = ssProgram(n.spawnRNG, s.opts.ProcOps)
		n.m.Start(pr)
		n.spawned++
	}
}

// tickDelay spaces a daemon's migration decisions.
func (n *ssNode) tickDelay() time.Duration {
	return 200*time.Millisecond + time.Duration(n.rng.Intn(400_000))*ssLattice
}

// daemon is the machine's migration control plane: it periodically
// offers one resident process to a random peer, and serves inbound
// offers, commits, and cancels. After the span it stops offering but
// keeps serving through the grace period so in-flight work drains.
func (n *ssNode) daemon(p *sim.Proc, s *ssState) {
	nextTick := p.Now() + n.tickDelay()
	for {
		now := p.Now()
		if now >= s.stopAt {
			return
		}
		var wait time.Duration
		if now < s.span {
			if now >= nextTick {
				n.maybeMigrate(p, s)
				nextTick = p.Now() + n.tickDelay()
				continue
			}
			wait = nextTick - now
		} else {
			wait = s.stopAt - now
		}
		msg, ok := n.inbox.PopTimeout(p, wait)
		if !ok {
			continue
		}
		snapLattice(p)
		n.handle(p, s, msg)
	}
}

// handle serves one inbound control message. It must never block on a
// peer (replies are fire-and-forget sends), which keeps the offer
// handshake deadlock-free: a daemon waiting for its own reply keeps
// serving its inbox meanwhile.
func (n *ssNode) handle(p *sim.Proc, s *ssState, msg ssMsg) {
	switch msg.kind {
	case ssOffer:
		from := s.nodes[msg.src]
		if p.Now() >= s.span || n.inflightIn >= ssInflightCap {
			n.rejects++
			n.sendCtrl(p, from, ssMsg{kind: ssReject, src: n.idx, mig: msg.mig})
			return
		}
		n.inflightIn++
		n.accepted++
		n.sendCtrl(p, from, ssMsg{kind: ssAccept, src: n.idx, mig: msg.mig})
	case ssCancel:
		n.inflightIn--
	case ssCommit:
		n.inflightIn--
		n.insert(p, s, msg.mig)
	default:
		panic(fmt.Sprintf("shardstress: machine %d: unexpected %d in control inbox", n.idx, msg.kind))
	}
}

// maybeMigrate runs one outbound migration attempt end to end: pick a
// victim and a destination, offer, and on acceptance freeze, excise,
// transfer, and commit. While waiting for the offer reply the daemon
// keeps serving other inbound traffic.
func (n *ssNode) maybeMigrate(p *sim.Proc, s *ssState) {
	var cands []*machine.Process
	for _, nm := range n.m.ProcNames() {
		if pr, ok := n.m.Process(nm); ok && pr.Status == machine.Running {
			cands = append(cands, pr)
		}
	}
	if len(cands) == 0 {
		return
	}
	victim := cands[n.rng.Intn(len(cands))]
	dst := n.rng.Intn(len(s.nodes) - 1)
	if dst >= n.idx {
		dst++
	}
	mig := &ssMig{
		name:       victim.Name,
		src:        n.idx,
		dst:        dst,
		imageBytes: ssImageBytes(victim.Name),
		offerAt:    p.Now(),
	}
	n.offers++
	n.sendCtrl(p, s.nodes[dst], ssMsg{kind: ssOffer, src: n.idx, mig: mig})
	for {
		msg := n.inbox.Pop(p)
		snapLattice(p)
		if msg.mig == mig && (msg.kind == ssAccept || msg.kind == ssReject) {
			if msg.kind == ssReject {
				return
			}
			break
		}
		n.handle(p, s, msg)
	}
	n.transfer(p, s, victim, mig)
}

// transfer freezes the accepted victim and ships it: preempt at an op
// boundary, pay the excise CPU cost, stream the image in frames, then
// commit. If the victim finished before stopping, the reserved slot is
// cancelled instead.
func (n *ssNode) transfer(p *sim.Proc, s *ssState, victim *machine.Process, mig *ssMig) {
	dst := s.nodes[mig.dst]
	n.m.RequestPreempt(victim)
	if !n.m.WaitStopped(p, victim) {
		n.cancels++
		n.sendCtrl(p, dst, ssMsg{kind: ssCancel, src: n.idx, mig: mig})
		return
	}
	mig.freezeAt = p.Now()
	pages := mig.imageBytes / ssPage
	n.m.CPU.UseHigh(p, ssExciseBase+time.Duration(pages)*ssExcisePerPage)
	mig.program = victim.Program
	mig.pc = victim.PC
	n.m.Remove(victim.Name)
	n.outMigs++
	for sent := 0; sent < mig.imageBytes; sent += ssFramePages * ssPage {
		chunk := ssFramePages * ssPage
		if rest := mig.imageBytes - sent; rest < chunk {
			chunk = rest
		}
		n.iface.Send(p, dst.iface, ssHdrBytes+chunk, func() {})
	}
	n.sendCtrl(p, dst, ssMsg{kind: ssCommit, src: n.idx, mig: mig})
}

// insert lands a committed migration: pay the insert CPU cost, rebuild
// the process, then hand off to a warm-up proc that performs the
// residual fetches against the source's backer before resuming the
// body. Frames and the commit arrive in send order (one sender, one
// wire), so the image is fully here by commit time.
func (n *ssNode) insert(p *sim.Proc, s *ssState, mig *ssMig) {
	n.inMigs++
	pages := mig.imageBytes / ssPage
	n.m.CPU.UseHigh(p, ssInsertBase+time.Duration(pages)*ssInsertPerPage)
	pr, err := n.m.NewProcess(mig.name, 0)
	if err != nil {
		panic(err)
	}
	pr.Program = mig.program
	pr.PC = mig.pc
	src := s.nodes[mig.src]
	n.m.K.Go(mig.name+".warm", func(wp *sim.Proc) {
		replyQ := sim.NewQueue[int](n.m.K)
		var stall time.Duration
		for i := 0; i < ssFetches; i++ {
			t0 := wp.Now()
			f := &ssFetch{from: n.idx, reply: replyQ}
			backq := src.backq
			req := ssMsg{kind: ssFetchReq, src: n.idx, fetch: f}
			n.iface.Send(wp, src.iface, ssCtrlBytes, func() { backq.Push(req) })
			replyQ.Pop(wp)
			snapLattice(wp)
			stall += wp.Now() - t0
		}
		n.m.Start(pr)
		n.records = append(n.records, ShardMigRecord{
			Name:       mig.name,
			Src:        mig.src,
			Dst:        mig.dst,
			Bytes:      mig.imageBytes,
			OfferAt:    mig.offerAt,
			FreezeAt:   mig.freezeAt,
			ResumeAt:   wp.Now(),
			FetchStall: stall,
		})
	})
}

// backer serves residual-fetch requests against this machine's frozen
// images: a little CPU per request, then the page ships back on this
// machine's wire.
func (n *ssNode) backer(p *sim.Proc, s *ssState) {
	for {
		now := p.Now()
		if now >= s.stopAt {
			return
		}
		msg, ok := n.backq.PopTimeout(p, s.stopAt-now)
		if !ok {
			return
		}
		snapLattice(p)
		n.m.CPU.UseHigh(p, ssServeFetchCPU)
		req := msg.fetch
		tgt := s.nodes[req.from]
		reply := req.reply
		n.iface.Send(p, tgt.iface, ssFetchReply, func() { reply.Push(1) })
	}
}

// RunShardStress executes the scenario and returns the deterministic
// result plus the host-side performance figures for this run.
func RunShardStress(o ShardStressOptions) (*ShardStressResult, *ShardStressPerf, error) {
	o = o.withDefaults()
	sharded := o.Shards > 1
	var cl *sim.Cluster
	kernels := make([]*sim.Kernel, o.Machines)
	if sharded {
		cl = sim.NewCluster(o.Machines, ssLinkCfg.Latency)
		defer cl.Close()
		for i := range kernels {
			kernels[i] = cl.Lane(i)
		}
	} else {
		k := sim.New()
		defer k.Close()
		for i := range kernels {
			kernels[i] = k
		}
	}

	s := &ssState{
		opts:        o,
		nodes:       make([]*ssNode, o.Machines),
		span:        o.Span,
		arriveUntil: o.Span * 3 / 4,
		stopAt:      o.Span + ssGrace,
	}
	// Sharded, every kernel object of a machine lives on its own lane,
	// so it touches no other lane's state; cross-machine traffic goes
	// through the lane-aware netlink.Iface.
	for i := range s.nodes {
		name := fmt.Sprintf("m%02d", i)
		s.nodes[i] = &ssNode{
			idx:      i,
			m:        machine.New(kernels[i], name, machine.Config{}),
			iface:    netlink.NewIface(cl, kernels[i], i, name+".net", ssLinkCfg),
			inbox:    sim.NewQueue[ssMsg](kernels[i]),
			backq:    sim.NewQueue[ssMsg](kernels[i]),
			rng:      xrand.New(o.Seed ^ uint64(i)*0x9e3779b97f4a7c15),
			spawnRNG: xrand.New(o.Seed ^ 0xa5a5a5a5 ^ uint64(i)*0x100000001b3),
		}
	}
	for _, n := range s.nodes {
		n := n
		n.m.K.Go(n.m.Name+".spawn", func(p *sim.Proc) { n.spawner(p, s) })
		n.m.K.Go(n.m.Name+".migd", func(p *sim.Proc) { n.daemon(p, s) })
		n.m.K.Go(n.m.Name+".backer", func(p *sim.Proc) { n.backer(p, s) })
	}

	start := time.Now()
	if sharded {
		cl.Run(o.Shards)
	} else {
		kernels[0].Run()
	}
	wall := time.Since(start)

	res := &ShardStressResult{Machines: o.Machines}
	var downs, migLats, stalls []time.Duration
	for _, n := range s.nodes {
		finished := 0
		for _, nm := range n.m.ProcNames() {
			if pr, ok := n.m.Process(nm); ok && pr.Status == machine.Finished {
				finished++
			}
		}
		res.Spawned += n.spawned
		res.Finished += finished
		res.Offers += n.offers
		res.Accepted += n.accepted
		res.Rejected += n.rejects
		res.Cancelled += n.cancels
		res.Completed += len(n.records)
		res.BytesOnWire += n.iface.Bytes()
		res.Frames += n.iface.Frames()
		res.PerMachine = append(res.PerMachine, ShardMachineStats{
			Name:     n.m.Name,
			CPUBusy:  n.m.CPU.BusyTime(),
			WireBusy: n.iface.BusyTime(),
			BytesOut: n.iface.Bytes(),
			Spawned:  n.spawned,
			Finished: finished,
			Out:      n.outMigs,
			In:       n.inMigs,
		})
		res.Migrations = append(res.Migrations, n.records...)
	}
	sort.Slice(res.Migrations, func(i, j int) bool {
		a, b := &res.Migrations[i], &res.Migrations[j]
		if a.FreezeAt != b.FreezeAt {
			return a.FreezeAt < b.FreezeAt
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Name < b.Name
	})
	for _, r := range res.Migrations {
		downs = append(downs, r.ResumeAt-r.FreezeAt)
		migLats = append(migLats, r.ResumeAt-r.OfferAt)
		stalls = append(stalls, r.FetchStall)
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i] < downs[j] })
	sort.Slice(migLats, func(i, j int) bool { return migLats[i] < migLats[j] })
	res.DownP50 = ssQuantile(downs, 0.50)
	res.DownP99 = ssQuantile(downs, 0.99)
	if len(downs) > 0 {
		res.DownMax = downs[len(downs)-1]
	}
	res.MigP50 = ssQuantile(migLats, 0.50)
	res.MigP99 = ssQuantile(migLats, 0.99)
	if len(stalls) > 0 {
		var sum time.Duration
		for _, d := range stalls {
			sum += d
		}
		res.FetchStallMean = sum / time.Duration(len(stalls))
	}

	perf := &ShardStressPerf{Sharded: sharded, Workers: 1, Wall: wall}
	if sharded {
		perf.Workers = o.Shards
		perf.Events = cl.EventsRun()
		st := cl.Stats()
		perf.Windows = st.Windows
		perf.CrossEvents = st.CrossEvents
		perf.StallPct = st.BarrierStall() * 100
	} else {
		perf.Events = kernels[0].EventsRun()
	}
	return res, perf, nil
}

// FormatShardLanes renders the per-machine (equivalently, per-lane)
// utilization of a shard-stress run: each machine's deterministic CPU
// and wire busy fractions over the scenario horizon and its share of
// the migration traffic. The figures come from the byte-identity
// surface, so the table is the same in both execution modes — it shows
// how evenly the load spreads across lanes, not how the host scheduled
// them.
func FormatShardLanes(o ShardStressOptions, r *ShardStressResult) string {
	o = o.withDefaults()
	horizon := (o.Span + ssGrace).Seconds()
	var b strings.Builder
	fmt.Fprintf(&b, "Per-lane utilization over the %v horizon (deterministic):\n", o.Span+ssGrace)
	fmt.Fprintf(&b, "%-6s %6s %6s %10s %6s %7s %4s %4s\n",
		"lane", "cpu%", "wire%", "bytesOut", "spawn", "finish", "out", "in")
	for _, pm := range r.PerMachine {
		fmt.Fprintf(&b, "%-6s %5.1f%% %5.1f%% %10d %6d %7d %4d %4d\n",
			pm.Name, 100*pm.CPUBusy.Seconds()/horizon, 100*pm.WireBusy.Seconds()/horizon,
			pm.BytesOut, pm.Spawned, pm.Finished, pm.Out, pm.In)
	}
	return b.String()
}

// ssQuantile reads a quantile from an ascending slice.
func ssQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ShardStress runs the experiment behind `migsim -exp shardstress`: the
// deterministic scenario table at two cluster scales, followed by a
// sequential-vs-sharded comparison at the base scale that verifies
// byte-identity and reports each kernel's event count and the sharded
// run's windows and cross-lane events. The base scale's sequential run
// serves both its table row and the comparison, so the experiment
// simulates three scenarios, and it returns that run's result beside
// the text, for the per-lane table (FormatShardLanes). Its output
// depends on its argument alone: host timings are the benchmark's to
// measure (bench/, workload cluster-32).
func ShardStress(shards int) (string, *ShardStressResult, error) {
	if shards < 2 {
		shards = 4
	}
	seqRes, seqPerf, err := RunShardStress(ShardStressOptions{Shards: 1})
	if err != nil {
		return "", nil, err
	}
	wide, _, err := RunShardStress(ShardStressOptions{Machines: 32})
	if err != nil {
		return "", nil, err
	}
	shRes, shPerf, err := RunShardStress(ShardStressOptions{Shards: shards})
	if err != nil {
		return "", nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Shard-stress: many-machine migration load (lookahead %v, arrivals + concurrent migrations)\n\n", ssLinkCfg.Latency)
	fmt.Fprintf(&b, "%-9s %7s %7s %7s %7s %7s %10s %10s %10s %10s\n",
		"machines", "procs", "offers", "migs", "reject", "cancel", "downP50", "downP99", "migP50", "fetchstall")
	for _, r := range []*ShardStressResult{seqRes, wide} {
		fmt.Fprintf(&b, "%-9d %7d %7d %7d %7d %7d %10v %10v %10v %10v\n",
			r.Machines, r.Spawned, r.Offers, r.Completed, r.Rejected, r.Cancelled,
			r.DownP50, r.DownP99, r.MigP50, r.FetchStallMean)
	}
	identical := reflect.DeepEqual(seqRes, shRes)
	fmt.Fprintf(&b, "\nExecution modes at %d machines:\n", seqRes.Machines)
	fmt.Fprintf(&b, "  sequential kernel: %d events\n", seqPerf.Events)
	fmt.Fprintf(&b, "  %d-worker lanes:    %d events, %d windows, %d cross events\n",
		shPerf.Workers, shPerf.Events, shPerf.Windows, shPerf.CrossEvents)
	fmt.Fprintf(&b, "  sharded result byte-identical to sequential: %v\n", identical)
	if !identical {
		return "", nil, fmt.Errorf("shardstress: sharded result diverges from sequential kernel")
	}
	return b.String(), seqRes, nil
}
