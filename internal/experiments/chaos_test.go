package experiments

import (
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/obs"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// TestChaosSmoke is the bounded chaos campaign `go test` runs: a few
// dozen randomized fault plans across strategy × window × dedup
// scenarios, every trial checked against the chaos invariants. Any
// violation fails with the shrunk minimal reproducer in the message.
func TestChaosSmoke(t *testing.T) {
	rep, err := Default.Chaos(Config{}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated+rep.Aborted == 0 {
		t.Fatal("chaos campaign reached no outcomes at all")
	}
	for _, v := range rep.Violations {
		t.Errorf("seed %d %s: %s — %s\n  minimal plan: %s",
			v.Seed, v.Scenario, v.Invariant, v.Detail, v.PlanJSON)
	}
}

// countSink counts events. It takes no lock: the race detector catches
// two workers emitting into it at once.
type countSink struct{ n int }

func (s *countSink) Emit(obs.Event) { s.n++ }

// TestChaosTraces: a campaign under a sink records its trials on one
// worker and reports exactly what it reports untraced.
func TestChaosTraces(t *testing.T) {
	want, err := NewEngine(2).Chaos(Config{}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	got, err := NewEngine(2).Chaos(Config{Sink: sink}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Error("a traced campaign emitted no events")
	}
	if g, w := FormatChaos(got), FormatChaos(want); g != w {
		t.Errorf("traced report differs:\n%s\nuntraced:\n%s", g, w)
	}
}

// TestChaosDeterministic pins the campaign's replay contract: the same
// campaign seed must produce the identical report regardless of worker
// pool size, exactly like the resilience sweep.
func TestChaosDeterministic(t *testing.T) {
	render := func(workers int) string {
		t.Helper()
		rep, err := NewEngine(workers).Chaos(Config{}, 12, 7)
		if err != nil {
			t.Fatalf("Chaos(workers=%d): %v", workers, err)
		}
		return FormatChaos(rep)
	}
	if par, seq := render(0), render(1); par != seq {
		t.Errorf("parallel and sequential chaos campaigns differ:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// TestChaosSentinelShrinksOrphanedIOU proves the orphaned-IOU bug
// class is catchable end to end: a fault plan that genuinely orphans
// pages (a source-backer crash under the zero-fill policy) buried in
// irrelevant noise elements must be detected by the invariant evidence
// and shrunk to the single load-bearing element. This is the shape a
// real regression would take — a campaign seed goes red, and the
// shrinker hands back a one-element reproducer.
func TestChaosSentinelShrinksOrphanedIOU(t *testing.T) {
	cfg := Config{}
	cfg.Machine.Pager.Orphan = pager.OrphanZeroFill
	full := &faults.Plan{
		Seed:     3,
		DropProb: 0.05, // noise: survivable loss
		Bursts: []faults.Burst{{ // noise: a burst the transfer outlives
			Window:   faults.Window{Start: faults.Duration(2 * time.Second), End: faults.Duration(4 * time.Second)},
			DropProb: 0.9,
		}},
		Crashes: []faults.Crash{{ // the bug: orphaned IOUs zero-fill
			Machine: "src", AtPhase: "remote", Policy: faults.CrashZeroFill,
		}},
	}
	cfg.Recovery = &ResilienceOptions{MaxRetries: 2, Degrade: false, AckTimeout: 15 * time.Minute}
	recheck := func(p *faults.Plan) string {
		c := cfg
		c.Faults = p
		out, err := RunResilienceTrial(c, resilienceKind, core.PureIOU)
		if err != nil {
			return "trial-error"
		}
		if out.ZeroFills > 0 {
			return "orphaned-iou"
		}
		return ""
	}
	if got := recheck(full); got != "orphaned-iou" {
		t.Fatalf("sentinel plan produced %q, want orphaned-iou", got)
	}
	minimal := shrinkPlan(full, "orphaned-iou", recheck)
	if planElems(minimal) != 1 || len(minimal.Crashes) != 1 {
		t.Fatalf("shrinker kept %d elements (%+v), want only the crash", planElems(minimal), minimal)
	}
	if minimal.DropProb != 0 || len(minimal.Bursts) != 0 {
		t.Errorf("noise elements survived shrinking: %+v", minimal)
	}
}

// probeRIMAS reads the xfer.rimas span of a traced fault-free PureCopy
// migration under cfg, so fault windows can be aimed at a chosen
// fraction of the transfer.
func probeRIMAS(t *testing.T, cfg Config) (start, end time.Duration) {
	t.Helper()
	_, sink, err := TraceTrial(cfg, resilienceKind, core.PureCopy, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sink.Events() {
		if ev.Name != "xfer.rimas" {
			continue
		}
		switch ev.Kind {
		case obs.PhaseBegin:
			start = ev.T
		case obs.PhaseEnd:
			return start, ev.T
		}
	}
	t.Fatal("no xfer.rimas phase in probe trial")
	return 0, 0
}

// killFirstAttempt returns a plan whose partition opens 60% of the way
// through the probed RIMAS transfer and outlasts the transport's
// dead-peer horizon, so attempt one dies with well over half the image
// already delivered and attempt two runs on a healed link.
func killFirstAttempt(t *testing.T, cfg Config) *faults.Plan {
	t.Helper()
	s, e := probeRIMAS(t, cfg)
	mid := s + 6*(e-s)/10
	return &faults.Plan{Seed: 1, Partitions: []faults.Window{{
		Start: faults.Duration(mid),
		End:   faults.Duration(mid + 16*time.Second),
	}}}
}

// TestResumeRetrySavesBytes is the resumable-retry acceptance test:
// kill attempt one past the 50% mark of the RIMAS transfer, let the
// retry complete, and compare total wire bytes with the delivery
// ledger off and on. The ledger run must resume pages and ship
// measurably fewer bytes, and the final image must equal the
// fault-free golden — which also proves attempt one's retained recipe
// and ledger content cannot leak a stale page into attempt two.
func TestResumeRetrySavesBytes(t *testing.T) {
	run := func(resume bool) (*ResilienceOutcome, *ResilienceOutcome) {
		cfg := Config{Recovery: &ResilienceOptions{MaxRetries: 3, Degrade: false, AckTimeout: 15 * time.Minute}}
		cfg.Machine.Dedup.Resume = resume
		fcfg := cfg
		fcfg.Faults = killFirstAttempt(t, cfg)
		out, err := RunResilienceTrial(fcfg, resilienceKind, core.PureCopy)
		if err != nil {
			t.Fatal(err)
		}
		gold, err := RunResilienceTrial(cfg, resilienceKind, core.PureCopy)
		if err != nil {
			t.Fatal(err)
		}
		return out, gold
	}
	off, offGold := run(false)
	on, onGold := run(true)

	for name, o := range map[string]*ResilienceOutcome{"ledger-off": off, "ledger-on": on} {
		if !o.Migrated || !o.Completed {
			t.Fatalf("%s: migrated=%v completed=%v, want a successful retry", name, o.Migrated, o.Completed)
		}
		if o.Attempts < 2 {
			t.Fatalf("%s: %d attempts, want the partition to kill attempt one", name, o.Attempts)
		}
	}
	if off.ResumedPages != 0 {
		t.Errorf("ledger off resumed %d pages, want 0", off.ResumedPages)
	}
	if on.ResumedPages == 0 {
		t.Error("ledger on resumed no pages")
	}
	if on.BytesTotal >= off.BytesTotal {
		t.Errorf("ledger saved nothing: %d bytes on vs %d off", on.BytesTotal, off.BytesTotal)
	}
	if saved, resumed := off.BytesTotal-on.BytesTotal, uint64(on.ResumedPages)*vm.DefaultPageSize; saved < resumed/2 {
		t.Errorf("saved only %d wire bytes for %d resumed bytes", saved, resumed)
	}
	if on.ImageHash != onGold.ImageHash || !on.ImageOnDst {
		t.Errorf("resumed retry image %#x diverges from fault-free %#x", on.ImageHash, onGold.ImageHash)
	}
	if off.ImageHash != offGold.ImageHash || !off.ImageOnDst {
		t.Errorf("plain retry image %#x diverges from fault-free %#x", off.ImageHash, offGold.ImageHash)
	}
}

// TestRetryDowntimeCoversAllAttempts is the downtime re-stamping
// regression test: the frozen interval of a retried migration runs
// from the FIRST attempt's freeze to the final resume — the process
// never executes between attempts — so it must exceed the fault-free
// downtime by at least the dead-peer detection the retry sat through.
// Before the MarkFreeze fix, each retry re-stamped the freeze instant
// and reported only the last attempt's slice.
func TestRetryDowntimeCoversAllAttempts(t *testing.T) {
	cfg := Config{Recovery: &ResilienceOptions{MaxRetries: 3, Degrade: false, AckTimeout: 15 * time.Minute}}
	cfg.Machine.Dedup.Resume = true
	fcfg := cfg
	fcfg.Faults = killFirstAttempt(t, cfg)
	out, err := RunResilienceTrial(fcfg, resilienceKind, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := RunResilienceTrial(cfg, resilienceKind, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts < 2 || !out.Completed {
		t.Fatalf("attempts=%d completed=%v, want a completed retry", out.Attempts, out.Completed)
	}
	// Attempt one froze, stalled against the partition for the whole
	// dead-peer horizon (~13 s), and the process only ran again after
	// attempt two's insert: the honest downtime dwarfs the golden's.
	if out.Downtime < gold.Downtime+10*time.Second {
		t.Errorf("retried downtime %v barely exceeds fault-free %v: freeze re-stamped?",
			out.Downtime, gold.Downtime)
	}
	if out.Downtime > out.TotalTime {
		t.Errorf("downtime %v exceeds total time %v", out.Downtime, out.TotalTime)
	}
}

// TestManifestCrashRollsBackCleanly kills the destination as the
// manifest exchange begins — the OpManifestAck can never arrive — and
// checks the source's side of the contract: the migration aborts with
// a typed error, the process rolls back and completes at the source,
// and nothing of the dead destination's state survives.
func TestManifestCrashRollsBackCleanly(t *testing.T) {
	cfg := Config{Recovery: &ResilienceOptions{MaxRetries: 1, Degrade: false, AckTimeout: 2 * time.Second}}
	cfg.Machine.Dedup.Resume = true // manifest phase runs
	cfg.Faults = &faults.Plan{Seed: 1, Crashes: []faults.Crash{{
		Machine: "dst", AtPhase: "xfer.manifest",
	}}}
	out, err := RunResilienceTrial(cfg, resilienceKind, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	if out.Migrated {
		t.Fatal("migrated to a destination that died before acking the manifest")
	}
	if !out.Aborted || out.MigClass != "aborted" {
		t.Errorf("aborted=%v migClass=%q, want a clean typed abort", out.Aborted, out.MigClass)
	}
	if !out.Completed || out.ImageOnDst {
		t.Errorf("completed=%v imageOnDst=%v, want local completion after rollback",
			out.Completed, out.ImageOnDst)
	}
	if out.ImageHash == 0 {
		t.Error("no source image after rollback")
	}
}

// TestManifestCrashClearsLedger drives the same destination-death
// scenario on a raw testbed to check the destination's side: a crashed
// machine's delivery ledger is kernel memory and must not survive into
// any later exchange.
func TestManifestCrashClearsLedger(t *testing.T) {
	cfg := Config{}
	cfg.Machine.Dedup.Resume = true
	cfg.Faults = killFirstAttempt(t, cfg)
	cfg = resilienceDefaults(cfg)
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, resilienceKind)
	if err != nil {
		t.Fatal(err)
	}
	tb.Src.Start(built.Proc)
	tb.K.Go("driver", func(p *sim.Proc) {
		rep, migErr := tb.SrcMgr.MigrateTo(p, resilienceKind.String(), tb.DstMgr.Port.ID, core.Options{
			Strategy:   core.PureCopy,
			AckTimeout: 15 * time.Minute,
			MaxRetries: 3,
		})
		if migErr != nil || rep == nil {
			return
		}
	})
	tb.K.Run()
	// Attempt one's partial delivery credited pages to the ledger…
	if tb.Dst.Net.Ledger().Stats().Credits == 0 {
		t.Fatal("partition scenario credited nothing to the ledger")
	}
	// …the retry resumed from it, and the successful insert forgot the
	// migration's entry: nothing may linger for a future exchange.
	if n := tb.Dst.Net.Ledger().Pages(resilienceKind.String()); n != 0 {
		t.Errorf("%d ledger pages retained after successful insert, want 0", n)
	}
	// A crash, by contrast, wipes the ledger wholesale.
	tb.Dst.Net.Ledger().Credit("ghost", 42, []byte{1})
	tb.Dst.Net.Crash()
	if n := tb.Dst.Net.Ledger().Pages("ghost"); n != 0 {
		t.Errorf("%d ledger pages survived a machine crash, want 0", n)
	}
}
