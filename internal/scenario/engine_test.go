package scenario

import (
	"fmt"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/pipeline"
	"pphcr/internal/synth"
)

// newTestSystem builds a small world and system (deterministic per
// seed) and its population.
func newTestSystem(t *testing.T, seed int64, users, drivers int) (*pphcr.System, *synth.World, *Population, pphcr.Config) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: seed, Days: 3, Users: 40, Stations: 2,
		PodcastsPerDay: 20, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pphcr.Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: seed}
	sys, err := pphcr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := BuildPopulation(sys, w, users, drivers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w, pop, cfg
}

func smallFlashScript() Script {
	return Script{
		Name: "test-flash", Users: 400, Drivers: 8,
		Phases: []Phase{
			{Name: "warm", Duration: 1500 * time.Millisecond, Rate: 150, Mix: mixCommute},
			{Name: "flash", Duration: 1500 * time.Millisecond, Rate: 250, Mix: mixFlash, FlashCrowd: true},
			{Name: "recover", Duration: 1000 * time.Millisecond, Rate: 150, Mix: mixCommute},
		},
	}
}

// TestEngineDeterminism is the satellite's reproducibility check: the
// same seed and script produce the identical event sequence and the
// identical SLO verdict set across two full runs on fresh systems
// (under -race at small scale). Latency-sensitive SLOs are excluded on
// purpose — wall-clock quantiles are not deterministic; verdict
// structure and pass/fail on deterministic inputs are.
func TestEngineDeterminism(t *testing.T) {
	script := smallFlashScript()
	slo, err := ParseSpec("error_rate=0.5,readyz_stable")
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		hash      uint64
		scheduled int64
		executed  int64
		verdicts  []string
		flash     bool
	}
	run := func() outcome {
		sys, _, pop, _ := newTestSystem(t, 99, 400, 8)
		eng := NewEngine(sys, nil, pop, Options{Seed: 7})
		events := script.Schedule(7, 1, 1)
		r, err := eng.Run(script)
		if err != nil {
			t.Fatal(err)
		}
		slo.Evaluate(r)
		var vs []string
		for _, v := range r.Verdicts {
			vs = append(vs, fmt.Sprintf("%s/%s=%v", v.Phase, v.Check, v.OK))
		}
		return outcome{
			hash:      HashEvents(events),
			scheduled: r.Scheduled,
			executed:  r.Executed,
			verdicts:  vs,
			flash:     r.Flash != nil,
		}
	}

	a, b := run(), run()
	if a.hash != b.hash {
		t.Fatalf("event hashes differ: %x vs %x", a.hash, b.hash)
	}
	if a.scheduled != b.scheduled {
		t.Fatalf("scheduled counts differ: %d vs %d", a.scheduled, b.scheduled)
	}
	// The dispatch buffer exceeds the schedule size, so nothing sheds
	// and every scheduled event executes — in both runs.
	if a.executed != a.scheduled || b.executed != b.scheduled {
		t.Fatalf("events shed at test scale: %d/%d and %d/%d",
			a.executed, a.scheduled, b.executed, b.scheduled)
	}
	if len(a.verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	if fmt.Sprint(a.verdicts) != fmt.Sprint(b.verdicts) {
		t.Fatalf("verdicts differ:\n%v\n%v", a.verdicts, b.verdicts)
	}
	if !a.flash || !b.flash {
		t.Fatal("flash crowd not recorded")
	}
}

// TestEngineFlashCrowdReport checks the flash phase's observable
// consequences: an epoch invalidation lands in the flash phase's cache
// delta, and the recovery signal (complete or censored) is reported.
func TestEngineFlashCrowdReport(t *testing.T) {
	sys, _, pop, _ := newTestSystem(t, 5, 300, 6)
	eng := NewEngine(sys, nil, pop, Options{Seed: 11})
	r, err := eng.Run(smallFlashScript())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 3 {
		t.Fatalf("phases = %d", len(r.Phases))
	}
	if got := r.Phases[1].Cache.EpochInvalidations; got < 1 {
		t.Fatalf("flash phase epoch invalidations = %d", got)
	}
	if r.Flash == nil {
		t.Fatal("no flash report")
	}
	if r.Flash.RecoveryMs <= 0 {
		t.Fatalf("flash recovery = %v", r.Flash)
	}
	// Per-phase stage deltas must be present for the busy phases.
	if len(r.Phases[1].Stages) == 0 {
		t.Fatalf("flash phase has no stage views")
	}
}

// TestEngineSlowRankBreachesSLO is the CI gate's self-test at package
// level: inject a stalled Rank stage and the plan_p99 SLO must fail.
func TestEngineSlowRankBreachesSLO(t *testing.T) {
	sys, _, pop, _ := newTestSystem(t, 13, 200, 6)
	pipe := sys.Pipeline()
	pipe.Rank = stallRank{inner: pipe.Rank, delay: 5 * time.Millisecond}

	eng := NewEngine(sys, nil, pop, Options{Seed: 3})
	script := Script{
		Name: "test-slow", Users: 200, Drivers: 6,
		Phases: []Phase{{Name: "load", Duration: 1500 * time.Millisecond, Rate: 80, Mix: mixCommute}},
	}
	r, err := eng.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	slo, _ := ParseSpec("plan_p99=1ms")
	slo.Evaluate(r)
	if r.SLOPass {
		t.Fatalf("5ms Rank stall passed a 1ms plan_p99 SLO: %+v", r.Verdicts)
	}
}

type stallRank struct {
	inner pipeline.Rank
	delay time.Duration
}

func (s stallRank) Rank(t *pipeline.Task) {
	time.Sleep(s.delay)
	s.inner.Rank(t)
}

// TestDegradedFsyncZeroLostAcks proves the headline durability SLO
// under fault: run a write-heavy scenario with a degraded-fsync phase
// over a SyncAlways WAL, hard-crash, recover into a fresh system, and
// verify every acknowledged feedback event survived — while the
// degraded phase reported degraded (never dead) readiness.
func TestDegradedFsyncZeroLostAcks(t *testing.T) {
	sys, _, pop, cfg := newTestSystem(t, 21, 150, 6)
	dir := t.TempDir()
	dur, err := pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Fold the preload into a checkpoint: recovery below is restore +
	// replay of the scenario's writes only.
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	script := Script{
		Name: "test-degraded", Users: 150, Drivers: 6,
		Phases: []Phase{
			{Name: "healthy", Duration: time.Second, Rate: 100, Mix: mixWrite},
			{Name: "degraded", Duration: 1500 * time.Millisecond, Rate: 100, Mix: mixWrite, DegradedFsync: 3 * time.Millisecond},
		},
	}
	eng := NewEngine(sys, dur, pop, Options{Seed: 17, RecordAcks: true})
	r, err := eng.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if r.Readiness.DegradedSamples == 0 {
		t.Fatal("degraded phase never sampled as degraded")
	}
	if r.Readiness.DeadSamples != 0 || r.Readiness.Flaps != 0 {
		t.Fatalf("degraded must not read dead: %+v", r.Readiness)
	}
	// Every acked write crossed the commit barrier and a group commit.
	if c := r.Contention; c.BarrierOps == 0 || c.GroupCommits == 0 || c.MeanCommitBatch < 1 {
		t.Fatalf("write-heavy run reported no contention read-out: %+v", c)
	}
	acks := eng.Acks()
	if len(acks) == 0 {
		t.Fatal("no acked feedback recorded")
	}

	// Hard crash: no flush, no final checkpoint.
	dur.Crash()

	fresh, err := pphcr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := pphcr.OpenDurability(fresh, pphcr.DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer rdur.Crash()

	// Crash oracle: every acked event must be present in the recovered
	// feedback store (multiset inclusion — duplicate acks need
	// duplicate survivors).
	want := map[string]int{}
	for _, e := range acks {
		want[fmt.Sprintf("%s|%s|%d|%d", e.UserID, e.ItemID, e.Kind, e.At.UnixNano())]++
	}
	users := map[string]bool{}
	for _, e := range acks {
		users[e.UserID] = true
	}
	got := map[string]int{}
	for u := range users {
		for _, e := range fresh.Feedback.ByUser(u) {
			got[fmt.Sprintf("%s|%s|%d|%d", e.UserID, e.ItemID, e.Kind, e.At.UnixNano())]++
		}
	}
	lost := 0
	for k, n := range want {
		if got[k] < n {
			lost += n - got[k]
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked feedback events lost after crash under degraded fsync", lost, len(acks))
	}
}
