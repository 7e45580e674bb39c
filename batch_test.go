package pphcr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pphcr/internal/core"
	"pphcr/internal/feedback"
	"pphcr/internal/predict"
	"pphcr/internal/synth"
)

// newFleetSystem builds a system with several drivers: corpus ingested,
// every persona registered, two commute days fed and compacted per
// driver. Returns the drivers that produced a usable mobility model.
func newFleetSystem(t testing.TB, users int) (*System, *synth.World, []string) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 33, Days: 5, Users: users, Stations: 2, PodcastsPerDay: 40,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range w.Corpus {
		if _, err := sys.IngestPodcast(raw); err != nil {
			t.Fatal(err)
		}
	}
	var drivers []string
	for _, p := range w.Personas {
		if err := sys.RegisterUser(p.Profile); err != nil {
			t.Fatal(err)
		}
		fed := 0
		for d := 0; fed < 2 && d < w.Params.Days; d++ {
			day := w.Params.StartDate.AddDate(0, 0, d)
			if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
				continue
			}
			for _, morning := range []bool{true, false} {
				trace, _, err := w.CommuteTrace(p, day, morning)
				if err != nil {
					t.Fatal(err)
				}
				for _, fix := range trace {
					if err := sys.RecordFix(p.Profile.UserID, fix); err != nil {
						t.Fatal(err)
					}
				}
			}
			fed++
		}
		if _, err := sys.CompactTracking(p.Profile.UserID); err != nil {
			continue
		}
		drivers = append(drivers, p.Profile.UserID)
	}
	if len(drivers) < 2 {
		t.Fatalf("only %d drivers prepared", len(drivers))
	}
	return sys, w, drivers
}

// warmJobs enumerates one warm request per driver: their top predicted
// destination from their morning-commute origin on a future weekday.
func warmJobs(t testing.TB, sys *System, w *synth.World, drivers []string) []WarmRequest {
	t.Helper()
	byUser := make(map[string]*synth.Persona)
	for _, p := range w.Personas {
		byUser[p.Profile.UserID] = p
	}
	var reqs []WarmRequest
	for _, u := range drivers {
		day := w.Params.StartDate.AddDate(0, 0, 7)
		for day.Weekday() == time.Saturday || day.Weekday() == time.Sunday {
			day = day.AddDate(0, 0, 1)
		}
		full, _, err := w.CommuteTrace(byUser[u], day, true)
		if err != nil {
			t.Fatal(err)
		}
		cm, ok := sys.MobilityModel(u)
		if !ok {
			continue
		}
		from := cm.Mobility.MatchPlace(full[0].Point)
		if from == predict.NoPlace {
			continue
		}
		cands := cm.Mobility.PredictDestination(from, full[0].Time)
		if len(cands) == 0 {
			continue
		}
		reqs = append(reqs, WarmRequest{
			UserID: u, From: from, Dest: cands[0].Place,
			Prob: cands[0].Prob, At: full[0].Time,
		})
	}
	if len(reqs) < 2 {
		t.Fatalf("only %d warm jobs enumerated", len(reqs))
	}
	return reqs
}

// comparePlans asserts two TripPlans are identical in everything the
// client sees: gate decision, prediction, schedule, aggregates.
func comparePlans(t *testing.T, label string, a, b *TripPlan) {
	t.Helper()
	if a.Proactive != b.Proactive || a.Reason != b.Reason {
		t.Fatalf("%s: gate differs: (%v,%q) vs (%v,%q)", label, a.Proactive, a.Reason, b.Proactive, b.Reason)
	}
	if a.Prediction.Dest != b.Prediction.Dest || a.Prediction.Confidence != b.Prediction.Confidence ||
		a.Prediction.DeltaT != b.Prediction.DeltaT {
		t.Fatalf("%s: prediction differs: %+v vs %+v", label, a.Prediction, b.Prediction)
	}
	if len(a.Plan.Items) != len(b.Plan.Items) {
		t.Fatalf("%s: item count %d vs %d", label, len(a.Plan.Items), len(b.Plan.Items))
	}
	for i := range a.Plan.Items {
		ai, bi := a.Plan.Items[i], b.Plan.Items[i]
		if ai.Scored.Item.ID != bi.Scored.Item.ID || ai.StartOffset != bi.StartOffset ||
			ai.Scored.Compound != bi.Scored.Compound {
			t.Fatalf("%s: item %d differs: %+v vs %+v", label, i, ai, bi)
		}
	}
	if a.Plan.TotalValue != b.Plan.TotalValue || a.Plan.Used != b.Plan.Used {
		t.Fatalf("%s: aggregates differ: (%v,%v) vs (%v,%v)",
			label, a.Plan.TotalValue, a.Plan.Used, b.Plan.TotalValue, b.Plan.Used)
	}
}

// TestWarmBatchMatchesSequential is the batch-equivalence contract for
// the warming path: one WarmBatch over mixed users (and mixed departure
// instants) must produce exactly the plans the per-user WarmPlan calls
// produce.
func TestWarmBatchMatchesSequential(t *testing.T) {
	sys, w, drivers := newFleetSystem(t, 12)
	reqs := warmJobs(t, sys, w, drivers)

	seq := make([]*TripPlan, len(reqs))
	for i, r := range reqs {
		tp, err := sys.WarmPlan(r.UserID, r.From, r.Dest, r.Prob, r.At)
		if err != nil {
			t.Fatalf("sequential %s: %v", r.UserID, err)
		}
		seq[i] = tp
	}
	results := sys.WarmBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	planned := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch %s: %v", reqs[i].UserID, res.Err)
		}
		comparePlans(t, fmt.Sprintf("user %s", reqs[i].UserID), res.Plan, seq[i])
		if res.Plan.Proactive && len(res.Plan.Plan.Items) > 0 {
			planned++
		}
	}
	if planned == 0 {
		t.Fatal("no batch member produced a plan — equivalence vacuous")
	}
}

// TestBatchConcurrentWithWrites runs WarmPlan and WarmBatch callers
// from several goroutines while feedback (cache-invalidating) writes
// land — the -race guard for the pooled per-task buffers and the
// versioned cache puts.
func TestBatchConcurrentWithWrites(t *testing.T) {
	sys, w, drivers := newFleetSystem(t, 8)
	reqs := warmJobs(t, sys, w, drivers)
	items := sys.Candidates(reqs[0].At)
	if len(items) == 0 {
		t.Fatal("no candidates")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if g%2 == 0 {
					for _, res := range sys.WarmBatch(reqs) {
						if res.Err != nil {
							t.Errorf("goroutine %d: %v", g, res.Err)
							return
						}
					}
					continue
				}
				for _, r := range reqs {
					if _, err := sys.WarmPlan(r.UserID, r.From, r.Dest, r.Prob, r.At); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			it := items[i%len(items)]
			_ = sys.AddFeedback(feedback.Event{
				UserID: drivers[i%len(drivers)], ItemID: it.ID,
				Kind:       feedback.ImplicitListen,
				At:         reqs[0].At.Add(time.Duration(i) * time.Second),
				Categories: it.Categories,
			})
		}
	}()
	wg.Wait()
}

// TestGateAgreesAcrossEntryPoints is the regression guard for the
// situation construction that used to be hand-rolled (and drifted) in
// PlanTrip and WarmPlan: every entry point's phase-1 decision must equal
// the planner's own answer for the situation the returned plan reports —
// cold, warm-primed and warming paths alike.
func TestGateAgreesAcrossEntryPoints(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, 3*time.Minute, 7)

	assertGate := func(label string, tp *TripPlan) {
		t.Helper()
		want, reason := sys.Planner.ShouldRecommend(core.Situation{
			Ctx:            tp.Context,
			TripConfidence: tp.Prediction.Confidence,
		})
		if tp.Proactive != want || tp.Reason != reason {
			t.Fatalf("%s: gate (%v,%q) != planner (%v,%q)",
				label, tp.Proactive, tp.Reason, want, reason)
		}
	}

	// Cold live path.
	cold, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertGate("cold", cold)

	// Warm-primed live path: the cached entry must not flip the gate —
	// same inputs, same decision, whether approving (warm serve) or
	// declining (late trip, ΔT below minimum).
	warm, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertGate("warm-served", warm)
	late := partial[0].Time.Add(20 * time.Minute)
	declined, err := sys.PlanTrip(user, partial, late, nil)
	if err != nil {
		t.Fatal(err)
	}
	if declined.Proactive {
		t.Fatalf("late trip not declined (ΔT=%v)", declined.Prediction.DeltaT)
	}
	assertGate("warmed-plan decline", declined)

	// Warming path, approving and declining (confidence floor).
	cm, _ := sys.MobilityModel(user)
	from := cm.Mobility.MatchPlace(partial[0].Point)
	cands := cm.Mobility.PredictDestination(from, partial[0].Time)
	if from == predict.NoPlace || len(cands) == 0 {
		t.Fatal("no warm enumeration")
	}
	warmed, err := sys.WarmPlan(user, from, cands[0].Place, cands[0].Prob, partial[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	assertGate("warm plan", warmed)
	lowConf, err := sys.WarmPlan(user, from, cands[0].Place, 0.2, partial[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	if lowConf.Proactive {
		t.Fatal("low-confidence warm plan not declined")
	}
	assertGate("warm decline", lowConf)

	// The cold and warmed-path gates agree with each other on the same
	// approving situation (the drift that motivated the shared stage).
	if cold.Proactive != warmed.Proactive {
		t.Fatalf("cold gate %v != warm gate %v", cold.Proactive, warmed.Proactive)
	}
}
