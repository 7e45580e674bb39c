package pphcr

import (
	"fmt"
	"testing"
	"time"

	"pphcr/internal/feedback"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// newWarmableSystem builds a system that can produce non-empty proactive
// plans: a candidate corpus dense enough to cover the persona's interest
// categories inside the 72 h window, plus a compacted commute history.
func newWarmableSystem(t testing.TB) (*System, *synth.World, string) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 21, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 40,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewWorld(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	persona := w.Personas[0]
	user := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	recordCommutes(t, sys, w, persona, w.Params.Days)
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	return sys, w, user
}

// recordCommutes feeds sys the persona's commutes over the world's
// first `days` days, under the persona's user ID.
func recordCommutes(t testing.TB, sys *System, w *synth.World, p *synth.Persona, days int) {
	t.Helper()
	trace, err := w.Commutes(p, w.Params.StartDate, days)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(p.Profile.UserID, trace); err != nil {
		t.Fatal(err)
	}
}

// commutePartial returns the first `window` of a future Monday's morning
// commute (dayOffset days after the world start, expected to land on a
// weekday) and the planning instant at its end.
func commutePartial(t testing.TB, w *synth.World, window time.Duration, dayOffset int) (trajectory.Trace, time.Time) {
	t.Helper()
	day := w.Params.StartDate.AddDate(0, 0, dayOffset)
	full, _, err := w.CommuteTrace(w.Personas[0], day, true)
	if err != nil {
		t.Fatal(err)
	}
	partial := full.Head(window)
	return partial, partial[len(partial)-1].Time
}

// TestPlanTripColdWarmEquivalence is the cache-correctness contract:
// identical inputs must yield an identical schedule whether the plan is
// computed cold or served from the warm cache.
func TestPlanTripColdWarmEquivalence(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, 3*time.Minute, 7)

	cold, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Source != PlanSourceCold {
		t.Fatalf("first plan source = %q, want cold", cold.Source)
	}
	if !cold.Proactive || len(cold.Plan.Items) == 0 {
		t.Fatalf("cold plan unusable: proactive=%v items=%d reason=%q",
			cold.Proactive, len(cold.Plan.Items), cold.Reason)
	}

	warm, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != PlanSourceWarm {
		t.Fatalf("second plan source = %q, want warm", warm.Source)
	}
	if len(warm.Plan.Items) != len(cold.Plan.Items) {
		t.Fatalf("warm items = %d, cold = %d", len(warm.Plan.Items), len(cold.Plan.Items))
	}
	for i := range warm.Plan.Items {
		wi, ci := warm.Plan.Items[i], cold.Plan.Items[i]
		if wi.Scored.Item.ID != ci.Scored.Item.ID || wi.StartOffset != ci.StartOffset {
			t.Fatalf("item %d differs: warm=%+v cold=%+v", i, wi, ci)
		}
	}
	if warm.Plan.TotalValue != cold.Plan.TotalValue || warm.Plan.Used != cold.Plan.Used {
		t.Fatalf("plan aggregates differ: warm=(%v,%v) cold=(%v,%v)",
			warm.Plan.TotalValue, warm.Plan.Used, cold.Plan.TotalValue, cold.Plan.Used)
	}
	// The live prediction and context are always fresh, even on warm serves.
	if warm.Prediction.Dest != cold.Prediction.Dest {
		t.Fatalf("warm destination %d != cold %d", warm.Prediction.Dest, cold.Prediction.Dest)
	}
	if st := sys.PlanCache.Stats(); st.Hits < 1 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
}

// TestWarmPlanServesLiveRequest drives the precompute flow end to end at
// the System level: WarmPlan anticipates the trip before it starts, and
// the live PlanTrip shortly after departure is served from that entry.
func TestWarmPlanServesLiveRequest(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	// Short partial: the live request arrives one minute into the trip,
	// well inside the median−MAD slack the warm plan leaves.
	partial, now := commutePartial(t, w, time.Minute, 7)

	cm, _ := sys.MobilityModel(user)
	m := cm.Mobility
	from := m.MatchPlace(partial[0].Point)
	if from == predict.NoPlace {
		t.Fatal("trip origin not matched")
	}
	cands := m.PredictDestination(from, partial[0].Time)
	if len(cands) == 0 {
		t.Fatal("no destination candidates")
	}
	tp, err := sys.WarmPlan(user, from, cands[0].Place, cands[0].Prob, partial[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Proactive || len(tp.Plan.Items) == 0 {
		t.Fatalf("warm plan unusable: proactive=%v items=%d reason=%q",
			tp.Proactive, len(tp.Plan.Items), tp.Reason)
	}
	if !sys.PlanCache.Contains(plancache.Key{
		User: user, Dest: cands[0].Place, Bucket: predict.BucketOf(partial[0].Time),
	}) {
		t.Fatal("warm plan not cached")
	}

	live, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.Source != PlanSourceWarm {
		t.Fatalf("live plan source = %q, want warm (deltaT=%v reason=%q)",
			live.Source, live.Prediction.DeltaT, live.Reason)
	}
	// Served items must still fit the live remaining time.
	for _, it := range live.Plan.Items {
		if it.StartOffset+it.Scored.Item.Duration > live.Prediction.DeltaT {
			t.Fatalf("warm item overruns live ΔT: %+v vs %v", it, live.Prediction.DeltaT)
		}
	}
}

// TestWarmPlanNeverOverridesLiveDecline: phase 1 runs live on every
// request — a warm entry must not be served when the current situation
// (here: too little ΔT remaining) would make the cold path decline.
func TestWarmPlanNeverOverridesLiveDecline(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, 3*time.Minute, 7)
	tp, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Proactive {
		t.Fatalf("priming plan not proactive: %q", tp.Reason)
	}
	// 20 minutes into a ~25-minute commute: ΔT is below the planner's
	// 8-minute minimum, so phase 1 must decline despite the warm entry.
	late := partial[0].Time.Add(20 * time.Minute)
	tp2, err := sys.PlanTrip(user, partial, late, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp2.Source == PlanSourceWarm {
		t.Fatalf("warm plan served past a live phase-1 decline (ΔT=%v)", tp2.Prediction.DeltaT)
	}
	if tp2.Proactive {
		t.Fatalf("late-trip plan proactive with ΔT=%v", tp2.Prediction.DeltaT)
	}
}

// TestWarmPlanInvalidation pins the three invalidation rules at the
// System level.
func TestWarmPlanInvalidation(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, 3*time.Minute, 7)
	if _, err := sys.PlanTrip(user, partial, now, nil); err != nil {
		t.Fatal(err)
	}
	if sys.PlanCache.Len() == 0 {
		t.Fatal("plan not cached")
	}
	// Rule 1: re-compaction renumbers places → user's entries must die.
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	if sys.PlanCache.Sweep(); sys.PlanCache.Len() != 0 {
		t.Fatal("entries survived re-compaction")
	}
	// Re-prime, then rule 2: new content marks everything stale.
	if _, err := sys.PlanTrip(user, partial, now, nil); err != nil {
		t.Fatal(err)
	}
	fresh := w.Corpus[0]
	fresh.ID = "pod-fresh"
	if _, err := sys.IngestPodcast(fresh); err != nil {
		t.Fatal(err)
	}
	tp, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Source != PlanSourceCold {
		t.Fatalf("post-ingest source = %q, want cold", tp.Source)
	}
}

// TestWarmPlanStaleInLogicalTime: callers drive PlanTrip with simulated
// clocks, so freshness must be judged against the request's `now`, not
// the process clock — the same commute one simulated week later must
// replan cold even though the wall-clock TTL has not elapsed.
func TestWarmPlanStaleInLogicalTime(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, 3*time.Minute, 7)
	tp, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Proactive || tp.Source != PlanSourceCold {
		t.Fatalf("priming plan: proactive=%v source=%q", tp.Proactive, tp.Source)
	}
	// Same commute, same time bucket, next Monday: the cached plan is a
	// week old in world time and must not be served.
	partial2, now2 := commutePartial(t, w, 3*time.Minute, 14)
	tp2, err := sys.PlanTrip(user, partial2, now2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp2.Source == PlanSourceWarm {
		t.Fatal("week-old plan served warm across simulated time")
	}
}

// TestPlansExcludeDislikedItems: once the listener dislikes an item, no
// plan of theirs holds it — neither the next cold PlanTrip nor the plan
// WarmPlan caches and PlanTrip then serves warm.
func TestPlansExcludeDislikedItems(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, time.Minute, 7)
	disliked := map[string]bool{}
	check := func(label string, tp *TripPlan) {
		t.Helper()
		if !tp.Proactive || len(tp.Plan.Items) == 0 {
			t.Fatalf("%s plan unusable: proactive=%v items=%d reason=%q", label, tp.Proactive, len(tp.Plan.Items), tp.Reason)
		}
		for _, it := range tp.Plan.Items {
			if disliked[it.Scored.Item.ID] {
				t.Fatalf("%s plan holds %s, disliked before it was planned", label, it.Scored.Item.ID)
			}
		}
	}
	// A listener with a history, as in the benchmark: the first plan's
	// items were liked a few times each, so one dislike lowers a
	// preference without turning it around and the disliked item would
	// still rank.
	first, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("first", first)
	for _, it := range first.Plan.Items {
		for i := 0; i < 5; i++ {
			if err := sys.AddFeedback(feedback.Event{
				UserID: user, ItemID: it.Scored.Item.ID, Kind: feedback.Like, At: now.Add(-time.Hour),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 3; round++ {
		tp, err := sys.PlanTrip(user, partial, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Source != PlanSourceCold {
			t.Fatalf("round %d: plan after a dislike served %q, want cold", round, tp.Source)
		}
		check(fmt.Sprintf("cold plan %d", round), tp)
		// Dislike the plan's first item the way the feedback endpoint
		// does: with the item's categories.
		it := tp.Plan.Items[0].Scored.Item
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Dislike, At: now,
		}); err != nil {
			t.Fatal(err)
		}
		disliked[it.ID] = true
	}

	cm, _ := sys.MobilityModel(user)
	from := cm.Mobility.MatchPlace(partial[0].Point)
	cands := cm.Mobility.PredictDestination(from, partial[0].Time)
	if from == predict.NoPlace || len(cands) == 0 {
		t.Fatal("trip origin or destination not predicted")
	}
	warmed, err := sys.WarmPlan(user, from, cands[0].Place, cands[0].Prob, partial[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	check("warmed", warmed)
	served, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served.Source != PlanSourceWarm {
		t.Fatalf("plan after WarmPlan served %q, want warm", served.Source)
	}
	check("warm-served", served)
}
