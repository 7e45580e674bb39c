package pphcr

import (
	"testing"
	"time"

	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/profile"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// newTestWorld generates the small synthetic world newTestSystem boots.
func newTestWorld(t testing.TB) *synth.World {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 11, Days: 5, Users: 3, Stations: 3, PodcastsPerDay: 30,
		TrainingDocsPerCategory: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newTestSystem builds a System over newTestWorld's world, seed 11.
func newTestSystem(t testing.TB) (*System, *synth.World) {
	t.Helper()
	w := newTestWorld(t)
	sys, err := NewWorld(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w
}

func TestNewRequiresTraining(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing training docs accepted")
	}
}

func TestIngestAndRecommendFlow(t *testing.T) {
	sys, w := newTestSystem(t)
	// Subscribe to broker events before acting.
	q, err := sys.Broker.Bind("audit", "#")
	if err != nil {
		t.Fatal(err)
	}
	persona := w.Personas[0]
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	if sys.Repo.Len() != len(w.Corpus) {
		t.Fatalf("repo has %d items, want %d", sys.Repo.Len(), len(w.Corpus))
	}
	now := w.LastPublished().Add(time.Hour)

	// Seed interests alone must already personalize the cold-start list.
	ranked := sys.Recommend(persona.Profile.UserID, recommend.Context{Now: now}, 10)
	if len(ranked) == 0 {
		t.Fatal("cold-start recommendations empty")
	}
	interests := map[string]bool{}
	for _, c := range persona.Profile.Interests {
		interests[c] = true
	}
	if !interests[ranked[0].Item.TopCategory()] {
		t.Fatalf("top recommendation %q not in interests %v",
			ranked[0].Item.TopCategory(), persona.Profile.Interests)
	}
	// Events flowed through the broker.
	if q.Len() == 0 {
		t.Fatal("no broker events published")
	}
}

func TestFeedbackShiftsRecommendations(t *testing.T) {
	sys, w := newTestSystem(t)
	user := "greg"
	if err := sys.RegisterUser(profile.Profile{UserID: user, Interests: []string{"technology"}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	now := w.LastPublished().Add(time.Hour)
	// Greg skips every sport item hard and likes food.
	for _, it := range sys.Repo.ByCategory("sport") {
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Dislike, At: now.Add(-time.Hour),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, it := range sys.Repo.ByCategory("food") {
		if i >= 5 {
			break
		}
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Like, At: now.Add(-time.Hour),
		}); err != nil {
			t.Fatal(err)
		}
	}
	prefs := sys.Preferences(user, now).Map()
	if prefs["sport"] >= 0 {
		t.Fatalf("sport preference = %v, want negative", prefs["sport"])
	}
	if prefs["food"] <= 0 {
		t.Fatalf("food preference = %v, want positive", prefs["food"])
	}
	ranked := sys.Recommend(user, recommend.Context{Now: now}, 20)
	for _, sc := range ranked {
		if sc.Item.TopCategory() == "sport" {
			t.Fatal("disliked category still recommended")
		}
	}
}

func TestInjectPinsAndClears(t *testing.T) {
	sys, w := newTestSystem(t)
	user := "editor-target"
	if err := sys.RegisterUser(profile.Profile{UserID: user, Interests: []string{"music"}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	anyID := w.Corpus[len(w.Corpus)-1].ID
	if err := sys.Inject(user, "missing"); err == nil {
		t.Fatal("injecting unknown item accepted")
	}
	if err := sys.Inject(user, anyID); err != nil {
		t.Fatal(err)
	}
	if got := sys.PendingInjections(user); len(got) != 1 || got[0] != anyID {
		t.Fatalf("pending = %v", got)
	}
	now := w.LastPublished().Add(time.Hour)
	ranked := sys.Recommend(user, recommend.Context{Now: now}, 5)
	if len(ranked) == 0 || ranked[0].Item.ID != anyID {
		t.Fatalf("injected item not pinned first: %+v", ranked)
	}
	if ranked[0].Compound != 1 {
		t.Fatalf("pinned compound = %v", ranked[0].Compound)
	}
	// Inject-once: next call has no pin.
	if got := sys.PendingInjections(user); len(got) != 0 {
		t.Fatalf("pending after recommend = %v", got)
	}
}

func TestPlanTripEndToEnd(t *testing.T) {
	sys, w := newTestSystem(t)
	persona := w.Personas[0]
	user := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	// Record 5 weekdays of commutes, then compact.
	recordCommutes(t, sys, w, persona, 5)
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	// A new morning commute begins (next Monday).
	day := w.Params.StartDate.AddDate(0, 0, 7)
	trace, _, err := w.CommuteTrace(persona, day, true)
	if err != nil {
		t.Fatal(err)
	}
	// First 5 minutes of driving observed.
	partial := trace.Head(5 * time.Minute)
	now := partial[len(partial)-1].Time
	tp, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Prediction.Dest == -1 {
		t.Fatal("no destination predicted")
	}
	if !tp.Proactive {
		// ΔT can legitimately be short for close commutes; only fail when
		// the reason is unexpected.
		t.Logf("not proactive: %s (ΔT=%v conf=%v)", tp.Reason, tp.Prediction.DeltaT, tp.Prediction.Confidence)
	} else {
		if len(tp.Plan.Items) == 0 {
			t.Fatal("proactive but empty plan")
		}
		if tp.Plan.Used > tp.Prediction.DeltaT {
			t.Fatal("plan exceeds predicted ΔT")
		}
	}
}

func TestPlanTripErrors(t *testing.T) {
	sys, _ := newTestSystem(t)
	fix := trajectory.Fix{Point: geo.Point{Lat: 45.07, Lon: 7.68}, Time: time.Now()}
	if _, err := sys.PlanTrip("unknown", trajectory.Trace{fix}, time.Now(), nil); err == nil {
		t.Fatal("missing mobility model accepted")
	}
}

func TestCandidateWindowFiltersOldItems(t *testing.T) {
	sys, w := newTestSystem(t)
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	// Far future: nothing inside the 72 h window.
	farFuture := w.Params.StartDate.AddDate(1, 0, 0)
	if got := sys.Candidates(farFuture); len(got) != 0 {
		t.Fatalf("stale candidates: %d", len(got))
	}
	// Just after the last day: recent items visible.
	recent := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	if got := sys.Candidates(recent); len(got) == 0 {
		t.Fatal("no recent candidates")
	}
}
