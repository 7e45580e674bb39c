package pphcr_test

import (
	"strings"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/distraction"
	"pphcr/internal/feedback"
	"pphcr/internal/recommend"
	"pphcr/internal/streamsim"
	"pphcr/internal/synth"
)

// buildWorld assembles a loaded system for integration tests.
func buildWorld(t testing.TB) (*pphcr.System, *synth.World, time.Time) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 99, Days: 7, Users: 4, Stations: 4, PodcastsPerDay: 40,
		TrainingDocsPerCategory: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.NewWorld(w, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Personas {
		if err := sys.RegisterUser(p.Profile); err != nil {
			t.Fatal(err)
		}
	}
	return sys, w, w.LastPublished().Add(time.Hour)
}

// TestArchitecturePipeline exercises the full Fig 3 architecture in one
// flow: ingestion through the ASR+Bayes pipeline, broker event fan-out,
// user management (profile, feedback, tracking), compaction, proactive
// planning, and the streaming plane that plays the plan out.
func TestArchitecturePipeline(t *testing.T) {
	sys, w, _ := buildWorld(t)

	// Broker observers for every stage (as the real components would
	// subscribe on RabbitMQ).
	qTrack, err := sys.Broker.Bind("pipeline-tracking", "tracking.#")
	if err != nil {
		t.Fatal(err)
	}
	qFeedback, err := sys.Broker.Bind("pipeline-feedback", "feedback.#")
	if err != nil {
		t.Fatal(err)
	}
	qPlans, err := sys.Broker.Bind("pipeline-plans", "recommendations.#")
	if err != nil {
		t.Fatal(err)
	}

	persona := w.Personas[0]
	user := persona.Profile.UserID

	// 1. Classification stage: ingested items carry sane category mass.
	if sys.Repo.Len() != len(w.Corpus) {
		t.Fatalf("repo %d items, want %d", sys.Repo.Len(), len(w.Corpus))
	}
	correct := 0
	for _, raw := range w.Corpus {
		it, ok := sys.Repo.Get(raw.ID)
		if !ok {
			t.Fatalf("item %s missing", raw.ID)
		}
		if it.TopCategory() == strings.Fields(raw.Title)[0] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(w.Corpus)); acc < 0.9 {
		t.Fatalf("pipeline accuracy %.2f", acc)
	}

	// 2. Tracking stage: a week of commutes, then compaction.
	commutes, err := w.Commutes(persona, w.Params.StartDate, w.Params.Days)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		t.Fatal(err)
	}
	cm, err := sys.CompactTracking(user)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.StayPoints) < 2 {
		t.Fatalf("staypoints = %d", len(cm.StayPoints))
	}
	if qTrack.Len() == 0 {
		t.Fatal("no tracking events on the broker")
	}

	// 3. Feedback stage: likes sharpen preferences.
	likedCat := persona.Profile.Interests[0]
	for i, it := range sys.Repo.ByCategory(likedCat) {
		if i >= 4 {
			break
		}
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Like,
			At: w.Params.StartDate.AddDate(0, 0, 6),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if qFeedback.Len() != 4 {
		t.Fatalf("feedback events on broker = %d", qFeedback.Len())
	}

	// 4. Proactive planning on the next weekday commute.
	day := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, w.Params.Days))
	full, route, err := w.CommuteTrace(persona, day, true)
	if err != nil {
		t.Fatal(err)
	}
	partial := full.Head(3 * time.Minute)
	tl := distraction.Build(route.Junctions, route.Length, full.AverageSpeed(), 0.3, distraction.DefaultParams())
	now := partial[len(partial)-1].Time
	tp, err := sys.PlanTrip(user, partial, now, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Proactive {
		t.Fatalf("expected proactive plan, got: %s", tp.Reason)
	}
	if len(tp.Plan.Items) == 0 {
		t.Fatal("empty plan")
	}
	if qPlans.Len() != 1 {
		t.Fatalf("plan events on broker = %d", qPlans.Len())
	}

	// 5. Streaming plane: the plan's clips splice into the live timeline.
	service := persona.Profile.FavoriteService
	player := &streamsim.Player{Dir: sys.Directory, ServiceID: service, BroadcastCapable: true}
	var inserts []streamsim.Insertion
	cursor := now.Add(time.Minute)
	end := now.Add(tp.Prediction.DeltaT)
	for _, item := range tp.Plan.Items {
		if cursor.Add(item.Scored.Item.Duration).After(end) {
			break
		}
		inserts = append(inserts, streamsim.Insertion{
			Kind: streamsim.SourceClip, Ref: item.Scored.Item.ID,
			Title: item.Scored.Item.Title,
			At:    cursor, Duration: item.Scored.Item.Duration,
		})
		cursor = cursor.Add(item.Scored.Item.Duration)
	}
	if len(inserts) == 0 {
		t.Fatal("no insertions fit the session")
	}
	segments, err := player.BuildTimeline(now, end, inserts)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamsim.Validate(segments, now, end); err != nil {
		t.Fatal(err)
	}
	bw := player.AccountBandwidth(segments, 96)
	if bw.UnicastBytes == 0 || bw.BroadcastBytes == 0 {
		t.Fatalf("bandwidth accounting degenerate: %+v", bw)
	}
}

// TestRecommendationConsistency checks that the facade's Recommend is
// consistent with the underlying scorer: same context, same top item,
// and injected items cannot be displaced by organic ranking.
func TestRecommendationConsistency(t *testing.T) {
	sys, w, now := buildWorld(t)
	persona := w.Personas[1]
	user := persona.Profile.UserID
	ctx := recommend.Context{Now: now}

	direct := sys.Scorer.Rank(sys.Preferences(user, now).Map(), sys.Candidates(now), ctx, 5)
	viaFacade := sys.Recommend(user, ctx, 5)
	if len(direct) != len(viaFacade) {
		t.Fatalf("lengths differ: %d vs %d", len(direct), len(viaFacade))
	}
	for i := range direct {
		if direct[i].Item.ID != viaFacade[i].Item.ID {
			t.Fatalf("rank %d differs: %s vs %s", i, direct[i].Item.ID, viaFacade[i].Item.ID)
		}
	}
}

// TestDeterministicWorldToPlan verifies the whole stack is reproducible:
// two identically-seeded runs produce identical proactive plans.
func TestDeterministicWorldToPlan(t *testing.T) {
	planIDs := func() []string {
		sys, w, _ := buildWorld(t)
		persona := w.Personas[0]
		user := persona.Profile.UserID
		commutes, err := w.Commutes(persona, w.Params.StartDate, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RecordTrace(user, commutes); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.CompactTracking(user); err != nil {
			t.Fatal(err)
		}
		day := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, w.Params.Days))
		full, _, err := w.CommuteTrace(persona, day, true)
		if err != nil {
			t.Fatal(err)
		}
		partial := full.Head(3 * time.Minute)
		tp, err := sys.PlanTrip(user, partial, partial[len(partial)-1].Time, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, it := range tp.Plan.Items {
			ids = append(ids, it.Scored.Item.ID)
		}
		return ids
	}
	a, b := planIDs(), planIDs()
	if len(a) != len(b) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
