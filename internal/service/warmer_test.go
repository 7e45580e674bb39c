package service

import (
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/precompute"
	"pphcr/internal/synth"
)

// warmSystem builds a system a warm plan can succeed on — registered
// persona, dense candidate corpus, compacted commute history — plus a
// Warmer whose clock is pinned inside the synthetic world.
func warmSystem(t *testing.T) (sys *pphcr.System, user string, warmAt time.Time, warmer *Warmer) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 21, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 40,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err = pphcr.NewWorld(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	persona := w.Personas[0]
	user = persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	commutes, err := w.Commutes(persona, w.Params.StartDate, w.Params.Days)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	warmAt = w.Params.StartDate.AddDate(0, 0, 7).Add(8 * time.Hour)
	warmer, err = NewWarmer(sys, precompute.Config{Now: func() time.Time { return warmAt }})
	if err != nil {
		t.Fatal(err)
	}
	return sys, user, warmAt, warmer
}

func TestWarmerPrewarmAndPoll(t *testing.T) {
	sys, user, warmAt, warmer := warmSystem(t)
	if warmed := warmer.Prewarm(sys, warmAt); warmed == 0 {
		t.Fatalf("prewarm warmed nothing (stats %+v)", warmer.Stats())
	}
	if sys.PlanCache.Len() == 0 {
		t.Fatal("cache empty after prewarm")
	}
	// A re-compaction event flows through Poll into fresh warm plans.
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	if sys.PlanCache.Sweep(); sys.PlanCache.Len() != 0 {
		t.Fatal("compaction did not invalidate the user's plans")
	}
	warmer.sched.Poll(warmAt)
	if warmed := warmer.sched.Drain(); warmed == 0 {
		t.Fatalf("poll warmed nothing (stats %+v)", warmer.Stats())
	}
	if st := warmer.Stats(); st.EventsCompacted == 0 || st.PlansWarmed == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWarmerRunLoop(t *testing.T) {
	sys, user, _, warmer := warmSystem(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		warmer.Run(stop)
		close(done)
	}()
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for sys.PlanCache.Len() == 0 {
		select {
		case <-deadline:
			t.Fatalf("warmer run loop never warmed (stats %+v)", warmer.Stats())
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("warmer run loop did not stop")
	}
}
