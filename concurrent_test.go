package pphcr

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pphcr/internal/feedback"
	"pphcr/internal/profile"
)

// assertIndexMatchesReplay compares the incremental preference index
// against the O(events) replay oracle to 1e-9 for one user.
func assertIndexMatchesReplay(t *testing.T, sys *System, user string, now time.Time) {
	t.Helper()
	params := feedback.DefaultPreferenceParams()
	got := sys.Feedback.Preferences(nil, user, now, params).Map()
	want := sys.Feedback.PreferencesReplay(user, now, params)
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	for k := range keys {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Errorf("user %s category %q: incremental %v vs replay %v", user, k, got[k], want[k])
		}
	}
}

// TestConcurrentFeedbackPreferencesPlan exercises the sharded per-user
// state and the incremental preference index under -race: concurrent
// AddFeedback, Preferences, CompactFeedback, PlanTrip and
// CompactTracking on both the same and different users, then checks the
// index against the replay oracle.
func TestConcurrentFeedbackPreferencesPlan(t *testing.T) {
	sys, w := newTestSystem(t)
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	now := w.LastPublished().Add(time.Hour)

	const nUsers = 6
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("worker-%02d", i)
		if err := sys.RegisterUser(profile.Profile{UserID: users[i], Interests: []string{"food", "music"}}); err != nil {
			t.Fatal(err)
		}
	}

	// Give the first persona a mobility model so PlanTrip runs alongside.
	persona := w.Personas[0]
	driver := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	recordCommutes(t, sys, w, persona, w.Params.Days)
	if _, err := sys.CompactTracking(driver); err != nil {
		t.Fatal(err)
	}
	day := w.Params.StartDate.AddDate(0, 0, 7)
	full, _, err := w.CommuteTrace(persona, day, true)
	if err != nil {
		t.Fatal(err)
	}
	partial := full.Head(3 * time.Minute)
	planNow := partial[len(partial)-1].Time

	const eventsPerUser = 400
	kinds := []feedback.Kind{feedback.ImplicitListen, feedback.Skip, feedback.Like, feedback.Dislike}

	var wg sync.WaitGroup
	// One feedback writer per user — plus one extra writer hammering
	// users[0], so the same-user path is contended too. Each writer owns
	// its category maps (and scribbles on them after every append, so a
	// store that aliased caller memory would corrupt under the oracle).
	writer := func(user string, salt int) {
		defer wg.Done()
		cats := []map[string]float64{
			{"food": 0.7, "culture": 0.3},
			{"music": 1},
			{"sport": 0.5, "regional": 0.5},
		}
		restore := []map[string]float64{
			{"food": 0.7, "culture": 0.3},
			{"music": 1},
			{"sport": 0.5, "regional": 0.5},
		}
		for i := 0; i < eventsPerUser; i++ {
			c := (i + salt) % len(cats)
			e := feedback.Event{
				UserID:     user,
				ItemID:     fmt.Sprintf("it-%d-%d", salt, i),
				Kind:       kinds[(i+salt)%len(kinds)],
				At:         now.Add(-time.Duration((i*7+salt)%5000) * time.Minute),
				Categories: cats[c],
			}
			if err := sys.AddFeedback(e); err != nil {
				t.Error(err)
				return
			}
			// The caller mutates its map after the append — the store
			// must have deep-copied (the aliasing regression).
			for k := range cats[c] {
				cats[c][k] = -1e9
			}
			for k, v := range restore[c] {
				cats[c][k] = v
			}
		}
	}
	for i, u := range users {
		wg.Add(1)
		go writer(u, i)
	}
	wg.Add(1)
	go writer(users[0], nUsers)

	// Readers race the writers on the same users.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(salt int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				u := users[(j+salt)%len(users)]
				sys.Preferences(u, now.Add(time.Duration(j)*time.Second))
				sys.Feedback.SkippedItems(u)
			}
		}(i)
	}
	// Periodic feedback compaction during the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			sys.CompactFeedback(users[j%len(users)], now, 24*time.Hour)
		}
	}()
	// PlanTrip + CompactTracking on the driver, Injects on the rest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 25; j++ {
			if _, err := sys.PlanTrip(driver, partial, planNow, nil); err != nil {
				t.Error(err)
				return
			}
			if j%10 == 9 {
				if _, err := sys.CompactTracking(driver); err != nil {
					t.Error(err)
					return
				}
			}
			sys.LastPlan(driver)
			sys.MobilityUsers()
		}
	}()
	wg.Wait()

	// Quiesced: every user's incremental vector must match the replay
	// oracle, including the compacted ones and the doubly-written user.
	for _, u := range users {
		assertIndexMatchesReplay(t, sys, u, now)
		assertIndexMatchesReplay(t, sys, u, now.Add(72*time.Hour))
	}
	assertIndexMatchesReplay(t, sys, driver, now)

	st := sys.Feedback.Stats()
	if want := int64((nUsers + 1) * eventsPerUser); st.Appends < want {
		t.Fatalf("appends = %d, want ≥ %d", st.Appends, want)
	}
	if st.IndexReads == 0 {
		t.Fatal("no index reads recorded")
	}
	ls := sys.LockStats()
	if ls.Ops == 0 || ls.Shards != userShards {
		t.Fatalf("lock stats = %+v", ls)
	}
	// Every durable write path crossed the commit barrier; with no
	// checkpointer quiescing, the read-side stripes never contend.
	if ls.Barrier.Stripes != userShards || ls.Barrier.Ops == 0 {
		t.Fatalf("barrier stats = %+v", ls.Barrier)
	}
	if ls.Barrier.Quiesces != 0 || ls.Barrier.Contended != 0 {
		t.Fatalf("uncontended run reported barrier contention: %+v", ls.Barrier)
	}
}
