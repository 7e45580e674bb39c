package pphcr

import (
	"errors"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/feedback"
	"pphcr/internal/profile"
	"pphcr/internal/radiodns"
	"pphcr/internal/recommend"
)

// skipFixture builds a system with content and a directory of its own:
// one service with a program on air.
func skipFixture(t *testing.T) (*System, time.Time) {
	w := newTestWorld(t)
	sys, err := New(Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	now := w.LastPublished().Add(time.Hour)
	if err := sys.Directory.AddService(&radiodns.Service{
		ID: "radio1", Name: "R1", GCC: "5e0", PI: "5201", Frequency: 8990,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Directory.AddProgram(&radiodns.Program{
		ID: "football-talk", ServiceID: "radio1", Title: "Endless football talk",
		Start: now.Add(-10 * time.Minute), Duration: time.Hour,
		Categories:  map[string]float64{"sport": 1},
		Replaceable: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterUser(profile.Profile{
		UserID: "greg", Interests: []string{"technology", "economics"},
	}); err != nil {
		t.Fatal(err)
	}
	return sys, now
}

func TestSkipLiveRecordsFeedbackAndRecommends(t *testing.T) {
	sys, now := skipFixture(t)
	ctx := recommend.Context{Now: now}
	sc, err := sys.SkipLive("greg", "radio1", ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The skip landed against the on-air program with its categories.
	events := sys.Feedback.ByUser("greg")
	if len(events) != 1 || events[0].Kind != feedback.Skip || events[0].ItemID != "football-talk" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Categories["sport"] != 1 {
		t.Fatal("program categories not denormalized")
	}
	// The replacement matches Greg's interests.
	top := sc.Item.TopCategory()
	if top != "technology" && top != "economics" {
		t.Fatalf("replacement category = %q", top)
	}
	// The skip feedback immediately depresses sport in the preferences.
	if prefs := sys.Preferences("greg", now).Map(); prefs["sport"] >= 0 {
		t.Fatalf("sport pref = %v after skip", prefs["sport"])
	}
}

func TestSkipClipWalksDownTheList(t *testing.T) {
	sys, now := skipFixture(t)
	ctx := recommend.Context{Now: now}
	// An established taste: a few likes so that single skips cannot drive
	// whole categories negative (a skip outweighs the 0.5 seed alone).
	for _, cat := range []string{"technology", "economics"} {
		for i, it := range sys.Repo.ByCategory(cat) {
			if i >= 3 {
				break
			}
			if err := sys.AddFeedback(feedback.Event{
				UserID: "greg", ItemID: it.ID, Kind: feedback.Like,
				At: now.Add(-2 * time.Hour),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, err := sys.SkipLive("greg", "radio1", ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.SkipClip("greg", first.Item.ID, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.Item.ID == first.Item.ID {
		t.Fatal("skip returned the same item")
	}
	third, err := sys.SkipClip("greg", second.Item.ID, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if third.Item.ID == first.Item.ID || third.Item.ID == second.Item.ID {
		t.Fatal("skipped item returned again")
	}
}

func TestSkipLiveNoSchedule(t *testing.T) {
	sys, now := skipFixture(t)
	// Unknown service: no program feedback, but a recommendation still
	// comes back (the user zapped from an unmanaged tuner).
	sc, err := sys.SkipLive("greg", "ghost-service", recommend.Context{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Item == nil {
		t.Fatal("no recommendation")
	}
	if len(sys.Feedback.ByUser("greg")) != 0 {
		t.Fatal("feedback recorded for unknown program")
	}
}

func TestSkipExhaustsAlternatives(t *testing.T) {
	sys, w := newTestSystem(t)
	_ = w
	if err := sys.RegisterUser(profile.Profile{UserID: "u", Interests: []string{"food"}}); err != nil {
		t.Fatal(err)
	}
	// Empty repository: nothing to recommend.
	_, err := sys.SkipLive("u", "radio1", recommend.Context{Now: time.Now()})
	if !errors.Is(err, ErrNoAlternative) {
		t.Fatalf("err = %v, want ErrNoAlternative", err)
	}
}

// TestSkipAndPlanStayInsideCandidateWindow: neither skip path nor a
// plan returns an item published before now − candidateWindow, whether
// the listener's skip set is empty or holds every item inside the
// window, which leaves only older items unskipped. Dropping a skip-set
// entry once its item falls out of the window (ROADMAP item 9) relies
// on this.
func TestSkipAndPlanStayInsideCandidateWindow(t *testing.T) {
	sys, w, user := newWarmableSystem(t)
	partial, now := commutePartial(t, w, 3*time.Minute, 7)
	cut := now.Add(-candidateWindow)
	var inside, outside []*content.Item
	for _, it := range sys.Repo.All() {
		if it.Published.Before(cut) {
			outside = append(outside, it)
		} else {
			inside = append(inside, it)
		}
	}
	if len(inside) == 0 || len(outside) == 0 {
		t.Fatalf("%d items inside the window and %d before it; the test needs both", len(inside), len(outside))
	}
	// The world's radio1 has a program on air at now.
	if _, err := sys.Directory.ProgramAt("radio1", now); err != nil {
		t.Fatal(err)
	}
	ctx := recommend.Context{Now: now}
	check := func(label string, emptySet bool) {
		t.Helper()
		var got []*content.Item
		tp, err := sys.PlanTrip(user, partial, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range tp.Plan.Items {
			got = append(got, it.Scored.Item)
		}
		live, err := sys.SkipLive(user, "radio1", ctx)
		if err == nil {
			got = append(got, live.Item)
		} else if !errors.Is(err, ErrNoAlternative) {
			t.Fatal(err)
		}
		clip, err := sys.SkipClip(user, inside[0].ID, ctx)
		if err == nil {
			got = append(got, clip.Item)
		} else if !errors.Is(err, ErrNoAlternative) {
			t.Fatal(err)
		}
		if emptySet && (len(tp.Plan.Items) == 0 || live.Item == nil || clip.Item == nil) {
			t.Fatalf("%s: plan of %d items, skip replacements %v and %v; the check needs all three", label, len(tp.Plan.Items), live.Item, clip.Item)
		}
		for _, it := range got {
			if it.Published.Before(cut) {
				t.Fatalf("%s: %s published %v, before the window's start %v", label, it.ID, it.Published, cut)
			}
		}
	}
	check("empty skip set", true)
	// A dislike with no categories adds its item to the skip set and
	// leaves the preference vector as it was.
	for _, it := range inside {
		if err := sys.AddFeedback(feedback.Event{UserID: user, ItemID: it.ID, Kind: feedback.Dislike, At: now}); err != nil {
			t.Fatal(err)
		}
	}
	check("every item inside the window skipped", false)
}

// TestRecommendLeavesOutWhatTheUserSkipped: after a dislike of the top
// recommendation and a SkipClip of the next one, Preview and Recommend
// return neither, as a plan would not; an editorial injection stays
// pinned first.
func TestRecommendLeavesOutWhatTheUserSkipped(t *testing.T) {
	sys, now := skipFixture(t)
	ctx := recommend.Context{Now: now}
	for _, cat := range []string{"technology", "economics"} {
		for i, it := range sys.Repo.ByCategory(cat) {
			if i >= 3 {
				break
			}
			if err := sys.AddFeedback(feedback.Event{
				UserID: "greg", ItemID: it.ID, Kind: feedback.Like, At: now.Add(-2 * time.Hour),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := sys.Recommend("greg", ctx, 5)
	if len(before) < 3 {
		t.Fatalf("%d recommendations before the skips", len(before))
	}
	disliked, skipped, pin := before[0].Item.ID, before[1].Item.ID, before[2].Item.ID
	if err := sys.AddFeedback(feedback.Event{UserID: "greg", ItemID: disliked, Kind: feedback.Dislike, At: now}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SkipClip("greg", skipped, ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject("greg", pin); err != nil {
		t.Fatal(err)
	}
	for _, read := range []struct {
		name string
		recs []recommend.Scored
	}{
		{"Preview", sys.Preview("greg", ctx, 5)},
		{"Recommend", sys.Recommend("greg", ctx, 5)},
	} {
		if len(read.recs) == 0 || read.recs[0].Item.ID != pin {
			t.Fatalf("%s: the injected %s is not pinned first", read.name, pin)
		}
		for i, sc := range read.recs {
			if id := sc.Item.ID; id == disliked || id == skipped || i > 0 && id == pin {
				t.Fatalf("%s returns %s at rank %d (disliked %s, skipped %s, pinned %s)", read.name, id, i+1, disliked, skipped, pin)
			}
		}
	}
}
