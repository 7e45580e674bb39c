package pphcr

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pphcr/internal/feedback"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
)

func TestSystemSnapshotRestore(t *testing.T) {
	sys, w := newTestSystem(t)
	persona := w.Personas[0]
	user := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	var newest time.Time
	for _, raw := range w.Corpus {
		if _, err := sys.IngestPodcast(raw); err != nil {
			t.Fatal(err)
		}
		if raw.Published.After(newest) {
			newest = raw.Published
		}
	}
	now := newest.Add(time.Hour)
	for i, it := range sys.Repo.All() {
		if i >= 3 {
			break
		}
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Like,
			At: now.Add(-time.Hour),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Track one commute so tracking state round-trips too.
	trace, _, err := w.CommuteTrace(persona, w.Params.StartDate, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, fix := range trace {
		if err := sys.RecordFix(user, fix); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := New(Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Repo.Len() != sys.Repo.Len() {
		t.Fatalf("repo size: %d vs %d", restored.Repo.Len(), sys.Repo.Len())
	}
	if restored.Profiles.Len() != 1 || restored.Feedback.Len() != sys.Feedback.Len() {
		t.Fatal("profiles/feedback not restored")
	}
	if restored.Tracker.FixCount(user) != sys.Tracker.FixCount(user) {
		t.Fatal("tracking not restored")
	}
	// Recommendations are identical on the restored system.
	ctx := recommend.Context{Now: now}
	a := sys.Recommend(user, ctx, 5)
	b := restored.Recommend(user, ctx, 5)
	if len(a) != len(b) {
		t.Fatalf("recommendation sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Item.ID != b[i].Item.ID {
			t.Fatalf("rank %d differs: %s vs %s", i, a[i].Item.ID, b[i].Item.ID)
		}
	}
}

func TestSystemRestoreValidation(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{Seed: 1, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{TrainingDocs: w.Training})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(strings.NewReader("{bad")); err == nil {
		t.Fatal("bad json accepted")
	}
	for _, v := range []string{`{"version":1}`, `{"version":99}`} {
		if err := sys.Restore(strings.NewReader(v)); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Fatalf("Restore(%s) = %v, want unsupported snapshot version", v, err)
		}
	}
}
