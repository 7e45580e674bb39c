package pphcr

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"pphcr/internal/content"
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
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	now := w.LastPublished().Add(time.Hour)
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
	if err := sys.RecordTrace(user, trace); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := NewWorld(w, 11)
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
	sys, err := NewWorld(w, 1)
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

// twoPassSnapshot is the checkpoint encoder Snapshot replaced: every
// store's section captured into a buffer of its own and embedded in the
// envelope as a json.RawMessage, which the envelope's encoder validates,
// compacts and escapes a second time.
func twoPassSnapshot(s *System, w io.Writer) error {
	var env snapshotEnvelope
	env.Version = snapshotVersion
	for _, sec := range []struct {
		dst   *json.RawMessage
		write func(io.Writer) error
	}{
		{&env.Repo, s.Repo.Snapshot}, {&env.Profiles, s.Profiles.Snapshot},
		{&env.Feedback, s.Feedback.Snapshot}, {&env.Tracking, s.Tracker.Snapshot},
	} {
		var buf bytes.Buffer
		if err := sec.write(&buf); err != nil {
			return err
		}
		*sec.dst = buf.Bytes()
	}
	env.Compacted = make(map[string]int)
	env.Injected = make(map[string][]string)
	for i := range s.shards {
		sh := &s.shards[i]
		for u, n := range sh.compactN {
			env.Compacted[u] = n
		}
		for u, ids := range sh.injected {
			if len(ids) > 0 {
				env.Injected[u] = append([]string(nil), ids...)
			}
		}
	}
	return json.NewEncoder(w).Encode(env)
}

// TestSnapshotIsTheTwoPassEncoding: the one-pass Snapshot writes the
// bytes of the two-pass encoding — on the durability proof's mutation
// script, and with an item and a listener whose strings hold the
// characters the RawMessage path escapes (<, >, & and U+2028), that
// listener's feedback, fixes, injection and compaction included — and an
// empty system's too.
func TestSnapshotIsTheTwoPassEncoding(t *testing.T) {
	w := newTestWorld(t)
	same := func(t *testing.T, sys *System) {
		t.Helper()
		var one, two bytes.Buffer
		if err := sys.Snapshot(&one); err != nil {
			t.Fatal(err)
		}
		if err := twoPassSnapshot(sys, &two); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), two.Bytes()) {
			i := 0
			for i < min(one.Len(), two.Len()) && one.Bytes()[i] == two.Bytes()[i] {
				i++
			}
			t.Fatalf("one pass (%d B) and two passes (%d B) differ from byte %d:\n one: %.200s\n two: %.200s",
				one.Len(), two.Len(), i, one.Bytes()[i:], two.Bytes()[i:])
		}
	}
	empty, err := NewWorld(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	same(t, empty)

	sys, err := NewWorld(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	script, now := buildMutationScript(t, w)
	for i, m := range script {
		if err := m(sys); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	const odd = "<b> & \u2028 \u2029 \"q\" \\"
	persona := w.Personas[0]
	user := "u" + odd
	prof := persona.Profile
	prof.UserID, prof.Name, prof.FavoriteService = user, "name"+odd, "svc"+odd
	if err := sys.RegisterUser(prof); err != nil {
		t.Fatal(err)
	}
	item := &content.Item{
		ID: "item" + odd, Title: "title" + odd, Program: "program" + odd, Kind: content.KindNews,
		Duration: 3 * time.Minute, Published: now.Add(-time.Hour), BitrateKbps: 96,
		Categories: map[string]float64{"music": 0.5, "cat" + odd: 0.5},
	}
	if err := sys.addItem(item); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFeedback(feedback.Event{UserID: user, ItemID: item.ID, Kind: feedback.Like, At: now}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(user, item.ID); err != nil {
		t.Fatal(err)
	}
	trace, _, err := w.CommuteTrace(persona, w.Params.StartDate, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, trace); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\u003c`, `\u0026`, `\u2028`, `\u2029`} {
		if !bytes.Contains(buf.Bytes(), []byte(esc)) {
			t.Fatalf("the snapshot holds no %s: the odd strings did not reach it", esc)
		}
	}
	same(t, sys)
}
