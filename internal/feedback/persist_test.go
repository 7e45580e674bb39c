package feedback

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"pphcr/internal/content"
)

func TestFeedbackSnapshotRestore(t *testing.T) {
	s := NewStore()
	cats := map[string]float64{"food": 0.7, "culture": 0.3}
	for i := 0; i < 5; i++ {
		if err := s.Append(Event{
			UserID: "lilly", ItemID: "it", Kind: Like,
			At: t0.Add(time.Duration(i) * time.Hour), Categories: cats,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(Event{UserID: "greg", Kind: Skip, At: t0, Categories: map[string]float64{"sport": 1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("event counts differ: %d vs %d", restored.Len(), s.Len())
	}
	// Derived preferences match exactly.
	now := t0.Add(24 * time.Hour)
	a := prefsOf(s, "lilly", now, DefaultPreferenceParams())
	b := prefsOf(restored, "lilly", now, DefaultPreferenceParams())
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("preference %q differs: %v vs %v", k, v, b[k])
		}
	}
	// Per-user order preserved.
	ev := restored.ByUser("lilly")
	for i := 1; i < len(ev); i++ {
		if ev[i].At.Before(ev[i-1].At) {
			t.Fatal("event order lost")
		}
	}
}

func TestFeedbackRestoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.Append(Event{UserID: "u", Kind: Like, At: t0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(strings.NewReader("{}")); err == nil {
		t.Fatal("restore into non-empty store accepted")
	}
	fresh := NewStore()
	if err := fresh.Restore(strings.NewReader("nope")); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestFeedbackSnapshotRestoreCompacted(t *testing.T) {
	s := NewStore()
	params := DefaultPreferenceParams()
	at := t0
	for i := 0; i < 200; i++ {
		at = at.Add(time.Hour)
		if err := s.Append(Event{UserID: "lilly", ItemID: "it", Kind: Like, At: at, Categories: map[string]float64{"food": 0.7, "culture": 0.3}}); err != nil {
			t.Fatal(err)
		}
	}
	now := at.Add(time.Hour)
	if n := s.Compact("lilly", now, 48*time.Hour); n == 0 {
		t.Fatal("nothing compacted")
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("live event counts differ: %d vs %d", restored.Len(), s.Len())
	}
	a := prefsOf(s, "lilly", now, params)
	b := prefsOf(restored, "lilly", now, params)
	for k, v := range a {
		if diff := v - b[k]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("preference %q differs: %v vs %v", k, v, b[k])
		}
	}
	ar := s.PreferencesReplay("lilly", now, params)
	br := restored.PreferencesReplay("lilly", now, params)
	for k, v := range ar {
		if diff := v - br[k]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("replay preference %q differs: %v vs %v", k, v, br[k])
		}
	}
	// Restoring into a store holding only a baseline must be refused too.
	if err := restored.Restore(strings.NewReader(`{"version":2,"users":{}}`)); err == nil {
		t.Fatal("restore into non-empty (baseline-only) store accepted")
	}
}

// TestFeedbackRestoreSkipsInstantsARecordCannotHold: a checkpoint from
// an older node may hold an event dated after 2262, which Append now
// refuses. Restore skips that event and keeps the others.
func TestFeedbackRestoreSkipsInstantsARecordCannotHold(t *testing.T) {
	body := `{"version":2,"users":{"greg":{"events":[
		{"UserID":"greg","ItemID":"a","Kind":2,"At":"2016-11-15T08:00:00Z","Categories":{"sport":1}},
		{"UserID":"greg","ItemID":"b","Kind":2,"At":"2300-01-01T00:00:00Z","Categories":{"music":1}},
		{"UserID":"greg","ItemID":"c","Kind":1,"At":"2016-11-15T09:00:00Z","Categories":{"news":1}}]}}}`
	s := NewStore()
	if err := s.Restore(strings.NewReader(body)); err != nil {
		t.Fatalf("restore aborted on the 2300 event: %v", err)
	}
	ev := s.Events("greg")
	if len(ev) != 2 || ev[0].ItemID != "a" || ev[1].ItemID != "c" {
		t.Fatalf("restored %+v, want events a and c", ev)
	}
}

// TestFeedbackRestoreRefusesOldVersions: only the current format loads.
// Version 0 (raw per-user logs) and version 1 predate every data
// directory the WAL accepts, and no reader is kept for them.
func TestFeedbackRestoreRefusesOldVersions(t *testing.T) {
	for _, body := range []string{
		`{"users":{"greg":[{"UserID":"greg","ItemID":"x","Kind":2,"At":"2016-11-15T08:00:00Z","Categories":{"sport":1}}]}}`,
		`{"version":1,"users":{}}`,
		`{"version":9,"users":{}}`,
	} {
		err := NewStore().Restore(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Errorf("Restore(%s) = %v, want unsupported snapshot version", body, err)
		}
	}
}

// TestSnapshotWritesEventsAsEncodingJSON: Snapshot writes each event's
// categories from the catalog item or side entry, with no map built,
// and the bytes are those encoding/json writes for the events Events
// returns: keys in name order, escapes and number forms alike. A weight
// JSON cannot hold fails the snapshot, as it fails encoding/json.
func TestSnapshotWritesEventsAsEncodingJSON(t *testing.T) {
	repo := content.NewRepository()
	if err := repo.Add(&content.Item{
		ID: "clip-0", Kind: content.KindClip, Duration: time.Minute, Published: t0,
		Categories: map[string]float64{"food": 0.1 + 1e-9, "music": 1e-7, "news": 0.9},
	}); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.ShareCatalog(repo.Seq, repo.ItemAt)
	odd := map[string]float64{
		"a<b&c>": 1e-6, `q"uote\`: 5e-324, "é": 1e21, "tab\t": -1e-9, " ": math.Copysign(0, -1),
		"x\xffy": 123456789.125, "zero": 0, "big": -3.5e300,
	}
	for i, e := range []Event{
		{UserID: "lilly", ItemID: "clip-0", Kind: Like},
		{UserID: "lilly", ItemID: "clip-0", Kind: Skip, Categories: odd},
		{UserID: "lilly", ItemID: "gone", Kind: Dislike, Categories: map[string]float64{}},
		{UserID: "greg", ItemID: "gone<&>", Kind: ImplicitListen, Categories: odd},
	} {
		e.At = t0.Add(time.Duration(i) * time.Minute)
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot[Event]{Version: snapshotVersion, Users: map[string]userSnapshot[Event]{}}
	for _, u := range []string{"lilly", "greg"} {
		want.Users[u] = userSnapshot[Event]{Events: s.Events(u), Skipped: s.skippedIDs(s.shardFor(u).users[u])}
	}
	var wantBuf, got bytes.Buffer
	if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("snapshot\n%s\nencoding/json writes\n%s", got.Bytes(), wantBuf.Bytes())
	}

	if err := s.Append(Event{UserID: "greg", ItemID: "nan", Kind: Like, At: t0, Categories: map[string]float64{"food": math.NaN()}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(io.Discard); err == nil {
		t.Fatal("a NaN weight snapshotted")
	}
}
