package pphcr

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pphcr/internal/durable"
	"pphcr/internal/synth"
	"pphcr/internal/tracking/trackingtest"
	"pphcr/internal/trajectory"
)

// TestVersion2DataDirectoryOpens: testdata/v2-datadir was written by
// the code before folding — a version-2 checkpoint holding two
// listeners' raw traces and the counts their models were compacted from
// (alice 200 fixes, bruno 200), then a WAL tail of 100 more fixes each
// and a compaction of alice's 300. testdata/v2-digests.json holds the
// digests of the two mobility models that code had built. The directory
// opens to the same models, the restore folds what had closed, and the
// node goes on compacting and checkpointing (now version 3) exactly.
func TestVersion2DataDirectoryOpens(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 5}
	raw, err := os.ReadFile(filepath.Join("testdata", "v2-digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var written map[string]string
	if err := json.Unmarshal(raw, &written); err != nil {
		t.Fatal(err)
	}
	users := []struct {
		name        string
		seed        int64
		compactedAt int
	}{{"alice", 22, 300}, {"bruno", 23, 200}}
	const recorded = 300
	history := func(seed int64) trajectory.Trace { return trackingtest.History(seed, &trackingtest.Shape{}) }

	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "v2-datadir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata", "v2-datadir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(sys, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Crash()
	if !dur.Recovered() || dur.ReplayedEvents() == 0 {
		t.Fatalf("recovered %v, replayed %d events", dur.Recovered(), dur.ReplayedEvents())
	}
	for _, u := range users {
		h := history(u.seed)
		m, ok := sys.MobilityModel(u.name)
		if !ok {
			t.Fatalf("%s: no mobility model", u.name)
		}
		if got := trackingtest.Digest(m); got != written[u.name] {
			t.Fatalf("%s: model digest %s, the version-2 node had %s", u.name, got, written[u.name])
		}
		want, err := trackingtest.Recompact(h[:u.compactedAt])
		if err != nil {
			t.Fatal(err)
		}
		if d := trackingtest.Diff(m, want); d != "" {
			t.Fatalf("%s: %s", u.name, d)
		}
		if n := sys.Tracker.FixCount(u.name); n != recorded {
			t.Fatalf("%s: %d fixes, want %d", u.name, n, recorded)
		}
		if kept, closed := len(sys.Tracker.Trace(u.name)), lastGap(h[:u.compactedAt]); kept != recorded-closed || closed == 0 {
			t.Fatalf("%s: %d raw fixes kept, want %d: the trips closed by fix %d folded", u.name, kept, recorded-closed, closed)
		}
	}

	// The node goes on: the rest of each history, a compaction, and a
	// version-3 checkpoint that restores to the same models.
	for _, u := range users {
		h := history(u.seed)
		for _, f := range h[recorded:] {
			if err := sys.RecordFix(u.name, f); err != nil {
				t.Fatal(err)
			}
		}
		m, err := sys.CompactTracking(u.name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trackingtest.Recompact(h)
		if err != nil {
			t.Fatal(err)
		}
		if d := trackingtest.Diff(m, want); d != "" {
			t.Fatalf("%s after the upgrade: %s", u.name, d)
		}
	}
	var snap bytes.Buffer
	sys.checkpointBarrier(func() { err = sys.Snapshot(&snap) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap.Bytes(), []byte(`{"version":3,`)) {
		t.Fatalf("checkpoint starts %.20q", snap.Bytes())
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		a, _ := sys.MobilityModel(u.name)
		b, _ := restored.MobilityModel(u.name)
		if d := trackingtest.Diff(a, b); d != "" {
			t.Fatalf("%s after a version-3 restore: %s", u.name, d)
		}
	}
}

// lastGap is the index of the last fix of tr that starts a trip (0 when
// none does): every trip before it has closed.
func lastGap(tr trajectory.Trace) int {
	for i := len(tr) - 1; i > 0; i-- {
		if tr[i].Time.Sub(tr[i-1].Time) >= trackingtest.TripGap {
			return i
		}
	}
	return 0
}
