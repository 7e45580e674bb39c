package pphcr

import (
	"bytes"
	"io"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// TestFlatRecordsRoundTrip: feedback events and fixes written with
// instants in a zone other than UTC come back with the same instants, in
// UTC, the same kinds and the same category maps from every read and on
// every path a write reaches a node by: the live stores (Events, ByUser,
// Trace), WAL recovery and checkpoint restore. An event about a catalog
// item keeps the item's own ID string, not the caller's copy of it.
func TestFlatRecordsRoundTrip(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 3}
	node := func() *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addCatalog(t, sys, 4)
		return sys
	}
	zone := time.FixedZone("UTC+05:30", 5*3600+1800)
	at0 := time.Date(2016, 11, 21, 13, 30, 0, 123456789, zone)

	dir := t.TempDir()
	live := node()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	items := live.Repo.All()
	var wantEvents []feedback.Event
	for i := 0; i < 8; i++ {
		e := feedback.Event{
			UserID: "lilly", ItemID: strings.Clone(items[i%len(items)].ID), Kind: feedback.Kind(i % 4),
			At: at0.Add(time.Duration(i) * time.Minute), Categories: maps.Collect(items[i%len(items)].Weights()),
		}
		switch i {
		case 5:
			e.Categories = map[string]float64{"food": 0.7, "culture": 0.3}
		case 6:
			e.ItemID = "not-in-catalog"
		}
		if err := live.AddFeedback(e); err != nil {
			t.Fatal(err)
		}
		e.At = e.At.UTC()
		wantEvents = append(wantEvents, e)
	}
	var wantTrace trajectory.Trace
	for i := 0; i < 6; i++ {
		f := trajectory.Fix{
			Point: geo.Destination(geo.Point{Lat: 45.0703, Lon: 7.6869}, float64(40*i), float64(90*i)),
			Time:  at0.Add(time.Duration(i)*30*time.Second + time.Duration(i)),
		}
		if err := live.RecordFix("lilly", f); err != nil {
			t.Fatal(err)
		}
		f.Time = f.Time.UTC()
		wantTrace = append(wantTrace, f)
	}

	check := func(t *testing.T, sys *System) {
		t.Helper()
		for name, got := range map[string][]feedback.Event{
			"Events": sys.Feedback.Events("lilly"),
			"ByUser": sys.Feedback.ByUser("lilly"),
		} {
			if !reflect.DeepEqual(got, wantEvents) {
				t.Fatalf("%s:\n got %v\nwant %v", name, got, wantEvents)
			}
			for i, e := range got {
				if e.At.Location() != time.UTC {
					t.Fatalf("%s: event %d At in %v, want UTC", name, i, e.At.Location())
				}
				if it, ok := sys.Repo.Get(e.ItemID); ok && unsafe.StringData(e.ItemID) != unsafe.StringData(it.ID) {
					t.Fatalf("%s: event %d holds its own copy of the ID %q", name, i, e.ItemID)
				}
			}
		}
		if got := sys.Tracker.Trace("lilly"); !reflect.DeepEqual(got, wantTrace) {
			t.Fatalf("Trace:\n got %v\nwant %v", got, wantTrace)
		}
	}
	t.Run("live", func(t *testing.T) { check(t, live) })

	var buf bytes.Buffer
	live.checkpointBarrier(func() { err = live.Snapshot(&buf) })
	if err != nil {
		t.Fatal(err)
	}
	dur.Crash()
	t.Run("WAL replay", func(t *testing.T) {
		recovered := node()
		rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer rdur.Crash()
		if rdur.ReplayedEvents() != len(wantEvents)+len(wantTrace) {
			t.Fatalf("replayed %d events, want %d", rdur.ReplayedEvents(), len(wantEvents)+len(wantTrace))
		}
		check(t, recovered)
	})
	t.Run("checkpoint restore", func(t *testing.T) {
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		check(t, restored)
	})
}

// TestSeqKeyedEventsRoundTrip pushes the three ways the log keeps an
// event through every path: one about a catalog item with the item's
// categories (its seq alone), one about an item the catalog does not
// hold and one about a catalog item with other categories (each a side
// entry). Live, after checkpoint restore, after a compaction that folds
// an older side entry away, and after WAL replay of all of it, each
// comes back with its ID string and map — the catalog item's weights
// for the first, the catalog's ID string for the third — and the preference
// index equals the replay oracle bit for bit. The folded event is one
// half-life older than the rest and the vectors are read at the
// survivors' instant, so every decay factor is 0.5 or 1 and exact.
func TestSeqKeyedEventsRoundTrip(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 3}
	node := func() *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addCatalog(t, sys, 2)
		return sys
	}
	params := feedback.DefaultPreferenceParams()
	now := shareT0
	dir := t.TempDir()
	live := node()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	items := live.Repo.All()
	other := map[string]float64{"food": 0.7, "culture": 0.3}
	old := feedback.Event{UserID: "lilly", ItemID: "long-gone", Kind: feedback.Like, At: now.Add(-params.HalfLife), Categories: other}
	want := []feedback.Event{
		{UserID: "lilly", ItemID: strings.Clone(items[0].ID), Kind: feedback.Like, At: now, Categories: maps.Collect(items[0].Weights())},
		{UserID: "lilly", ItemID: "not-in-catalog", Kind: feedback.Skip, At: now, Categories: maps.Clone(other)},
		{UserID: "lilly", ItemID: strings.Clone(items[1].ID), Kind: feedback.Dislike, At: now, Categories: map[string]float64{"sport": 1}},
	}
	for _, e := range append([]feedback.Event{old}, want...) {
		if err := live.AddFeedback(e); err != nil {
			t.Fatal(err)
		}
	}

	check := func(t *testing.T, sys *System, want []feedback.Event) {
		t.Helper()
		events, byUser := sys.Feedback.Events("lilly"), sys.Feedback.ByUser("lilly")
		if !reflect.DeepEqual(events, want) || !reflect.DeepEqual(byUser, want) {
			t.Fatalf("read back\n Events %v\n ByUser %v\nwant   %v", events, byUser, want)
		}
		for i, e := range events {
			it, ok := sys.Repo.Get(e.ItemID)
			if ok && unsafe.StringData(e.ItemID) != unsafe.StringData(it.ID) {
				t.Fatalf("event %d holds its own copy of the ID %q", i, e.ItemID)
			}
			if sameMap(byUser[i].Categories, e.Categories) {
				t.Fatalf("event %d: ByUser hands out the store's map", i)
			}
		}
		index := sys.Feedback.Preferences(nil, "lilly", now, params).Map()
		replay := sys.Feedback.PreferencesReplay("lilly", now, params)
		if !reflect.DeepEqual(index, replay) {
			t.Fatalf("index %v, replay %v", index, replay)
		}
	}
	withOld := append([]feedback.Event{old}, want...)
	withOld[0].At = withOld[0].At.UTC()
	t.Run("live", func(t *testing.T) { check(t, live, withOld) })
	t.Run("checkpoint restore", func(t *testing.T) {
		var buf bytes.Buffer
		live.checkpointBarrier(func() { err = live.Snapshot(&buf) })
		if err != nil {
			t.Fatal(err)
		}
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		check(t, restored, withOld)
	})
	if n := live.CompactFeedback("lilly", now, time.Hour); n != 1 {
		t.Fatalf("compaction folded %d events, want 1", n)
	}
	t.Run("compacted", func(t *testing.T) { check(t, live, want) })
	dur.Crash()
	t.Run("WAL replay", func(t *testing.T) {
		recovered := node()
		rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer rdur.Crash()
		check(t, recovered, want)
	})
}

// TestFlatLogsUnderConcurrentReads races feedback and fix writers
// against every read of the flat logs — Events, ByUser, the feedback
// store's Snapshot and Compact, Trace and CompactN (through
// CompactTracking) — and then checks that each user's logs hold every
// write compaction left, in order; under -race it is the proof that a read never sees a
// record half written.
func TestFlatLogsUnderConcurrentReads(t *testing.T) {
	sys, w := newTestSystem(t)
	items := addCatalog(t, sys, 40)
	users := []string{"u0", "u1", "u2", "u3"}
	full, _, err := w.CommuteTrace(w.Personas[0], shareT0, true)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 300
	var wg sync.WaitGroup
	for wi, u := range users {
		wg.Add(1)
		go func(wi int, u string) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				it := items[(i*7+wi)%len(items)]
				at := shareT0.Add(time.Duration(i) * time.Second)
				if err := sys.AddFeedback(feedback.Event{
					UserID: u, ItemID: it.ID, Kind: feedback.Kind(i % 4), At: at, Categories: it.Categories,
				}); err != nil {
					t.Error(err)
					return
				}
				f := full[i%len(full)]
				f.Time = at
				if err := sys.RecordFix(u, f); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi, u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			u := users[j%len(users)]
			switch j % 6 {
			case 0:
				sys.Feedback.Events(u)
			case 1:
				for _, e := range sys.Feedback.ByUser(u) {
					e.Categories["scribble"] = 1
				}
			case 2:
				if err := sys.Feedback.Snapshot(io.Discard); err != nil {
					t.Error(err)
					return
				}
			case 3:
				// Folds the user's first minute of events, once written.
				sys.Feedback.Compact(u, shareT0.Add(2*time.Minute), time.Minute)
			case 4:
				sys.Tracker.Trace(u)
			case 5:
				sys.CompactTracking(u) // no trips yet is an answer too
			}
		}
	}()
	wg.Wait()

	if t.Failed() {
		return
	}
	for _, u := range users {
		trace := sys.Tracker.Trace(u)
		if len(trace) != writes {
			t.Fatalf("%s: %d fixes, want %d", u, len(trace), writes)
		}
		evs := sys.Feedback.Events(u)
		if folded := writes - len(evs); folded < 0 || folded > 60 {
			t.Fatalf("%s: %d events left of %d; compaction folds the first minute at most", u, len(evs), writes)
		}
		for i := range trace {
			at := shareT0.Add(time.Duration(i) * time.Second)
			if !trace[i].Time.Equal(at) {
				t.Fatalf("%s: fix %d at %v, want %v", u, i, trace[i].Time, at)
			}
			if k := i - (writes - len(evs)); k >= 0 && (!evs[k].At.Equal(at) || evs[k].Kind != feedback.Kind(i%4)) {
				t.Fatalf("%s: write %d read back as %v at %v", u, i, evs[k].Kind, evs[k].At)
			}
		}
		assertIndexMatchesReplay(t, sys, u, shareT0.Add(time.Hour))
	}
}
