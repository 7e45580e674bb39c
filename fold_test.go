package pphcr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pphcr/internal/durable"
	"pphcr/internal/synth"
	"pphcr/internal/tracking"
	"pphcr/internal/tracking/trackingtest"
	"pphcr/internal/trajectory"
)

// TestFoldedModelsMatchRecompaction is the fold oracle on a node: 200
// listeners' seeded commute histories (up to 240 fixes) are recorded in interleaved random
// batches with compactions between them and a checkpoint mid-way, and
// every listener's mobility model equals, float bit for float bit, the
// full recompaction of the fixes it was compacted from — live, after
// WAL replay over the checkpoint, after checkpoint restore, and on a
// follower that applied the shipped events.
func TestFoldedModelsMatchRecompaction(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 5}
	node := func() *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	const users = 200
	names := make([]string, users)
	histories := make([]trajectory.Trace, users)
	var shape trackingtest.Shape
	for u := range names {
		names[u] = fmt.Sprintf("listener-%03d", u)
		h := trackingtest.History(int64(1000+u), &shape)
		histories[u] = h[:min(len(h), 240)] // a few days each keeps the race step short
	}

	dir := t.TempDir()
	live := node()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	var shipped []durable.Event
	hook := live.durHook
	live.SetMutationHook(func(e durable.Event) error {
		shipped = append(shipped, e)
		return hook(e)
	})

	rng := rand.New(rand.NewSource(5))
	recorded := make([]int, users)
	pinned := make(map[string]int) // user → fixes the live model was compacted from
	left := users
	for step := 0; left > 0; step++ {
		u := rng.Intn(users)
		h := histories[u]
		if recorded[u] == len(h) {
			continue
		}
		for k := 1 + rng.Intn(120); k > 0 && recorded[u] < len(h); k-- {
			if err := live.RecordFix(names[u], h[recorded[u]]); err != nil {
				t.Fatal(err)
			}
			recorded[u]++
		}
		if recorded[u] == len(h) {
			left--
		}
		if rng.Intn(2) == 0 {
			if _, err := live.CompactTracking(names[u]); err == nil {
				pinned[names[u]] = recorded[u]
			}
		}
		if step == 600 {
			if err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(pinned) < users/2 {
		t.Fatalf("only %d of %d listeners compacted", len(pinned), users)
	}

	oracle := make(map[string]*tracking.CompactModel)
	for u, name := range names {
		if n, ok := pinned[name]; ok {
			if oracle[name], err = trackingtest.Recompact(histories[u][:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, sys *System) {
		t.Helper()
		for u, name := range names {
			m, ok := sys.MobilityModel(name)
			if want, compacted := oracle[name]; ok != compacted {
				t.Fatalf("%s: model %v, compacted %v", name, ok, compacted)
			} else if d := trackingtest.Diff(m, want); d != "" {
				t.Fatalf("%s, compacted from %d fixes: %s", name, pinned[name], d)
			}
			if got := sys.Tracker.FixCount(name); got != recorded[u] {
				t.Fatalf("%s: %d fixes, want %d", name, got, recorded[u])
			}
		}
	}
	t.Run("live", func(t *testing.T) { check(t, live) })

	var snap bytes.Buffer
	live.checkpointBarrier(func() { err = live.Snapshot(&snap) })
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.SyncWAL(); err != nil {
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
		if rdur.ReplayedEvents() == 0 || rdur.ReplayedEvents() >= len(shipped) {
			t.Fatalf("replayed %d of %d events over a mid-way checkpoint", rdur.ReplayedEvents(), len(shipped))
		}
		check(t, recovered)
	})
	t.Run("checkpoint restore", func(t *testing.T) {
		restored := node()
		if err := restored.Restore(&snap); err != nil {
			t.Fatal(err)
		}
		check(t, restored)
	})
	t.Run("follower", func(t *testing.T) {
		follower := node()
		for _, e := range shipped {
			if err := follower.ApplyReplicated(e); err != nil {
				t.Fatal(err)
			}
		}
		check(t, follower)
	})
}

// TestFoldConcurrentRecordCompactCheckpoint races one listener's fixes
// against compactions of that listener and checkpoints. Under -race it
// is the proof that a fold never tears the state a checkpoint encodes
// or a fix appends to; after it, the last compaction equals the full
// recompaction and a recovery from the directory rebuilds it.
func TestFoldConcurrentRecordCompactCheckpoint(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 5}
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	h := trackingtest.History(23, &trackingtest.Shape{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, f := range h {
			if err := live.RecordFix("u", f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	loop := func(f func() error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := f(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	go loop(func() error {
		// No fixes or no trip yet is an answer too; a refused count is not.
		if _, err := live.CompactTracking("u"); errors.Is(err, tracking.ErrFolded) {
			return err
		}
		return nil
	})
	go loop(dur.Checkpoint)
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := live.CompactTracking("u")
	if err != nil {
		t.Fatal(err)
	}
	want, err := trackingtest.Recompact(h)
	if err != nil {
		t.Fatal(err)
	}
	if d := trackingtest.Diff(got, want); d != "" {
		t.Fatal(d)
	}
	if kept := len(live.Tracker.Trace("u")); kept != len(h)-lastGap(h) {
		t.Fatalf("%d raw fixes kept, want %d", kept, len(h)-lastGap(h))
	}
	if err := dur.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	dur.Crash()
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer rdur.Crash()
	m, _ := recovered.MobilityModel("u")
	if d := trackingtest.Diff(m, want); d != "" {
		t.Fatalf("recovered: %s", d)
	}
}
