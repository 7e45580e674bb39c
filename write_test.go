package pphcr

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/profile"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

var errRefused = errors.New("test hook: append refused")

func refuseAll(durable.Event) error { return errRefused }

func snapshotBytes(t testing.TB, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRefusedWriteLeavesStateUnchanged: every write is checked, logged,
// then applied, so a write whose WAL append the hook refused changes
// nothing. The snapshot is the same bytes, the plan cache sees no
// invalidation and the broker no publish, and the caller gets
// ErrNotLogged (consume and feedback compaction, which cannot return
// one, count it). With the hook detached the same write goes through.
func TestRefusedWriteLeavesStateUnchanged(t *testing.T) {
	sys, w := newTestSystem(t)
	p := w.Personas[0]
	user := p.Profile.UserID
	if err := sys.RegisterUser(p.Profile); err != nil {
		t.Fatal(err)
	}
	var ids []string
	var newest time.Time
	for _, raw := range w.Corpus[:3] {
		it, err := sys.IngestPodcast(raw)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, it.ID)
		if raw.Published.After(newest) {
			newest = raw.Published
		}
	}
	now := newest.Add(time.Hour)
	// A day's two commutes: the morning trip has closed, so a compaction
	// folds it.
	commutes, err := w.Commutes(p, w.Params.StartDate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		t.Fatal(err)
	}
	last := commutes[len(commutes)-1]
	event := func(kind feedback.Kind, at time.Time) feedback.Event {
		it, _ := sys.Repo.Get(ids[0])
		return feedback.Event{UserID: user, ItemID: it.ID, Kind: kind, At: at}
	}
	// Two events old enough for a feedback compaction to fold.
	for i := 0; i < 2; i++ {
		if err := sys.AddFeedback(event(feedback.Like, now.Add(-time.Duration(72+i)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}

	notLogged := func(err error) error {
		if !errors.Is(err, ErrNotLogged) {
			return fmt.Errorf("error %v, want ErrNotLogged", err)
		}
		return nil
	}
	countedOnce := func(do func() bool) func(refused bool) error {
		return func(refused bool) error {
			before := sys.emitErrs.Load()
			wrote := do()
			switch got := sys.emitErrs.Load() - before; {
			case refused && (got != 1 || wrote):
				return fmt.Errorf("refused: %d emit errors counted, wrote=%v; want 1 and false", got, wrote)
			case !refused && (got != 0 || !wrote):
				return fmt.Errorf("detached: %d emit errors counted, wrote=%v; want 0 and true", got, wrote)
			}
			return nil
		}
	}
	fix := trajectory.Fix{Point: last.Point, Time: last.Time.Add(time.Minute)}
	cases := []struct {
		name string
		// write runs the write and judges its outcome: refused tells it
		// whether the hook refuses.
		write func(refused bool) error
	}{
		{"register", func(refused bool) error {
			return expect(refused, sys.RegisterUser(profile.Profile{UserID: "newcomer", Interests: []string{"music"}}), notLogged)
		}},
		{"ingest", func(refused bool) error {
			_, err := sys.IngestPodcast(w.Corpus[3])
			return expect(refused, err, notLogged)
		}},
		{"fix", func(refused bool) error {
			return expect(refused, sys.RecordFix(user, fix), notLogged)
		}},
		{"feedback", func(refused bool) error {
			return expect(refused, sys.AddFeedback(event(feedback.Like, now)), notLogged)
		}},
		{"skip", func(refused bool) error {
			return expect(refused, sys.AddFeedback(event(feedback.Skip, now)), notLogged)
		}},
		{"dislike", func(refused bool) error {
			return expect(refused, sys.AddFeedback(event(feedback.Dislike, now)), notLogged)
		}},
		{"compact", func(refused bool) error {
			_, err := sys.CompactTracking(user)
			return expect(refused, err, notLogged)
		}},
		{"feedback-compact", countedOnce(func() bool {
			return sys.CompactFeedback(user, now, 48*time.Hour) > 0
		})},
		{"inject", func(refused bool) error {
			return expect(refused, sys.Inject(user, ids[1]), notLogged)
		}},
		{"consume", countedOnce(func() bool {
			return len(sys.consumeInjections(user)) > 0
		})},
	}
	published, err := sys.Broker.Bind("every-topic", "#")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.name == "consume" {
			// The inject case above left one pending.
			if got := sys.PendingInjections(user); len(got) != 1 {
				t.Fatalf("pending injections before consume: %v", got)
			}
		}
		before := snapshotBytes(t, sys)
		cache := sys.PlanCache.Stats()
		queued := published.Len()
		sys.SetMutationHook(refuseAll)
		if err := c.write(true); err != nil {
			t.Fatalf("%s, hook refusing: %v", c.name, err)
		}
		if after := snapshotBytes(t, sys); !bytes.Equal(before, after) {
			t.Fatalf("%s: a refused write changed the snapshot (%d → %d B)", c.name, len(before), len(after))
		}
		if got := sys.PlanCache.Stats(); got.UserInvalidations != cache.UserInvalidations || got.EpochInvalidations != cache.EpochInvalidations {
			t.Fatalf("%s: a refused write invalidated warm plans: %+v → %+v", c.name, cache, got)
		}
		if got := published.Len(); got != queued {
			t.Fatalf("%s: a refused write published %d messages", c.name, got-queued)
		}
		sys.SetMutationHook(nil)
		if err := c.write(false); err != nil {
			t.Fatalf("%s, hook detached: %v", c.name, err)
		}
		if after := snapshotBytes(t, sys); bytes.Equal(before, after) {
			t.Fatalf("%s: the write went through and the snapshot did not change", c.name)
		}
	}
}

// expect judges a write's error: the refused one by check, and nil when
// the hook is detached.
func expect(refused bool, err error, check func(error) error) error {
	if refused {
		return check(err)
	}
	return err
}

// TestRefusalMidStormLeaderEqualsFollower: sixteen writers run every
// write kind through one System whose hook logs the first records and
// then refuses. A follower that applies the logged records in their
// order holds the leader's state byte for byte: a write the log refused
// left nothing behind on the leader either.
func TestRefusalMidStormLeaderEqualsFollower(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 2, Users: 4, Stations: 2, PodcastsPerDay: 6,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 5}
	leader, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := addCatalog(t, leader, 40)

	const (
		writers = 16
		logged  = 1500
	)
	var (
		mu      sync.Mutex
		records []durable.Event
	)
	leader.SetMutationHook(func(e durable.Event) error {
		mu.Lock()
		defer mu.Unlock()
		if len(records) >= logged {
			return errRefused
		}
		records = append(records, durable.Event{Type: e.Type, Payload: bytes.Clone(e.Payload)})
		return nil
	})

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := w.Personas[g%len(w.Personas)]
			own := fmt.Sprintf("driver-%02d", g)
			// Four writers share each listener, so their feedback,
			// injections and consumes interleave under one shard lock.
			shared := fmt.Sprintf("listener-%d", g%4)
			// Refusals and failed checks are outcomes here, not failures:
			// the follower's state is the test.
			_ = leader.RegisterUser(profile.Profile{UserID: own, Interests: []string{"music"}})
			if g == 0 {
				for _, raw := range w.Corpus[:3] {
					_, _ = leader.IngestPodcast(raw)
				}
			}
			trace, err := w.Commutes(p, w.Params.StartDate, 1)
			if err != nil {
				t.Error(err)
				return
			}
			for i, fix := range trace {
				_ = leader.RecordFix(own, fix)
				it := items[(g+i)%len(items)]
				_ = leader.AddFeedback(feedback.Event{
					UserID: shared, ItemID: it.ID, Kind: feedback.Kind(i % 4),
					At: shareT0.Add(time.Duration(i-len(trace)) * time.Hour), Categories: it.Categories,
				})
				switch i % 10 {
				case 3:
					_ = leader.Inject(shared, it.ID)
				case 6:
					leader.Recommend(shared, recommend.Context{Now: shareT0}, 3)
				case 9:
					leader.CompactFeedback(shared, shareT0, 24*time.Hour)
				}
				if i == len(trace)/2 || i == len(trace)-1 {
					_, _ = leader.CompactTracking(own)
				}
			}
		}(g)
	}
	wg.Wait()
	leader.SetMutationHook(nil)
	if len(records) < logged {
		t.Fatalf("the storm logged %d records; the hook refuses only after %d", len(records), logged)
	}

	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addCatalog(t, follower, 40)
	for i, e := range records {
		if err := follower.ApplyReplicated(e); err != nil {
			t.Fatalf("record %d (%s): %v", i, e.Type, err)
		}
	}
	if a, b := snapshotBytes(t, leader), snapshotBytes(t, follower); !bytes.Equal(a, b) {
		t.Fatalf("follower's snapshot (%d B) differs from the leader's (%d B)", len(b), len(a))
	}
}
