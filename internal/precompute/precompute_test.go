package precompute

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/feedback"
	"pphcr/internal/pipeline"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
	"pphcr/internal/synth"
)

// testSystem builds a system with a dense-enough corpus that warm plans
// actually schedule items, feeds one persona's commute history, and
// compacts it. warmAt is a weekday-morning instant with fresh candidates.
func testSystem(t testing.TB) (sys *pphcr.System, w *synth.World, user string, warmAt time.Time) {
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
	// Next Monday, 8 am: within the candidate window of the last content
	// day and inside the weekday-morning transition bucket.
	warmAt = w.Params.StartDate.AddDate(0, 0, 7).Add(8 * time.Hour)
	return sys, w, user, warmAt
}

func TestWarmUserPopulatesCache(t *testing.T) {
	sys, _, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	queued := sched.WarmUser(user, warmAt)
	if queued == 0 {
		t.Fatal("no warm jobs enumerated")
	}
	warmed := sched.Drain()
	if warmed == 0 {
		t.Fatalf("no plans warmed (stats %+v)", sched.Stats())
	}
	if sys.PlanCache.Len() == 0 {
		t.Fatal("cache still empty after warming")
	}
	// Re-enumerating skips entries that are already warm.
	sched.WarmUser(user, warmAt)
	if st := sched.Stats(); st.JobsSkipped == 0 {
		t.Fatalf("already-warm keys re-queued: %+v", st)
	}
	// Unknown users enumerate nothing.
	if n := sched.WarmUser("ghost", warmAt); n != 0 {
		t.Fatalf("warmed ghost user: %d", n)
	}
}

func TestPollReactsToCompaction(t *testing.T) {
	sys, _, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The CompactTracking call in testSystem happened before the
	// scheduler bound its queues, so prime with a fresh compaction event.
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	if queued := sched.Poll(warmAt); queued == 0 {
		t.Fatal("compaction event did not queue warm jobs")
	}
	sched.Drain()
	st := sched.Stats()
	if st.EventsCompacted == 0 || st.PlansWarmed == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// An idle poll does nothing.
	if queued := sched.Poll(warmAt); queued != 0 {
		t.Fatalf("idle poll queued %d jobs", queued)
	}
}

func TestFeedbackInvalidatesAndRewarms(t *testing.T) {
	sys, _, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sched.WarmUser(user, warmAt)
	if sched.Drain() == 0 {
		t.Fatal("priming failed")
	}
	entries := sys.PlanCache.Len()
	// Feedback: the System invalidates the user's entries inline...
	it := sys.Repo.All()[0]
	if err := sys.AddFeedback(feedback.Event{
		UserID: user, ItemID: it.ID, Kind: feedback.Like, At: warmAt,
	}); err != nil {
		t.Fatal(err)
	}
	if sys.PlanCache.Sweep(); sys.PlanCache.Len() >= entries {
		t.Fatal("feedback did not invalidate warm plans")
	}
	// ...and the scheduler re-warms them off the broker event.
	if queued := sched.Poll(warmAt); queued == 0 {
		t.Fatal("feedback event did not queue re-warm jobs")
	}
	sched.Drain()
	if sys.PlanCache.Len() != entries {
		t.Fatalf("re-warm incomplete: %d entries, want %d", sys.PlanCache.Len(), entries)
	}
	if st := sched.Stats(); st.EventsFeedback == 0 {
		t.Fatalf("feedback events not counted: %+v", st)
	}
}

func TestContentEventRewarmsMobilityUsers(t *testing.T) {
	sys, w, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sched.WarmUser(user, warmAt)
	sched.Drain()
	if sys.PlanCache.Len() == 0 {
		t.Fatal("priming failed")
	}
	// New content bumps the cache epoch (everything stale) and emits a
	// content.ingested event.
	fresh := w.Corpus[0]
	fresh.ID = "pod-breaking-news"
	fresh.Published = warmAt.Add(-time.Hour)
	if _, err := sys.IngestPodcast(fresh); err != nil {
		t.Fatal(err)
	}
	if sys.PlanCache.Contains(plancache.Key{User: user, Dest: 0, Bucket: predict.BucketOf(warmAt)}) &&
		sys.PlanCache.Contains(plancache.Key{User: user, Dest: 1, Bucket: predict.BucketOf(warmAt)}) {
		t.Fatal("content ingestion left warm plans fresh")
	}
	if queued := sched.Poll(warmAt); queued == 0 {
		t.Fatal("content event did not queue re-warm jobs")
	}
	sched.Drain()
	st := sched.Stats()
	if st.EventsContent == 0 || st.PlansWarmed == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueBoundDropsNotBlocks(t *testing.T) {
	sys, _, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing drains the queue, so re-enumerating the same user queues
	// the same jobs again until the bound is reached. No call may block.
	for i := 0; i <= queueSize && sched.Stats().JobsDropped == 0; i++ {
		sched.WarmUser(user, warmAt)
	}
	st := sched.Stats()
	if st.JobsDropped == 0 {
		t.Fatalf("overflow jobs not counted as dropped: %+v", st)
	}
	if st.JobsQueued != queueSize {
		t.Fatalf("queued = %d, want the bound %d", st.JobsQueued, queueSize)
	}
	if len(sched.jobs) != queueSize || cap(sched.jobs) != queueSize {
		t.Fatalf("queue holds %d of %d, want %d", len(sched.jobs), cap(sched.jobs), queueSize)
	}
}

// TestRunLoopWarmsConcurrently exercises the full event-driven path —
// broker notify → poll → bounded worker pool → plan cache — with the
// race detector watching.
func TestRunLoopWarmsConcurrently(t *testing.T) {
	sys, _, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{Workers: 3, Now: func() time.Time { return warmAt }})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sched.Run(stop)
		close(done)
	}()
	// Fire a compaction event; the run loop must pick it up and warm.
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for sys.PlanCache.Len() == 0 {
		select {
		case <-deadline:
			t.Fatalf("run loop never warmed (stats %+v)", sched.Stats())
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("run loop did not stop")
	}
}

// pairRank holds every task inside the Rank stage until two are there
// at once, or until one has waited out the timeout.
type pairRank struct {
	inner pipeline.Rank

	inside   atomic.Int32
	once     sync.Once
	met      chan struct{} // closed once two tasks met, or on timeout
	timedOut atomic.Bool
}

func (r *pairRank) Rank(t *pipeline.Task) {
	if r.inside.Add(1) == 2 {
		r.once.Do(func() { close(r.met) })
	}
	select {
	case <-r.met:
	case <-time.After(2 * time.Second):
		r.once.Do(func() {
			r.timedOut.Store(true)
			close(r.met)
		})
	}
	r.inner.Rank(t)
}

// TestWorkersShareTheQueue: jobs queued before the pool starts are
// spread over the workers, one job each, rather than swallowed by the
// first worker to wake — two of them must be planning at the same time.
func TestWorkersShareTheQueue(t *testing.T) {
	sys, _, user, warmAt := testSystem(t)
	sched, err := New(sys, Config{Workers: 2, Now: func() time.Time { return warmAt }})
	if err != nil {
		t.Fatal(err)
	}
	if queued := sched.WarmUser(user, warmAt); queued < 2 {
		t.Fatalf("only %d jobs queued", queued)
	}
	rank := &pairRank{inner: sys.Pipeline().Rank, met: make(chan struct{})}
	sys.Pipeline().Rank = rank

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sched.Run(stop)
		close(done)
	}()
	<-rank.met
	// Run returns once every worker has finished the job it holds.
	close(stop)
	<-done
	if rank.timedOut.Load() {
		t.Error("a warm task waited 2s in Rank with a second job queued: one worker took both")
	}
	if st := sched.Stats(); st.PlansWarmed < 2 {
		t.Errorf("plans warmed = %d, want the two that met in Rank (stats %+v)", st.PlansWarmed, st)
	}
}
