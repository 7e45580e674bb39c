// Package precompute is the proactive plan-warming subsystem: a
// background scheduler that keeps the plan cache populated *before*
// listeners start driving, so that PlanTrip can answer from a warm entry
// instead of running the full predict→rank→allocate pipeline
// synchronously. It subscribes to the broker events that change either
// what a user will do next or what should be recommended:
//
//   - tracking.compacted — a user's mobility model was rebuilt; their
//     likely next trips changed (and the old cache keys died with the
//     renumbered staying points), so re-enumerate and re-warm.
//   - feedback.# — the preference vector moved; the System already
//     invalidated the user's entries inline, the scheduler re-warms them.
//     Re-warming reads the preference vector from the feedback store's
//     incremental index (via System.Preferences), so a warm pass costs
//     O(categories) per user regardless of feedback-history length —
//     feedback *compaction* ("prefs.compacted") deliberately does not
//     reach this subscription, since it never moves the vector.
//   - content.ingested.# — a new clip entered every candidate set; the
//     System bumped the cache epoch, the scheduler re-warms all users
//     with mobility models.
//
// For each affected user the scheduler walks the Markov chain of the
// compact mobility model: every origin place × the time buckets of the
// warm-ahead window × the top-K destination candidates above a
// probability floor becomes one warm job. Jobs flow through a bounded
// queue into a fixed worker pool (drops are counted, never blocked on);
// each worker takes one job at a time and runs System.WarmPlan on it,
// which plans through the same staged pipeline the cold path uses and
// stores the result in the plan cache.
package precompute

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pphcr"
	"pphcr/internal/broker"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
)

// Config tunes the scheduler.
type Config struct {
	// Workers is the size of the warm worker pool. Default 4.
	Workers int
	// TopK bounds how many destination candidates are warmed per
	// (origin, bucket). Default 2.
	TopK int
	// MinProb is the probability floor below which a destination is not
	// worth warming. Default 0.2.
	MinProb float64
	// WarmAheadBuckets is how many time buckets of trips to warm,
	// starting at the enumeration instant (1 = current bucket only).
	// Default 1.
	WarmAheadBuckets int
	// QueueSize bounds the pending-job queue; enumeration never blocks —
	// jobs beyond the bound are dropped and counted. Default 256.
	QueueSize int
	// Now supplies the scheduling clock used by Run's event loop. The
	// server anchors it to the synthetic world's timeline; nil means
	// time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.TopK <= 0 {
		c.TopK = 2
	}
	if c.MinProb <= 0 {
		c.MinProb = 0.2
	}
	if c.WarmAheadBuckets <= 0 {
		c.WarmAheadBuckets = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Job is one anticipated trip to precompute a plan for.
type Job struct {
	User       string
	From, Dest predict.PlaceID
	Prob       float64
	At         time.Time
}

// Stats snapshots the scheduler counters.
type Stats struct {
	EventsCompacted int64 `json:"events_compacted"`
	EventsFeedback  int64 `json:"events_feedback"`
	EventsContent   int64 `json:"events_content"`
	JobsQueued      int64 `json:"jobs_queued"`
	JobsDropped     int64 `json:"jobs_dropped"`
	JobsSkipped     int64 `json:"jobs_skipped"` // already warm in cache
	PlansWarmed     int64 `json:"plans_warmed"`
	WarmDeclined    int64 `json:"warm_declined"` // phase 1 said no
	WarmErrors      int64 `json:"warm_errors"`
}

// Scheduler drives plan warming off the system broker. Create with New;
// run with Run (worker pool + event loop) or drive synchronously with
// Poll + Drain in tests and batch tools.
type Scheduler struct {
	cfg  Config
	sys  *pphcr.System
	jobs chan Job

	compactQ  *broker.Queue
	feedbackQ *broker.Queue
	contentQ  *broker.Queue

	// usersBuf is reused across Polls for the mobility population sweep
	// (Poll runs on the single event-loop goroutine, never concurrently).
	usersBuf []string

	eventsCompacted atomic.Int64
	eventsFeedback  atomic.Int64
	eventsContent   atomic.Int64
	jobsQueued      atomic.Int64
	jobsDropped     atomic.Int64
	jobsSkipped     atomic.Int64
	plansWarmed     atomic.Int64
	warmDeclined    atomic.Int64
	warmErrors      atomic.Int64
}

// New binds the scheduler's queues on the system broker.
func New(sys *pphcr.System, cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, sys: sys, jobs: make(chan Job, cfg.QueueSize)}
	var err error
	if s.compactQ, err = sys.Broker.Bind("precompute-compacted", "tracking.compacted"); err != nil {
		return nil, fmt.Errorf("precompute: binding compaction queue: %w", err)
	}
	if s.feedbackQ, err = sys.Broker.Bind("precompute-feedback", "feedback.#"); err != nil {
		return nil, fmt.Errorf("precompute: binding feedback queue: %w", err)
	}
	if s.contentQ, err = sys.Broker.Bind("precompute-content", "content.ingested.#"); err != nil {
		return nil, fmt.Errorf("precompute: binding content queue: %w", err)
	}
	return s, nil
}

// Poll drains the three event queues once and enqueues warm jobs for
// every affected user, as of instant now. Content events re-warm the
// whole mobility population (coalesced: many ingests in one poll trigger
// one pass). It returns the number of jobs enqueued.
func (s *Scheduler) Poll(now time.Time) int {
	users := make(map[string]bool)
	drain := func(q *broker.Queue, counter *atomic.Int64) int {
		n := 0
		for {
			msg, ok := q.Pop()
			if !ok {
				return n
			}
			n++
			counter.Add(1)
			users[string(msg.Payload)] = true
			_ = q.Ack(msg.ID)
		}
	}
	drain(s.compactQ, &s.eventsCompacted)
	drain(s.feedbackQ, &s.eventsFeedback)

	content := 0
	for {
		msg, ok := s.contentQ.Pop()
		if !ok {
			break
		}
		content++
		s.eventsContent.Add(1)
		_ = s.contentQ.Ack(msg.ID)
	}
	if content > 0 {
		s.usersBuf = s.sys.AppendMobilityUsers(s.usersBuf[:0])
		for _, u := range s.usersBuf {
			users[u] = true
		}
	}

	queued := 0
	for u := range users {
		// Event-triggered re-warms force: an in-flight warm racing the
		// invalidation may have re-inserted a pre-event plan, and the
		// Contains skip would leave it serving until its TTL.
		queued += s.warmUser(u, now, true)
	}
	return queued
}

// WarmUser enumerates the user's likely next trips and enqueues one warm
// job per (origin, bucket, top destination) not already warm in the
// cache. It returns the number of jobs enqueued.
func (s *Scheduler) WarmUser(user string, now time.Time) int {
	return s.warmUser(user, now, false)
}

func (s *Scheduler) warmUser(user string, now time.Time, force bool) int {
	cm, ok := s.sys.MobilityModel(user)
	if !ok {
		return 0
	}
	m := cm.Mobility
	queued := 0
	seen := make(map[plancache.Key]bool)
	for ahead := 0; ahead < s.cfg.WarmAheadBuckets; ahead++ {
		at := now.Add(time.Duration(ahead) * predict.BucketDuration)
		bucket := predict.BucketOf(at)
		for _, from := range m.Origins() {
			for i, c := range m.PredictDestination(from, at) {
				if i >= s.cfg.TopK || c.Prob < s.cfg.MinProb {
					break
				}
				key := plancache.Key{User: user, Dest: c.Place, Bucket: bucket}
				if seen[key] {
					continue
				}
				seen[key] = true
				if !force && s.sys.PlanCache.Contains(key) {
					s.jobsSkipped.Add(1)
					continue
				}
				select {
				case s.jobs <- Job{User: user, From: from, Dest: c.Place, Prob: c.Prob, At: at}:
					s.jobsQueued.Add(1)
					queued++
				default:
					s.jobsDropped.Add(1)
				}
			}
		}
	}
	return queued
}

// Drain executes every currently queued job in the calling goroutine
// and returns how many plans were warmed. Used by tests and poll-mode
// callers; under Run the worker pool consumes the same channel.
func (s *Scheduler) Drain() int {
	warmed := 0
	for {
		select {
		case j := <-s.jobs:
			if s.execute(j) {
				warmed++
			}
		default:
			return warmed
		}
	}
}

// execute warms one job's plan, folds the outcome into the counters and
// reports whether a plan was cached.
func (s *Scheduler) execute(j Job) bool {
	tp, err := s.sys.WarmPlan(j.User, j.From, j.Dest, j.Prob, j.At)
	switch {
	case err != nil:
		s.warmErrors.Add(1)
	case !tp.Proactive || len(tp.Plan.Items) == 0:
		s.warmDeclined.Add(1)
	default:
		s.plansWarmed.Add(1)
		return true
	}
	return false
}

// Run starts the worker pool and the event loop and blocks until stop is
// closed. Intended to run as a goroutine in the server binary, next to
// the tracking compactor. Workers take one job each from the shared
// queue, so a burst spreads over the whole pool.
func (s *Scheduler) Run(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case j := <-s.jobs:
					s.execute(j)
				}
			}
		}()
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			wg.Wait()
			return
		case <-s.compactQ.Notify():
		case <-s.feedbackQ.Notify():
		case <-s.contentQ.Notify():
		case <-ticker.C:
			s.sys.PlanCache.Sweep()
		}
		s.Poll(s.cfg.Now())
	}
}

// Backlog returns the number of jobs waiting for a worker.
func (s *Scheduler) Backlog() int { return len(s.jobs) }

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		EventsCompacted: s.eventsCompacted.Load(),
		EventsFeedback:  s.eventsFeedback.Load(),
		EventsContent:   s.eventsContent.Load(),
		JobsQueued:      s.jobsQueued.Load(),
		JobsDropped:     s.jobsDropped.Load(),
		JobsSkipped:     s.jobsSkipped.Load(),
		PlansWarmed:     s.plansWarmed.Load(),
		WarmDeclined:    s.warmDeclined.Load(),
		WarmErrors:      s.warmErrors.Load(),
	}
}
