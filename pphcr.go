// Package pphcr is the public API of the Proactive Personalized Hybrid
// Content Radio system — a reproduction of Casagranda, Sapino and
// Candan, "Context-Aware Proactive Personalization of Linear Audio
// Content" (EDBT 2017).
//
// A System wires together every server component of the paper's
// architecture (Fig 3): the content repository fed by the ASR +
// Bayesian-classification ingestion pipeline, the user management
// stores (profiles, feedbacks, tracking data), the message broker, and
// the proactive recommender that plans context-aware replacements of the
// linear radio stream.
//
// Typical use:
//
//	sys, err := pphcr.New(pphcr.Config{TrainingDocs: docs})
//	...
//	sys.RegisterUser(profile.Profile{UserID: "lilly", ...})
//	sys.IngestPodcast(raw)            // ASR → classify → repository
//	sys.RecordFix("lilly", fix)       // GPS tracking
//	sys.AddFeedback(event)            // implicit/explicit feedback
//	sys.CompactTracking("lilly")      // periodic mobility compaction
//	plan, err := sys.PlanTrip("lilly", partialTrace, now)
package pphcr

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/asr"
	"pphcr/internal/broker"
	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/distraction"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
	"pphcr/internal/profile"
	"pphcr/internal/radiodns"
	"pphcr/internal/recommend"
	"pphcr/internal/textclass"
	"pphcr/internal/tracking"
	"pphcr/internal/trajectory"
)

// Config parameterizes a System.
type Config struct {
	// Vocabulary seeds the ASR confusion pool (usually the corpus
	// vocabulary).
	Vocabulary []string
	// TrainingDocs trains the Bayesian classifier; required.
	TrainingDocs []textclass.Document
	// Seed drives all simulated randomness. Default 1.
	Seed int64
}

// The System's fixed settings: the paper's server runs with one
// behaviour.
const (
	// contextWeight is λ of the compound relevance score.
	contextWeight = 0.4
	// asrWordErrorRate simulates the recognizer quality.
	asrWordErrorRate = 0.15
	// candidateWindow bounds how far back the recommender looks for
	// candidate clips.
	candidateWindow = 72 * time.Hour
	// userShards is the stripe count of the per-user state shards
	// (mobility models, pending injections, last plans) and the commit
	// barrier. A power of two: shardIndexFor masks the hash with
	// userShards-1.
	userShards = 32
)

// userShard is one stripe of the per-user server state. Striping by a
// hash of the user ID means concurrent PlanTrip / AddFeedback /
// CompactTracking calls for different users (almost) never contend on
// the same mutex — the seed serialized all of them behind one global
// lock.
type userShard struct {
	mu       sync.RWMutex
	mobility map[string]*tracking.CompactModel
	// compactN records how many fixes of the user's trace the mobility
	// model was compacted from — the provenance a snapshot needs so
	// recovery can re-derive the byte-identical model from the same
	// trace prefix (compaction is deterministic in its input).
	compactN  map[string]int
	injected  map[string][]string // user -> editorially injected item IDs
	lastPlans map[string]*TripPlan
}

// LockStats reports the user-shard locking counters: how many lock
// acquisitions the per-user state saw and how many of them found the
// shard already held (a TryLock-miss proxy for contention). With the
// seed's single global mutex every concurrent pair contended; with
// striping the contended fraction should stay near zero.
type LockStats struct {
	Shards    int   `json:"shards"`
	Ops       int64 `json:"ops"`
	Contended int64 `json:"contended"`
	// Barrier reports the commit-barrier stripe counters.
	Barrier BarrierStats `json:"barrier"`
}

// BarrierStats are the commit barrier's contention counters: every
// durable write path takes one stripe's read side, so Contended stays
// near zero except while a checkpoint quiesce is in flight (or when a
// workload hammers few users). PerStripeContended localizes a hot
// stripe.
type BarrierStats struct {
	Stripes            int     `json:"stripes"`
	Ops                int64   `json:"ops"`
	Contended          int64   `json:"contended"`
	Quiesces           int64   `json:"quiesces"`
	PerStripeContended []int64 `json:"per_stripe_contended,omitempty"`
	// AcquireWait is the latency distribution of contended stripe
	// acquisitions only — the wait a writer ate because a quiesce (or a
	// hot stripe) held it out. Uncontended acquisitions are not timed:
	// the fast path stays two atomics and a TryRLock.
	AcquireWait obs.Summary `json:"acquire_wait"`
	// QuiesceAcquire is the distribution of quiesce entry times — how
	// long the checkpointer waited for in-flight writers to drain.
	QuiesceAcquire obs.Summary `json:"quiesce_acquire"`
}

// barrierStripe is one stripe of the commit barrier, padded to a cache
// line so concurrent writers on different stripes never false-share the
// reader counts — the single global RWMutex this replaces made every
// mutating entry point (and the pure reads that shared its cache line)
// bounce one word across every core.
type barrierStripe struct {
	mu        sync.RWMutex
	ops       atomic.Int64
	contended atomic.Int64
	_         [64 - 24 - 16]byte
}

// commitBarrier fences the durable write paths against the
// checkpointer, striped so writers for different users share nothing.
// Writers take only their user-shard stripe's read side; the
// checkpointer (and hook swaps) quiesce by write-locking every stripe.
// Pure read paths never touch it.
type commitBarrier struct {
	stripes  []barrierStripe
	quiesces atomic.Int64
	// acquireHist records the wait of contended stripe acquisitions
	// (TryRLock miss → blocking RLock). The uncontended fast path is
	// deliberately not timed: it would cost two clock reads per write op
	// to measure a wait that is zero by construction.
	acquireHist obs.Histogram
	// quiesceHist records how long quiesce() waited to write-lock every
	// stripe — the writer-drain time a checkpoint pays before it can
	// snapshot.
	quiesceHist obs.Histogram
}

// rlock takes the read side of one stripe, counting acquisitions that
// found it held by a quiesce. It returns the nanoseconds the caller
// waited (0 on the uncontended fast path), so traced write paths can
// attribute quiesce stalls to a barrier-wait span.
func (b *commitBarrier) rlock(i uint32) int64 {
	st := &b.stripes[i]
	st.ops.Add(1)
	if st.mu.TryRLock() {
		return 0
	}
	st.contended.Add(1)
	start := time.Now()
	st.mu.RLock()
	waited := time.Since(start).Nanoseconds()
	b.acquireHist.ObserveNs(waited)
	return waited
}

func (b *commitBarrier) runlock(i uint32) { b.stripes[i].mu.RUnlock() }

// quiesce write-locks every stripe in order, excluding every durable
// write path; release unlocks in reverse. The pair brackets checkpoint
// snapshots and mutation-hook swaps.
func (b *commitBarrier) quiesce() {
	b.quiesces.Add(1)
	start := time.Now()
	for i := range b.stripes {
		b.stripes[i].mu.Lock()
	}
	b.quiesceHist.Observe(time.Since(start))
}

func (b *commitBarrier) release() {
	for i := len(b.stripes) - 1; i >= 0; i-- {
		b.stripes[i].mu.Unlock()
	}
}

// stats snapshots the barrier counters.
func (b *commitBarrier) stats() BarrierStats {
	s := BarrierStats{
		Stripes:            len(b.stripes),
		Quiesces:           b.quiesces.Load(),
		PerStripeContended: make([]int64, len(b.stripes)),
	}
	for i := range b.stripes {
		st := &b.stripes[i]
		s.Ops += st.ops.Load()
		c := st.contended.Load()
		s.Contended += c
		s.PerStripeContended[i] = c
	}
	s.AcquireWait = b.acquireHist.Summary()
	s.QuiesceAcquire = b.quiesceHist.Summary()
	return s
}

// System is the PPHCR content server.
type System struct {
	Directory *radiodns.Directory
	Repo      *content.Repository
	Profiles  *profile.Store
	Feedback  *feedback.Store
	Tracker   *tracking.Tracker
	Broker    *broker.Broker
	Scorer    *recommend.Scorer
	Planner   *core.Planner
	// PlanCache holds precomputed trip plans keyed by (user, predicted
	// destination, time bucket); PlanTrip serves from it when the live
	// prediction matches a warm entry.
	PlanCache *plancache.Cache

	ingest *content.Pipeline

	// pipe is the staged planning pipeline (predict → gate → candidates →
	// rank → allocate) every public entry point executes through.
	pipe *pipeline.Pipeline

	shards        []userShard
	lockOps       atomic.Int64
	lockContended atomic.Int64

	// barrier fences the durable write paths against the checkpointer:
	// write emits and applies inside one read-locked stripe section (the
	// stripe is the user's shard index, so writers for different users
	// share no barrier state), and the checkpointer quiesces all stripes
	// to snapshot + rotate the WAL at a point where state and log agree
	// exactly. Pure read paths — PlanTrip serving, Recommend without
	// pending injections, cache lookups, /stats — never touch it.
	barrier commitBarrier
	// durHook, when set, receives exactly one durable event per write,
	// before the write is applied. Set via SetMutationHook before
	// serving.
	durHook func(e durable.Event) error
	// ingestMu pins WAL order to apply order for the (userless) ingest
	// path the way the shard locks do for per-user writes.
	ingestMu sync.Mutex
	// emitErrs counts hook failures on the two paths whose signatures
	// cannot propagate them (consume, feedback-compact); /stats surfaces
	// it via DurabilityStats.
	emitErrs atomic.Int64
}

// FNV-1a, inlined: shardFor sits on the request fast path and must not
// allocate (hash/fnv costs a hasher plus a byte slice per call) — same
// idiom as internal/plancache.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardIndexFor returns the stripe index of the user's state — shared
// by the per-user shard locks and the commit-barrier stripes, so one
// hash places a writer everywhere.
func (s *System) shardIndexFor(userID string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= fnvPrime32
	}
	return h & (userShards - 1)
}

// shardFor returns the stripe holding the user's state.
func (s *System) shardFor(userID string) *userShard {
	return &s.shards[s.shardIndexFor(userID)]
}

// ingestStripe is the barrier stripe of the userless content-ingest
// path (ingest order is pinned by ingestMu; the stripe only has to be
// deterministic so the checkpoint quiesce excludes it).
const ingestStripe = 0

// lockShard / rlockShard acquire the shard mutex, counting acquisitions
// that found it already held.
func (s *System) lockShard(sh *userShard) {
	s.lockOps.Add(1)
	if !sh.mu.TryLock() {
		s.lockContended.Add(1)
		sh.mu.Lock()
	}
}

func (s *System) rlockShard(sh *userShard) {
	s.lockOps.Add(1)
	if !sh.mu.TryRLock() {
		s.lockContended.Add(1)
		sh.mu.RLock()
	}
}

// LockStats snapshots the user-shard lock and commit-barrier counters
// (reported on /stats).
func (s *System) LockStats() LockStats {
	return LockStats{
		Shards:    len(s.shards),
		Ops:       s.lockOps.Load(),
		Contended: s.lockContended.Load(),
		Barrier:   s.barrier.stats(),
	}
}

// New builds and wires a System.
func New(cfg Config) (*System, error) {
	if len(cfg.TrainingDocs) == 0 {
		return nil, fmt.Errorf("pphcr: Config.TrainingDocs required to train the classifier")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var nb textclass.NaiveBayes
	if err := nb.Train(cfg.TrainingDocs); err != nil {
		return nil, fmt.Errorf("pphcr: training classifier: %w", err)
	}
	recognizer, err := asr.New(asrWordErrorRate, asr.DefaultErrorProfile(), cfg.Vocabulary, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("pphcr: building recognizer: %w", err)
	}
	scorer := recommend.NewScorer(contextWeight)
	repo := content.NewRepository()
	s := &System{
		Directory: radiodns.NewDirectory(),
		Repo:      repo,
		Profiles:  profile.NewStore(),
		Feedback:  feedback.NewStore(),
		Tracker:   tracking.NewTracker(),
		Broker:    broker.New(),
		Scorer:    scorer,
		Planner:   core.NewPlanner(scorer),
		PlanCache: plancache.New(plancache.Config{}),
		ingest: &content.Pipeline{
			Recognizer: recognizer,
			Classifier: &nb,
			Repo:       repo,
		},
		shards: make([]userShard, userShards),
	}
	s.Feedback.ShareCatalog(repo.Seq, repo.ItemAt)
	s.barrier.stripes = make([]barrierStripe, userShards)
	for i := range s.shards {
		s.shards[i].mobility = make(map[string]*tracking.CompactModel)
		s.shards[i].compactN = make(map[string]int)
		s.shards[i].injected = make(map[string][]string)
		s.shards[i].lastPlans = make(map[string]*TripPlan)
	}
	s.pipe = pipeline.New(pipeline.Deps{
		Mobility:        s.MobilityModel,
		Preferences:     s.preferences,
		Catalog:         repo.ReadView,
		CandidateWindow: candidateWindow,
		Cache:           s.PlanCache,
		Planner:         s.Planner,
		Scorer:          scorer,
	})
	return s, nil
}

// PipelineStats snapshots the staged pipeline's per-stage latency and
// count metrics (reported on /stats).
func (s *System) PipelineStats() pipeline.Stats {
	return s.pipe.Stats()
}

// Pipeline returns the staged planning pipeline. Its Predict and Rank
// fields may be replaced before first use to substitute custom
// operators (tests use this to inject slow stages).
func (s *System) Pipeline() *pipeline.Pipeline { return s.pipe }

// BarrierAcquireHistogram is the contended-acquire wait distribution of
// the commit barrier, for metrics-endpoint registration.
func (s *System) BarrierAcquireHistogram() *obs.Histogram { return &s.barrier.acquireHist }

// BarrierQuiesceHistogram is the quiesce-entry (writer drain) latency
// distribution of the commit barrier, for metrics-endpoint
// registration.
func (s *System) BarrierQuiesceHistogram() *obs.Histogram { return &s.barrier.quiesceHist }

// SetMutationHook installs the durability hook: from now on every write
// hands exactly one durable event describing it to fn, after its checks
// and before its apply. OpenDurability installs the WAL's Append here
// after recovery; tests may install capture hooks. Passing nil
// detaches. A hook error reaches the caller as ErrNotLogged; the write
// is not applied.
func (s *System) SetMutationHook(fn func(e durable.Event) error) {
	// Quiescing every barrier stripe orders the swap against all
	// writers: each reads the hook under its stripe's read lock.
	s.barrier.quiesce()
	s.durHook = fn
	s.barrier.release()
}

// ErrNotLogged is what an entry point returns, wrapped, when the
// mutation hook refused its event: the write is not applied. It is the
// server's fault, not the caller's: check it with errors.Is. The record
// may still have reached the file before a failed fsync, so recovery may
// replay it: the outcome is unknown.
var ErrNotLogged = errors.New("pphcr: write not logged")

// emit marshals payload and hands the typed event to the mutation hook.
func (s *System) emit(t durable.Type, payload any) error {
	if s.durHook == nil {
		return nil
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("%w: encoding %s event: %w", ErrNotLogged, t, err)
	}
	if err := s.durHook(durable.Event{Type: t, Payload: b}); err != nil {
		return fmt.Errorf("%w: logging %s event: %w", ErrNotLogged, t, err)
	}
	return nil
}

// write is the System's one write path, live, replayed and replicated.
// Under barrier stripe `stripe` and the user's shard lock sh (ingestMu
// when sh is nil) it runs check, which changes nothing and returns the
// event's payload (nil: nothing to write) and error; emits; and runs
// apply, which cannot fail. Unlocked, it runs after (plan invalidation,
// publish) for an applied write only. The barrier wait and the emit
// (under SyncAlways, with its group-commit wait) are spans of tr.
func (s *System) write(stripe uint32, sh *userShard, tr *obs.Trace, t durable.Type, check func() (any, error), apply, after func()) error {
	off := tr.StartSpan()
	s.barrier.rlock(stripe)
	tr.EndSpan("barrier_wait", off)
	if sh != nil {
		s.lockShard(sh)
	} else {
		s.ingestMu.Lock()
	}
	payload, err := check()
	if err == nil && payload != nil {
		off = tr.StartSpan()
		err = s.emit(t, payload)
		tr.EndSpan("wal_append", off)
		if err == nil {
			apply()
		}
	}
	if sh != nil {
		sh.mu.Unlock()
	} else {
		s.ingestMu.Unlock()
	}
	s.barrier.runlock(stripe)
	if err == nil && payload != nil {
		after()
	}
	return err
}

// applied panics on an apply's error: its check passed in the same
// critical section, so an error is a broken invariant.
func applied(err error) {
	if err != nil {
		panic(fmt.Sprintf("pphcr: apply failed after its check passed: %v", err))
	}
}

// checkpointBarrier runs fn with every durable write path excluded, so
// fn observes a state that exactly matches a WAL position.
func (s *System) checkpointBarrier(fn func()) {
	s.barrier.quiesce()
	defer s.barrier.release()
	fn()
}

// RegisterUser stores a listener profile.
func (s *System) RegisterUser(p profile.Profile) error {
	idx := s.shardIndexFor(p.UserID)
	return s.write(idx, &s.shards[idx], nil, durable.TypeRegister, func() (any, error) {
		return p, s.Profiles.CheckPut(p)
	}, func() { applied(s.Profiles.Put(p)) }, func() {
		s.Broker.Publish("users.registered", []byte(p.UserID))
	})
}

// IngestPodcast runs the clip-data-management pipeline on one podcast.
// Its event carries the *classified* item rather than the raw podcast:
// replaying raw audio through the ASR would consume different
// simulated-randomness than the original run. It returns the item the
// catalog holds.
func (s *System) IngestPodcast(raw content.RawPodcast) (*content.Item, error) {
	// Process (ASR + classification, the slowest operation in the
	// system) mutates nothing and runs outside every lock, so no pending
	// checkpoint, and no write behind it, waits for an ingest.
	it, err := s.ingest.Process(raw)
	if err != nil {
		return nil, err
	}
	if err := s.addItem(it); err != nil {
		return nil, err
	}
	own, _ := s.Repo.Get(it.ID)
	return own, nil
}

// addItem adds a classified item: IngestPodcast's write and an ingest
// record's apply. New content marks every warm plan stale.
func (s *System) addItem(it *content.Item) error {
	return s.write(ingestStripe, nil, nil, durable.TypeIngest, func() (any, error) {
		return it, s.Repo.CheckAdd(it)
	}, func() { applied(s.Repo.Add(it)) }, func() {
		s.PlanCache.InvalidateAll()
		s.Broker.Publish("content.ingested."+it.TopCategory(), []byte(it.ID))
	})
}

// RecordFix ingests one GPS sample for a user.
func (s *System) RecordFix(userID string, fix trajectory.Fix) error {
	return s.recordFix(userID, fix, nil)
}

// RecordFixTraced is RecordFix with a span recorder attached: the
// barrier wait and the WAL append (which under SyncAlways includes the
// group-commit ticket wait) become spans, so a slow fix in the trace
// ring shows where its time went.
func (s *System) RecordFixTraced(userID string, fix trajectory.Fix, tr *obs.Trace) error {
	return s.recordFix(userID, fix, tr)
}

func (s *System) recordFix(userID string, fix trajectory.Fix, tr *obs.Trace) error {
	idx := s.shardIndexFor(userID)
	return s.write(idx, &s.shards[idx], tr, durable.TypeFix, func() (any, error) {
		return fixEvent{User: userID, Fix: fix}, s.Tracker.CheckRecord(userID, fix)
	}, func() { applied(s.Tracker.Record(userID, fix)) }, func() {
		s.Broker.Publish("tracking.gps", []byte(userID))
	})
}

// AddFeedback stores one feedback event and marks the user's warm plans
// stale.
func (s *System) AddFeedback(e feedback.Event) error {
	return s.addFeedback(e, nil)
}

// AddFeedbackTraced is AddFeedback with a span recorder attached (see
// RecordFixTraced).
func (s *System) AddFeedbackTraced(e feedback.Event, tr *obs.Trace) error {
	return s.addFeedback(e, tr)
}

func (s *System) addFeedback(e feedback.Event, tr *obs.Trace) error {
	idx := s.shardIndexFor(e.UserID)
	// The event is resolved once, in check, and apply appends what was
	// logged: an ingest between the two cannot make the leader keep
	// what the record does not say.
	return s.write(idx, &s.shards[idx], tr, durableTypeForKind(e.Kind), func() (any, error) {
		e = s.logged(e)
		return e, s.Feedback.CheckAppend(e)
	}, func() { applied(s.Feedback.Append(e)) }, func() {
		s.PlanCache.InvalidateUser(e.UserID)
		s.Broker.Publish("feedback."+e.Kind.String(), []byte(e.UserID))
	})
}

// logged is the event the log holds for e. Nil Categories mean the
// catalog item's own categories, or none for an item the catalog does
// not hold; the log spells out which (the item's categories, or an empty
// map), so a record reads the same on every node whatever its catalog
// holds, and the bytes are those of an event that carried them. The
// map is built only when a log is attached. The caller holds the
// barrier stripe, which orders the read of the hook.
func (s *System) logged(e feedback.Event) feedback.Event {
	if e.Categories == nil && s.durHook != nil {
		e.Categories = map[string]float64{}
		if it, ok := s.Repo.Get(e.ItemID); ok {
			e.Categories = maps.Collect(it.Weights())
		}
	}
	return e
}

// CompactTracking runs the periodic tracking compaction for a user and
// caches the resulting mobility model.
func (s *System) CompactTracking(userID string) (*tracking.CompactModel, error) {
	return s.compactTracking(userID, -1)
}

// compactTracking compacts the user's first n fixes (the live count
// when n < 0) and installs the model. The event carries the pinned
// count, so replay re-derives the model from the same trace prefix.
// Re-compaction renumbers staying points, so cached plan keys (which
// embed PlaceIDs) must not survive it.
func (s *System) compactTracking(userID string, n int) (*tracking.CompactModel, error) {
	idx := s.shardIndexFor(userID)
	sh := &s.shards[idx]
	var c tracking.Compaction
	err := s.write(idx, sh, nil, durable.TypeCompact, func() (_ any, err error) {
		if n < 0 {
			n = s.Tracker.FixCount(userID)
		}
		c, err = s.Tracker.Prepare(userID, n)
		return compactEvent{User: userID, N: n}, err
	}, func() {
		s.Tracker.Fold(&c)
		sh.mobility[userID] = c.Model
		sh.compactN[userID] = n
	}, func() {
		s.PlanCache.InvalidateUser(userID)
		s.Broker.Publish("tracking.compacted", []byte(userID))
	})
	if err != nil {
		return nil, err
	}
	return c.Model, nil
}

// MobilityModel returns the cached compact model for a user.
func (s *System) MobilityModel(userID string) (*tracking.CompactModel, bool) {
	sh := s.shardFor(userID)
	s.rlockShard(sh)
	defer sh.mu.RUnlock()
	cm, ok := sh.mobility[userID]
	return cm, ok
}

// MobilityUsers lists the users with a compacted mobility model — the
// population the precompute scheduler can warm plans for.
func (s *System) MobilityUsers() []string {
	return s.AppendMobilityUsers(nil)
}

// AppendMobilityUsers appends the mobility-model population to dst
// (sorted), reusing its capacity — the allocation-free variant for
// callers that poll the population repeatedly (the precompute
// scheduler, the warmer).
func (s *System) AppendMobilityUsers(dst []string) []string {
	for i := range s.shards {
		sh := &s.shards[i]
		s.rlockShard(sh)
		for u := range sh.mobility {
			dst = append(dst, u)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(dst)
	return dst
}

// Preferences returns the user's current category preference vector,
// in category-name order: time-decayed feedback blended with the
// profile's declared interests. The read is served from the feedback
// store's incremental index in O(categories) — independent of how much
// history the user has.
func (s *System) Preferences(userID string, now time.Time) feedback.Vector {
	return s.preferences(nil, userID, now)
}

// preferences is Preferences written into dst[:0]: the plan pipeline's
// read, into its task's pooled buffer.
func (s *System) preferences(dst feedback.Vector, userID string, now time.Time) feedback.Vector {
	params := feedback.DefaultPreferenceParams()
	if p, err := s.Profiles.Get(userID); err == nil {
		params.Seed = p.Interests
	}
	return s.Feedback.Preferences(dst, userID, now, params)
}

// CompactFeedback folds the user's feedback events older than horizon
// into their baseline vector and truncates the log — the feedback
// analogue of CompactTracking, keeping per-user memory bounded.
// Preferences are unaffected (the incremental index already contains
// every event), so warm plans stay valid and no cache invalidation is
// needed. It returns the number of events folded away.
func (s *System) CompactFeedback(userID string, now time.Time, horizon time.Duration) int {
	idx := s.shardIndexFor(userID)
	n := 0 // the event records the arguments: replay re-runs the fold
	err := s.write(idx, &s.shards[idx], nil, durable.TypeFeedbackCompact, func() (any, error) {
		if n = s.Feedback.Foldable(userID, now, horizon); n == 0 {
			return nil, nil
		}
		return feedbackCompactEvent{User: userID, At: now, Horizon: horizon}, nil
	}, func() { s.Feedback.Compact(userID, now, horizon) }, func() {
		// Deliberately NOT under "feedback.#": compaction does not change
		// the preference vector, so it must not trigger plan re-warming.
		s.Broker.Publish("prefs.compacted", []byte(userID))
	})
	if err != nil {
		s.emitErrs.Add(1) // the signature cannot return it
		return 0
	}
	return n
}

// Candidates returns the current candidate clip set: everything published
// within the candidate window before now.
func (s *System) Candidates(now time.Time) []*content.Item {
	return s.Repo.AppendPublishedSince(nil, now.Add(-candidateWindow))
}

// Recommend ranks the current candidates for the user in the given
// context, through the pipeline's Candidates → Rank stages. Editorially
// injected items (Fig 6) are pinned to the top with full relevance, then
// removed from the injection list (inject-once semantics).
func (s *System) Recommend(userID string, ctx recommend.Context, k int) []recommend.Scored {
	return s.recommend(userID, ctx, k, s.consumeInjections(userID))
}

// Preview is Recommend for a reader with no right to consume: the
// pending injections are pinned first and stay pending. The dashboard's
// preview reads through it, and so does a node that is not the leader,
// whose state only the leader's WAL may change.
func (s *System) Preview(userID string, ctx recommend.Context, k int) []recommend.Scored {
	return s.recommend(userID, ctx, k, s.PendingInjections(userID))
}

// recommend ranks for Recommend and Preview, pinning the injected items
// ids first, then what the user did not skip or dislike (as runPlan).
func (s *System) recommend(userID string, ctx recommend.Context, k int, ids []string) []recommend.Scored {
	t := &pipeline.Task{Mode: pipeline.ModeRank, User: userID, Now: ctx.Now, Ctx: ctx, K: k,
		Exclude: s.Feedback.SkippedItems(userID)}
	s.pipe.Run(t)
	ranked := t.Ranked

	pinned, seen := s.pinned(ids)
	if len(pinned) == 0 {
		return ranked
	}
	out := pinned
	for _, sc := range ranked {
		if !seen[sc.Item.ID] {
			out = append(out, sc)
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// consumeInjections pops the user's pending editorial injections
// (inject-once semantics). Shared by Recommend, the skip replacement
// path and replay so the consume semantics cannot drift. A consume the
// log refused leaves them pending and returns none.
//
// The overwhelmingly common case — no pending injection — is a pure
// read and must not touch the commit barrier: Recommend and the skip
// paths sit on the request hot path, and the PR 4 regression came
// precisely from reads funneling through the global durability lock.
// Only when the peek finds queued items does the call become a write.
func (s *System) consumeInjections(userID string) []string {
	idx := s.shardIndexFor(userID)
	sh := &s.shards[idx]
	s.rlockShard(sh)
	empty := len(sh.injected[userID]) == 0
	sh.mu.RUnlock()
	if empty {
		return nil
	}
	// Consumption mutates durable state (inject-once semantics must
	// survive a crash, or recovered users see duplicate injections).
	var ids []string
	err := s.write(idx, sh, nil, durable.TypeConsume, func() (any, error) {
		if ids = sh.injected[userID]; len(ids) == 0 {
			return nil, nil
		}
		return consumeEvent{User: userID}, nil
	}, func() { delete(sh.injected, userID) }, func() {})
	if err != nil {
		s.emitErrs.Add(1) // the signature cannot return it
		return nil
	}
	return ids
}

// pinned resolves injected item IDs into pinned entries with full
// relevance, deduplicated; seen holds the resolved IDs so callers can
// drop them from the organic ranking.
func (s *System) pinned(ids []string) (pinned []recommend.Scored, seen map[string]bool) {
	if len(ids) == 0 {
		return nil, nil
	}
	seen = make(map[string]bool, len(ids))
	for _, id := range ids {
		if it, ok := s.Repo.Get(id); ok && !seen[id] {
			pinned = append(pinned, recommend.Scored{Item: it, Content: 1, Context: 1, Compound: 1})
			seen[id] = true
		}
	}
	return pinned, seen
}

// Inject queues an editorial recommendation for a user (the control
// dashboard's "inject recommended audio content to specific users",
// §2 and Fig 6).
func (s *System) Inject(userID, itemID string) error {
	idx := s.shardIndexFor(userID)
	sh := &s.shards[idx]
	return s.write(idx, sh, nil, durable.TypeInject, func() (any, error) {
		if _, ok := s.Repo.Get(itemID); !ok {
			return nil, fmt.Errorf("pphcr: cannot inject unknown item %q", itemID)
		}
		return injectEvent{User: userID, Item: itemID}, nil
	}, func() { sh.injected[userID] = append(sh.injected[userID], itemID) }, func() {
		s.Broker.Publish("editorial.injected", []byte(userID+":"+itemID))
	})
}

// PendingInjections returns the queued editorial items for a user.
func (s *System) PendingInjections(userID string) []string {
	sh := s.shardFor(userID)
	s.rlockShard(sh)
	defer sh.mu.RUnlock()
	return append([]string(nil), sh.injected[userID]...)
}

// TripPlan is the output of the full proactive pipeline for a trip in
// progress.
type TripPlan struct {
	// Prediction is the mobility forecast (destination, ΔT, route).
	Prediction predict.Prediction
	// Proactive reports the phase-1 decision; Reason explains a negative.
	Proactive bool
	Reason    string
	// Plan is the scheduled recommendation list (empty when !Proactive).
	Plan core.Plan
	// Context is the recommendation context derived from the prediction.
	Context recommend.Context
	// Source records how the plan was produced: "cold" when the full
	// pipeline ran for this request, "warm" when a precomputed plan was
	// served from the cache.
	Source string
}

// Plan sources.
const (
	PlanSourceCold = pipeline.SourceCold
	PlanSourceWarm = pipeline.SourceWarm
)

// CachedPlan implements pipeline.CachedPlan: the scheduled plan plus the
// logical instant it was computed for, which is what the Candidates
// stage needs to judge a warm entry's fit and freshness.
func (tp *TripPlan) CachedPlan() (core.Plan, time.Time) {
	return tp.Plan, tp.Context.Now
}

// finishPlanTask converts a completed pipeline task into the public
// TripPlan, stores it in the plan cache when the Allocate stage marked
// it cacheable, remembers it as the user's last plan and publishes the
// planning event. One conversion serves the live and warm entry points.
func (s *System) finishPlanTask(t *pipeline.Task) (*TripPlan, error) {
	if t.Err != nil {
		return nil, t.Err
	}
	if !t.Recognized {
		return &TripPlan{Proactive: false, Reason: t.Reason}, nil
	}
	tp := &TripPlan{
		Prediction: t.Prediction,
		Context:    t.Ctx,
		Proactive:  t.Proactive,
		Reason:     t.Reason,
		Plan:       t.Plan,
		Source:     t.Source,
	}
	if t.Cacheable {
		// The version was captured before ranking inputs were sampled, so
		// a concurrent invalidation (global or per-user) marks this entry
		// stale rather than letting it masquerade as fresh.
		s.PlanCache.PutVersioned(t.CacheKey, tp, t.CacheVer)
	}
	if t.Mode == pipeline.ModeLive {
		s.rememberPlan(t.User, tp)
		if t.Proactive {
			s.Broker.Publish("recommendations.planned", []byte(t.User))
		}
	}
	return tp, nil
}

// PlanTrip runs the end-to-end proactive flow for a user who started
// driving: predict the trip from the partial trace and the compacted
// mobility model, decide whether to recommend, and if so fill ΔT with
// the relevance-maximizing clip schedule. The optional distraction
// timeline gates transitions; pass nil when no road metadata is known.
//
// The flow is the pipeline's staged composition: Predict → Gate (phase 1
// always runs live — a warm plan must never override a live decline) →
// Candidates (which serves a warm cache entry when it fits) → Rank →
// Allocate.
func (s *System) PlanTrip(userID string, partial trajectory.Trace, now time.Time, tl *distraction.Timeline) (*TripPlan, error) {
	return s.planTrip(userID, partial, now, tl, nil)
}

// PlanTripTraced is PlanTrip with a span recorder attached: each
// pipeline stage, the warm-cache outcome and the finish step (cache
// store + last-plan bookkeeping, which blocks on the user's shard lock
// during a checkpoint snapshot) become spans in the trace.
func (s *System) PlanTripTraced(userID string, partial trajectory.Trace, now time.Time, tl *distraction.Timeline, tr *obs.Trace) (*TripPlan, error) {
	return s.planTrip(userID, partial, now, tl, tr)
}

func (s *System) planTrip(userID string, partial trajectory.Trace, now time.Time, tl *distraction.Timeline, tr *obs.Trace) (*TripPlan, error) {
	t := &pipeline.Task{
		Mode:     pipeline.ModeLive,
		User:     userID,
		Now:      now,
		Partial:  partial,
		Timeline: tl,
		Trace:    tr,
	}
	s.runPlan(t)
	off := tr.StartSpan()
	tp, err := s.finishPlanTask(t)
	tr.EndSpan("finish", off)
	if tp != nil {
		tr.SetSource(tp.Source)
	}
	return tp, err
}

// WarmPlan precomputes and caches the proactive plan for an anticipated
// trip: user leaving `from` for `dest` around time `at`, with `prob` as
// the Markov prior standing in for the live trip confidence. The context
// is reconstructed from the mobility model (expected route, median travel
// time, implied speed), which is exactly the information PlanTrip would
// derive at trip start — both run the same pipeline stages. The plan is
// cached under (user, dest, BucketOf(at)) when phase 1 approves and at
// least one item is scheduled; the returned TripPlan reports the phase-1
// decision either way.
func (s *System) WarmPlan(userID string, from, dest predict.PlaceID, prob float64, at time.Time) (*TripPlan, error) {
	t := &pipeline.Task{
		Mode: pipeline.ModeWarm,
		User: userID,
		Now:  at,
		From: from,
		Dest: dest,
		Prob: prob,
	}
	s.runPlan(t)
	return s.finishPlanTask(t)
}

// runPlan runs a plan-mode task without the items the user skipped or
// disliked — the set and retention rule the skip paths use — so a
// dislike changes the next plan, cold or warm. The set is read after a
// cache version is taken and the plan is stored under that version, so
// a dislike that lands in between leaves the plan stale rather than
// cached as fresh.
func (s *System) runPlan(t *pipeline.Task) {
	ver := s.PlanCache.Snapshot(t.User)
	t.Exclude = s.Feedback.SkippedItems(t.User)
	s.pipe.Run(t)
	t.CacheVer = ver
}

// WarmRequest is one WarmBatch member: an anticipated trip to warm.
type WarmRequest struct {
	UserID     string
	From, Dest predict.PlaceID
	Prob       float64
	At         time.Time
}

// TripResult pairs one WarmBatch member's plan with its error.
type TripResult struct {
	Plan *TripPlan
	Err  error
}

// WarmBatch is WarmPlan in a loop, with positional results. Nothing in
// the product calls it: it stays only because the frozen benchmark row
// precompute.warm_batch_ms_per_plan (bench/layers.go) does, and goes
// with WarmRequest and TripResult when that row is re-pointed.
func (s *System) WarmBatch(reqs []WarmRequest) []TripResult {
	out := make([]TripResult, len(reqs))
	for i, r := range reqs {
		out[i].Plan, out[i].Err = s.WarmPlan(r.UserID, r.From, r.Dest, r.Prob, r.At)
	}
	return out
}

func (s *System) rememberPlan(userID string, tp *TripPlan) {
	sh := s.shardFor(userID)
	s.lockShard(sh)
	sh.lastPlans[userID] = tp
	sh.mu.Unlock()
}

// LastPlan returns the most recent trip plan computed for the user —
// what the control dashboard shows as "the details of the recommendation
// process" (§2.2).
func (s *System) LastPlan(userID string) (*TripPlan, bool) {
	sh := s.shardFor(userID)
	s.rlockShard(sh)
	defer sh.mu.RUnlock()
	tp, ok := sh.lastPlans[userID]
	return tp, ok
}

// ErrNoAlternative is returned by SkipLive when no suitable replacement
// content exists; the client app stays on (or zaps) linear radio.
var ErrNoAlternative = errors.New("pphcr: no alternative content available")

// SkipLive handles the manual-skip task (§1.3, §2.1.1 "Greg"): the
// listener skips the on-air program; the system records the implicit
// negative feedback for that program and returns the most relevant
// replacement clip the listener has not already skipped. The app then
// seamlessly replaces the live audio with the returned clip.
func (s *System) SkipLive(userID, serviceID string, ctx recommend.Context) (recommend.Scored, error) {
	if prog, err := s.Directory.ProgramAt(serviceID, ctx.Now); err == nil {
		if err := s.AddFeedback(feedback.Event{
			UserID:     userID,
			ItemID:     prog.ID,
			Kind:       feedback.Skip,
			At:         ctx.Now,
			Categories: prog.Categories,
		}); err != nil {
			return recommend.Scored{}, err
		}
	}
	return s.skipReplacement(userID, ctx)
}

// SkipClip handles a skip of an already-playing recommended clip: the
// negative feedback is recorded for the clip itself and the next
// not-yet-skipped recommendation is returned.
func (s *System) SkipClip(userID, itemID string, ctx recommend.Context) (recommend.Scored, error) {
	if it, ok := s.Repo.Get(itemID); ok {
		// No Categories: the event means the catalog item's own.
		if err := s.AddFeedback(feedback.Event{
			UserID: userID,
			ItemID: it.ID,
			Kind:   feedback.Skip,
			At:     ctx.Now,
		}); err != nil {
			return recommend.Scored{}, err
		}
	}
	return s.skipReplacement(userID, ctx)
}

// skipReplacement picks the single best not-yet-skipped clip for the
// user. Pending editorial injections keep their precedence (and their
// inject-once semantics), then the pipeline ranks with k=1 and the
// skipped set excluded in-stage — the Rank stage's bounded top-k heap
// selects the one replacement without ranking (or sorting) the whole
// catalog the way the old Recommend(user, ctx, 0) scan did
// (BenchmarkSkipReplacement measures the gap).
func (s *System) skipReplacement(userID string, ctx recommend.Context) (recommend.Scored, error) {
	skipped := s.Feedback.SkippedItems(userID)
	// Preserve Recommend's merge semantics: the first pinned, unskipped
	// item wins outright. Past the loop every pinned item is skipped, so
	// the skip set alone keeps them out of the organic ranking.
	pinned, _ := s.pinned(s.consumeInjections(userID))
	for _, sc := range pinned {
		// A pinned item was found in the catalog, which never drops or
		// renumbers an item: its seq is there.
		if seq, _ := s.Repo.Seq(sc.Item.ID); !skipped.Has(seq, sc.Item.ID) {
			return sc, nil
		}
	}

	t := &pipeline.Task{
		Mode:    pipeline.ModeRank,
		User:    userID,
		Now:     ctx.Now,
		Ctx:     ctx,
		K:       1,
		Exclude: skipped,
	}
	s.pipe.Run(t)
	if len(t.Ranked) == 0 {
		return recommend.Scored{}, ErrNoAlternative
	}
	return t.Ranked[0], nil
}
