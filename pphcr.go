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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/ann"
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
	// ContextWeight is λ of the compound relevance score. Default 0.4.
	ContextWeight float64
	// ASRWordErrorRate simulates the recognizer quality. Default 0.15.
	ASRWordErrorRate float64
	// Vocabulary seeds the ASR confusion pool (usually the corpus
	// vocabulary).
	Vocabulary []string
	// TrainingDocs trains the Bayesian classifier; required.
	TrainingDocs []textclass.Document
	// Seed drives all simulated randomness. Default 1.
	Seed int64
	// CandidateWindow bounds how far back the recommender looks for
	// candidate clips. Default 72h.
	CandidateWindow time.Duration
	// PlanCacheShards is the shard count of the warm-plan cache.
	// Default plancache.DefaultShards (32).
	PlanCacheShards int
	// PlanTTL is how long a precomputed trip plan may be served before it
	// is considered stale. Default plancache.DefaultTTL (10 minutes).
	PlanTTL time.Duration
	// UserShards is the stripe count of the per-user state shards
	// (mobility models, pending injections, last plans). Rounded up to a
	// power of two. Default DefaultUserShards (32).
	UserShards int
	// ANNCandidates enables embedding-based candidate retrieval: an
	// HNSW index over quantized item embeddings is maintained on ingest
	// (beside the R-tree) and the pipeline's Candidates stage queries it
	// instead of scanning the publish window — sublinear in catalog size
	// at pinned recall. The index is derived state: snapshots and WAL
	// replay rebuild it through the ordinary Repository restore path.
	ANNCandidates bool
	// ANNRetrieve is the per-query candidate budget (default 256).
	// Indexes no larger than the budget are retrieved exactly, making
	// small-catalog plans byte-identical to the exact stage.
	ANNRetrieve int
	// ANNEf is the HNSW search beam width (default 2×ANNRetrieve).
	ANNEf int
	// ANNProbeEvery samples every Nth retrieval with a brute-force
	// recall probe feeding the recall_at_k gauge (0 = off).
	ANNProbeEvery int
}

// DefaultUserShards is the default stripe count of the per-user state.
const DefaultUserShards = 32

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

	ingest          *content.Pipeline
	candidateWindow time.Duration

	// annIndex is the embedding index behind the ANN Candidates stage;
	// nil unless Config.ANNCandidates was set. It mirrors the Repo
	// catalog (inserts happen inside Repository.Add) and rebuilds from
	// it on restore/replay.
	annIndex *ann.Index

	// pipe is the staged planning pipeline (predict → gate → candidates →
	// rank → allocate) every public entry point executes through.
	pipe *pipeline.Pipeline

	shards        []userShard
	shardMask     uint32
	lockOps       atomic.Int64
	lockContended atomic.Int64

	// barrier fences the durable write paths against the checkpointer:
	// every mutating entry point applies its state change AND emits its
	// WAL event inside one read-locked stripe section (the stripe is the
	// user's shard index, so writers for different users share no
	// barrier state), and the checkpointer quiesces all stripes to
	// snapshot + rotate the WAL at a point where state and log agree
	// exactly (no applied-but-unlogged or logged-but-unapplied mutation
	// can straddle the boundary). Pure read paths — PlanTrip serving,
	// Recommend without pending injections, cache lookups, /stats —
	// never touch it.
	barrier commitBarrier
	// durHook, when set, receives exactly one durable event per
	// completed mutation, tagged with the barrier stripe the writer
	// held (which the WAL reuses as its staging stripe). Set via
	// SetMutationHook before serving.
	durHook func(stripe uint32, e durable.Event) error
	// ingestMu pins WAL order to apply order for the (userless) ingest
	// path the way the shard locks do for per-user mutations.
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
// by the per-user shard locks, the commit-barrier stripes and the WAL
// staging stripes, so one hash places a writer everywhere.
func (s *System) shardIndexFor(userID string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= fnvPrime32
	}
	return h & s.shardMask
}

// shardFor returns the stripe holding the user's state.
func (s *System) shardFor(userID string) *userShard {
	return &s.shards[s.shardIndexFor(userID)]
}

// ingestStripe is the barrier/WAL stripe of the userless content-ingest
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
	if cfg.ContextWeight == 0 {
		cfg.ContextWeight = 0.4
	}
	if cfg.ASRWordErrorRate == 0 {
		cfg.ASRWordErrorRate = 0.15
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.CandidateWindow <= 0 {
		cfg.CandidateWindow = 72 * time.Hour
	}
	if cfg.UserShards <= 0 {
		cfg.UserShards = DefaultUserShards
	}
	nShards := 1
	for nShards < cfg.UserShards {
		nShards <<= 1
	}
	var nb textclass.NaiveBayes
	if err := nb.Train(cfg.TrainingDocs); err != nil {
		return nil, fmt.Errorf("pphcr: training classifier: %w", err)
	}
	recognizer, err := asr.New(cfg.ASRWordErrorRate, asr.DefaultErrorProfile(), cfg.Vocabulary, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("pphcr: building recognizer: %w", err)
	}
	scorer := recommend.NewScorer(cfg.ContextWeight)
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
		PlanCache: plancache.New(plancache.Config{Shards: cfg.PlanCacheShards, TTL: cfg.PlanTTL}),
		ingest: &content.Pipeline{
			Recognizer: recognizer,
			Classifier: &nb,
			Repo:       repo,
		},
		candidateWindow: cfg.CandidateWindow,
		shards:          make([]userShard, nShards),
		shardMask:       uint32(nShards - 1),
	}
	s.barrier.stripes = make([]barrierStripe, nShards)
	for i := range s.shards {
		s.shards[i].mobility = make(map[string]*tracking.CompactModel)
		s.shards[i].compactN = make(map[string]int)
		s.shards[i].injected = make(map[string][]string)
		s.shards[i].lastPlans = make(map[string]*TripPlan)
	}
	deps := pipeline.Deps{
		Mobility:        s.MobilityModel,
		Preferences:     s.Preferences,
		Catalog:         repo.ReadView,
		CandidateWindow: cfg.CandidateWindow,
		Cache:           s.PlanCache,
		Planner:         s.Planner,
		Scorer:          scorer,
	}
	if cfg.ANNCandidates {
		s.annIndex = ann.New(ann.Config{
			Seed:       cfg.Seed,
			ProbeEvery: cfg.ANNProbeEvery,
		})
		// Attached before any ingest or restore, so every item that ever
		// enters the repository — live, snapshot-restored or WAL-replayed
		// — is embedded and indexed by the same Add path.
		repo.SetVectorIndex(s.annIndex)
		deps.ANN = s.annIndex
		deps.ANNRetrieve = cfg.ANNRetrieve
		deps.ANNEf = cfg.ANNEf
		deps.ResolveItem = repo.Seq
	}
	s.pipe = pipeline.New(deps)
	return s, nil
}

// ANNIndex returns the embedding index behind the ANN Candidates
// stage, or nil when Config.ANNCandidates is off.
func (s *System) ANNIndex() *ann.Index { return s.annIndex }

// RetrievalStats snapshots the embedding-retrieval path (per-query
// search latency, candidate counters, index size, sampled recall); ok
// is false when ANN retrieval is disabled.
func (s *System) RetrievalStats() (pipeline.RetrievalStats, ann.Stats, bool) {
	if s.annIndex == nil {
		return pipeline.RetrievalStats{}, ann.Stats{}, false
	}
	return s.pipe.Retrieval(), s.annIndex.Snapshot(), true
}

// PipelineStats snapshots the staged pipeline's per-stage latency and
// count metrics (reported on /stats and by the load generator).
func (s *System) PipelineStats() pipeline.Stats {
	return s.pipe.Stats()
}

// Pipeline returns the staged planning pipeline. Stage fields may be
// replaced before first use to substitute custom operators (tests use
// this to inject slow stages).
func (s *System) Pipeline() *pipeline.Pipeline { return s.pipe }

// BarrierAcquireHistogram is the contended-acquire wait distribution of
// the commit barrier, for metrics-endpoint registration.
func (s *System) BarrierAcquireHistogram() *obs.Histogram { return &s.barrier.acquireHist }

// BarrierQuiesceHistogram is the quiesce-entry (writer drain) latency
// distribution of the commit barrier, for metrics-endpoint
// registration.
func (s *System) BarrierQuiesceHistogram() *obs.Histogram { return &s.barrier.quiesceHist }

// SetMutationHook installs the durability hook: from now on every
// write-path entry point hands exactly one durable event describing its
// completed mutation to fn — tagged with the writer's barrier stripe —
// inside the same critical section that applied it. OpenDurability
// installs the WAL's striped appender here after recovery; tests may
// install capture hooks. Passing nil detaches.
//
// A hook error is returned to the entry point's caller (the mutation is
// already applied in memory — the next checkpoint still persists it —
// but the caller learns its write is not yet logged).
func (s *System) SetMutationHook(fn func(stripe uint32, e durable.Event) error) {
	// Quiescing every barrier stripe orders the swap against all
	// writers: each reads the hook under its stripe's read lock.
	s.barrier.quiesce()
	s.durHook = fn
	s.barrier.release()
}

// emit marshals payload and hands the typed event to the mutation hook.
// Callers must hold the read side of barrier stripe `stripe`.
func (s *System) emit(stripe uint32, t durable.Type, payload interface{}) error {
	if s.durHook == nil {
		return nil
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("pphcr: encoding %s event: %w", t, err)
	}
	if err := s.durHook(stripe, durable.Event{Type: t, Payload: b}); err != nil {
		return fmt.Errorf("pphcr: logging %s event: %w", t, err)
	}
	return nil
}

// checkpointBarrier runs fn with every durable write path excluded, so
// fn observes a state that exactly matches a WAL position.
func (s *System) checkpointBarrier(fn func()) {
	s.barrier.quiesce()
	defer s.barrier.release()
	fn()
}

// RegisterUser stores a listener profile. Apply + emit run under the
// user's shard lock so two racing registrations of the same user reach
// the WAL in their apply order.
func (s *System) RegisterUser(p profile.Profile) error {
	idx := s.shardIndexFor(p.UserID)
	s.barrier.rlock(idx)
	defer s.barrier.runlock(idx)
	sh := &s.shards[idx]
	s.lockShard(sh)
	err := s.Profiles.Put(p)
	if err == nil {
		err = s.emit(idx, durable.TypeRegister, p)
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.Broker.Publish("users.registered", []byte(p.UserID))
	return nil
}

// IngestPodcast runs the clip-data-management pipeline on one podcast.
//
// The durable event is emitted *before* the item enters the
// repository, and carries the *classified* item rather than the raw
// podcast: replaying raw audio through the ASR would consume different
// simulated-randomness than the original run, and logging after the
// add would let a concurrent Inject (which can only see the item once
// added) reach the WAL ahead of the item's own creation, making the
// log unreplayable.
func (s *System) IngestPodcast(raw content.RawPodcast) (*content.Item, error) {
	// Process (ASR + classification, the slowest operation in the
	// system) mutates nothing and runs outside every lock: holding the
	// durability read lock across it would park a pending checkpoint
	// barrier — and with it every other write path — behind the
	// slowest in-flight ingest.
	it, err := s.ingest.Process(raw)
	if err != nil {
		return nil, err
	}
	s.barrier.rlock(ingestStripe)
	defer s.barrier.runlock(ingestStripe)
	// emit + Add under one mutex, mirroring the per-user shard locking
	// of the other write paths: two concurrent ingests of the same ID
	// must reach the WAL in their apply order, or replay would keep the
	// loser's item instead of the winner's.
	s.ingestMu.Lock()
	err = s.emit(ingestStripe, durable.TypeIngest, it)
	added := false
	if err == nil || errors.Is(err, durable.ErrDeferredSync) {
		// ErrDeferredSync means an *earlier* fsync failed but THIS
		// record is in the log — the item must still be added, or
		// replay would resurrect an item the live system never served.
		// On Add failure the WAL holds an event whose apply failed
		// (duplicate ID, invalid duration); restoreItem skips it on
		// replay the same way, so recovered state still matches.
		if aerr := s.ingest.Repo.Add(it); aerr != nil {
			err = aerr
		} else {
			added = true
		}
	}
	s.ingestMu.Unlock()
	if added {
		// New content changes every user's candidate set: mark all warm
		// plans stale (O(1) epoch bump) whether or not the append
		// reported a durability problem; the precompute scheduler
		// re-warms them.
		s.PlanCache.InvalidateAll()
	}
	if err != nil {
		return nil, err
	}
	s.Broker.Publish("content.ingested."+it.TopCategory(), []byte(it.ID))
	return it, nil
}

// restoreItem inserts an already-classified item — the WAL replay path
// of IngestPodcast (the event payload is the classified item, so the
// ingestion pipeline is not re-run). An Add failure is skipped, not
// fatal: the event was logged before the live Add ran, so a record
// whose apply failed live (duplicate ID, invalid duration) fails here
// identically — skipping reproduces the live outcome.
func (s *System) restoreItem(it *content.Item) error {
	s.barrier.rlock(ingestStripe)
	defer s.barrier.runlock(ingestStripe)
	if err := s.Repo.Add(it); err != nil {
		return nil
	}
	s.PlanCache.InvalidateAll()
	s.Broker.Publish("content.ingested."+it.TopCategory(), []byte(it.ID))
	return nil
}

// RecordFix ingests one GPS sample for a user.
//
// Apply and WAL emit happen under the user's shard lock: two concurrent
// same-user mutations must reach the log in their apply order, or
// replay would reconstruct a state the live system never had (an
// out-of-order fix pair would even fail recovery outright).
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
	off := tr.StartSpan()
	s.barrier.rlock(idx)
	tr.EndSpan("barrier_wait", off)
	defer s.barrier.runlock(idx)
	sh := &s.shards[idx]
	s.lockShard(sh)
	err := s.Tracker.Record(userID, fix)
	if err == nil {
		off = tr.StartSpan()
		err = s.emit(idx, durable.TypeFix, fixEvent{User: userID, Fix: fix})
		tr.EndSpan("wal_append", off)
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.Broker.Publish("tracking.gps", []byte(userID))
	return nil
}

// AddFeedback stores one feedback event. Apply + emit run under the
// user's shard lock so the WAL preserves per-user apply order (see
// RecordFix).
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
	off := tr.StartSpan()
	s.barrier.rlock(idx)
	tr.EndSpan("barrier_wait", off)
	defer s.barrier.runlock(idx)
	sh := &s.shards[idx]
	s.lockShard(sh)
	err := s.Feedback.Append(e)
	applied := err == nil
	if applied {
		off = tr.StartSpan()
		err = s.emit(idx, durableTypeForKind(e.Kind), e)
		tr.EndSpan("wal_append", off)
	}
	sh.mu.Unlock()
	if applied {
		// The event is in the store whether or not the WAL append
		// succeeded, so the user's warm plans no longer reflect the
		// ranking inputs and must be invalidated either way.
		s.PlanCache.InvalidateUser(e.UserID)
	}
	if err != nil {
		return err
	}
	s.Broker.Publish("feedback."+e.Kind.String(), []byte(e.UserID))
	return nil
}

// CompactTracking runs the periodic tracking compaction for a user and
// caches the resulting mobility model.
func (s *System) CompactTracking(userID string) (*tracking.CompactModel, error) {
	idx := s.shardIndexFor(userID)
	s.barrier.rlock(idx)
	defer s.barrier.runlock(idx)
	return s.compactTracking(userID, -1)
}

// compactTracking compacts the user's first n fixes (the live count
// when n < 0) and installs the model. The count is pinned, the model
// installed and the WAL event emitted under the user's shard lock, and
// the event carries the pinned count, so replay re-derives the model
// from exactly the same trace prefix no matter how concurrent fixes
// interleaved with the compaction. Callers hold the user's barrier
// stripe (read side).
func (s *System) compactTracking(userID string, n int) (*tracking.CompactModel, error) {
	idx := s.shardIndexFor(userID)
	sh := &s.shards[idx]
	s.lockShard(sh)
	if n < 0 {
		n = s.Tracker.FixCount(userID)
	}
	cm, err := s.Tracker.CompactN(userID, tracking.DefaultCompactParams(), n)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	sh.mobility[userID] = cm
	sh.compactN[userID] = n
	//pphcr:allow mutateemit callers hold the user's barrier stripe (read side), per this function's contract
	err = s.emit(idx, durable.TypeCompact, compactEvent{User: userID, N: n})
	sh.mu.Unlock()
	// The model is installed whether or not the WAL append succeeded,
	// and re-compaction renumbers the user's staying points — cached
	// keys (which embed PlaceIDs) must not survive it, emit error or
	// not.
	s.PlanCache.InvalidateUser(userID)
	if err != nil {
		return nil, err
	}
	s.Broker.Publish("tracking.compacted", []byte(userID))
	return cm, nil
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

// Preferences returns the user's current category preference vector:
// time-decayed feedback blended with the profile's declared interests.
// The read is served from the feedback store's incremental index in
// O(categories) — independent of how much history the user has.
func (s *System) Preferences(userID string, now time.Time) map[string]float64 {
	params := feedback.DefaultPreferenceParams()
	if p, err := s.Profiles.Get(userID); err == nil {
		params.Seed = p.SeedPreferences()
	}
	return s.Feedback.Preferences(userID, now, params)
}

// CompactFeedback folds the user's feedback events older than horizon
// into their baseline vector and truncates the log — the feedback
// analogue of CompactTracking, keeping per-user memory bounded.
// Preferences are unaffected (the incremental index already contains
// every event), so warm plans stay valid and no cache invalidation is
// needed. It returns the number of events folded away.
func (s *System) CompactFeedback(userID string, now time.Time, horizon time.Duration) int {
	idx := s.shardIndexFor(userID)
	s.barrier.rlock(idx)
	defer s.barrier.runlock(idx)
	sh := &s.shards[idx]
	// The shard lock pins the WAL position of the fold relative to the
	// user's racing AddFeedback emits (both apply to the feedback store
	// and must replay in apply order).
	s.lockShard(sh)
	n := s.Feedback.Compact(userID, now, horizon)
	var emitErr error
	if n > 0 {
		// The fold is deterministic in (user, now, horizon), so the WAL
		// event records the arguments and replay re-runs the fold. The
		// signature cannot propagate an emit failure, so it is counted
		// (surfaced on /stats) — and the WAL's sticky error resurfaces
		// on the next mutation anyway.
		emitErr = s.emit(idx, durable.TypeFeedbackCompact, feedbackCompactEvent{User: userID, At: now, Horizon: horizon})
	}
	sh.mu.Unlock()
	if n > 0 {
		if emitErr != nil {
			s.emitErrs.Add(1)
		}
		// Deliberately NOT under "feedback.#": compaction does not change
		// the preference vector, so it must not trigger plan re-warming.
		s.Broker.Publish("prefs.compacted", []byte(userID))
	}
	return n
}

// Candidates returns the current candidate clip set: everything published
// within the candidate window before now.
func (s *System) Candidates(now time.Time) []*content.Item {
	return s.Repo.AppendPublishedSince(nil, now.Add(-s.candidateWindow))
}

// Recommend ranks the current candidates for the user in the given
// context, through the pipeline's Candidates → Rank stages. Editorially
// injected items (Fig 6) are pinned to the top with full relevance, then
// removed from the injection list (inject-once semantics).
func (s *System) Recommend(userID string, ctx recommend.Context, k int) []recommend.Scored {
	t := &pipeline.Task{Mode: pipeline.ModeRank, User: userID, Now: ctx.Now, Ctx: ctx, K: k}
	s.pipe.Run(t)
	ranked := t.Ranked

	pinned, seen := s.consumeInjections(userID)
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
// (inject-once semantics) and resolves them into pinned entries with
// full relevance, deduplicated; seen holds the resolved IDs so callers
// can drop them from the organic ranking. Shared by Recommend and the
// skip replacement path so the pinning semantics cannot drift.
//
// The overwhelmingly common case — no pending injection — is a pure
// read and must not touch the commit barrier: Recommend and the skip
// paths sit on the request hot path, and the PR 4 regression came
// precisely from reads funneling through the global durability lock.
// Only when the peek finds queued items does the call upgrade to a
// barrier-fenced mutation (lock order: barrier stripe before shard
// lock, same as every write path — hence the re-lock dance).
func (s *System) consumeInjections(userID string) (pinned []recommend.Scored, seen map[string]bool) {
	idx := s.shardIndexFor(userID)
	sh := &s.shards[idx]
	s.rlockShard(sh)
	empty := len(sh.injected[userID]) == 0
	sh.mu.RUnlock()
	if empty {
		return nil, nil
	}

	s.barrier.rlock(idx)
	s.lockShard(sh)
	pinnedIDs := sh.injected[userID]
	delete(sh.injected, userID)
	if len(pinnedIDs) > 0 {
		// Consumption mutates durable state (inject-once semantics must
		// survive a crash, or recovered users see duplicate injections).
		// Emitted under the shard lock so a racing Inject for the same
		// user cannot land in the WAL on the wrong side of this consume;
		// the signature cannot propagate a failure, so it is counted.
		if err := s.emit(idx, durable.TypeConsume, consumeEvent{User: userID}); err != nil {
			s.emitErrs.Add(1)
		}
	}
	sh.mu.Unlock()
	s.barrier.runlock(idx)
	if len(pinnedIDs) == 0 {
		return nil, nil
	}
	seen = make(map[string]bool, len(pinnedIDs))
	for _, id := range pinnedIDs {
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
	s.barrier.rlock(idx)
	defer s.barrier.runlock(idx)
	if _, ok := s.Repo.Get(itemID); !ok {
		return fmt.Errorf("pphcr: cannot inject unknown item %q", itemID)
	}
	sh := &s.shards[idx]
	s.lockShard(sh)
	sh.injected[userID] = append(sh.injected[userID], itemID)
	err := s.emit(idx, durable.TypeInject, injectEvent{User: userID, Item: itemID})
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.Broker.Publish("editorial.injected", []byte(userID+":"+itemID))
	return nil
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
	s.pipe.Run(t)
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
	s.pipe.Run(t)
	return s.finishPlanTask(t)
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
		if err := s.AddFeedback(feedback.Event{
			UserID:     userID,
			ItemID:     it.ID,
			Kind:       feedback.Skip,
			At:         ctx.Now,
			Categories: it.Categories,
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

	exclude := skipped
	if pinned, seen := s.consumeInjections(userID); len(pinned) > 0 {
		// Preserve Recommend's merge semantics: the first pinned,
		// unskipped item wins outright; pinned-but-skipped items must not
		// reappear from the organic ranking.
		for _, sc := range pinned {
			if !skipped[sc.Item.ID] {
				return sc, nil
			}
		}
		exclude = seen
		for id := range skipped {
			exclude[id] = true
		}
	}

	t := &pipeline.Task{
		Mode:    pipeline.ModeRank,
		User:    userID,
		Now:     ctx.Now,
		Ctx:     ctx,
		K:       1,
		Exclude: exclude,
	}
	s.pipe.Run(t)
	if len(t.Ranked) == 0 {
		return recommend.Scored{}, ErrNoAlternative
	}
	return t.Ranked[0], nil
}
