// Package pipeline is the staged proactive-planning engine of the PPHCR
// system. The paper's flow — trip prediction, the "should we interrupt"
// gate, relevance ranking, ΔT schedule allocation — is modeled as five
// explicit stages (Predict → Gate → Candidates → Rank → Allocate) in the
// style of stream-pipeline systems (Aurora/Borealis dataflow operators,
// SEDA's staged event-driven design): each stage is a first-class
// operator with its own latency/count metrics, and every task runs
// through the one composition, Pipeline.Run.
//
// Nothing is derived from the catalog per request. Every item's ranking
// features — its category vector in category-name order with interned
// category ids, the vector's norm — and the category→items postings are
// built once, when content.Repository.Add stores the item; the
// Candidates stage takes a content.View of them (a lock and a few slice
// headers) and reads the user's decayed preference vector, once per
// task. The Rank stage then scores only the items that share a category
// with the user (exact under the ranking content floor: an item with no
// shared category has zero cosine and is filtered either way), and for
// a plan-mode task keeps only the items the knapsack can still choose
// (core.Selection), so the Allocate stage solves the knapsack over a
// few hundred items whatever the catalog size.
//
// All five public entry points of the System (PlanTrip, WarmPlan,
// Recommend, SkipLive, SkipClip) execute through a Pipeline, which is
// what makes cold and warm plans byte-identical: one gate, one ranker,
// one allocator.
package pipeline

import (
	"time"

	"pphcr/internal/ann"
	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/distraction"
	"pphcr/internal/obs"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
	"pphcr/internal/recommend"
	"pphcr/internal/tracking"
	"pphcr/internal/trajectory"
)

// Mode selects which stages a task runs through.
type Mode int

// Task modes.
const (
	// ModeLive is the full proactive flow for a trip in progress:
	// Predict (from the partial trace) → Gate → Candidates (with
	// warm-cache short-circuit) → Rank → Allocate.
	ModeLive Mode = iota
	// ModeWarm is the precompute flow for an anticipated trip: Predict
	// (reconstructed from the mobility model) → Gate → Candidates →
	// Rank → Allocate; the cache is never consulted (the warmer is the
	// writer, not a reader).
	ModeWarm
	// ModeRank is the reactive flow (Recommend, skip replacement): the
	// caller supplies the context, only Candidates → Rank run.
	ModeRank
)

// Plan sources.
const (
	SourceCold = "cold"
	SourceWarm = "warm"
)

// Task is one request flowing through the pipeline. Inputs are set by
// the caller according to Mode; stages fill the outputs.
type Task struct {
	Mode Mode
	User string
	// Now is the planning instant (the anticipated departure for
	// ModeWarm).
	Now time.Time

	// ModeLive inputs.
	Partial  trajectory.Trace
	Timeline *distraction.Timeline

	// ModeWarm inputs.
	From, Dest predict.PlaceID
	Prob       float64

	// ModeRank inputs: Ctx is the caller's context, K bounds the ranked
	// list (0 = all), Exclude drops items by ID before ranking (the
	// skip paths pass the user's skipped-item set).
	K       int
	Exclude map[string]bool

	// Ctx is the recommendation context: an input for ModeRank, derived
	// by the Predict stage otherwise.
	Ctx recommend.Context

	// Outputs.
	Prediction predict.Prediction
	// Recognized reports whether the Predict stage matched the partial
	// trace to a known trip (always true for ModeWarm successes).
	Recognized bool
	Proactive  bool
	Reason     string
	Ranked     []recommend.Scored
	Plan       core.Plan
	// Source records how the plan was produced: SourceCold when the
	// stages ran, SourceWarm when the Candidates stage served a
	// precomputed plan (or the task is a warming task).
	Source string
	Err    error

	// CacheKey/CacheVer identify where and under which invalidation
	// version a produced plan may be stored; Cacheable is set by the
	// Allocate stage when the plan qualifies. The System performs the
	// actual store (the cached value is its TripPlan).
	CacheKey  plancache.Key
	CacheVer  plancache.Version
	Cacheable bool

	// Trace, when non-nil, records per-stage spans for the slow-request
	// ring. Untraced tasks pay one nil check per stage.
	Trace *obs.Trace

	done  bool
	prefs map[string]float64
	set   *candSet
	sel   *core.Selection
}

// skip reports whether later stages should ignore the task.
func (t *Task) skip() bool { return t.done || t.Err != nil }

// CachedPlan is implemented by values stored in the plan cache; the
// Candidates stage uses it to judge and serve warm entries without
// knowing the owner's concrete plan type.
type CachedPlan interface {
	// CachedPlan returns the scheduled plan and the instant it was
	// computed for (the logical-time freshness anchor).
	CachedPlan() (core.Plan, time.Time)
}

// Stage interfaces: each is an operator on one task. They are
// interfaces so that tests and fault injection can substitute a stage.

// Predict derives the trip prediction and recommendation context.
type Predict interface {
	Predict(t *Task)
}

// Gate is proactivity phase 1: whether to recommend at all.
type Gate interface {
	Gate(t *Task)
}

// Candidates prepares the task's ranking inputs (catalog view,
// preference vector) and may short-circuit it from the warm-plan cache.
// Release returns the pooled resources Gather took, after the task
// completes.
type Candidates interface {
	Gather(t *Task)
	Release(t *Task)
}

// Rank produces the ordered relevance list for one task.
type Rank interface {
	Rank(t *Task)
}

// Allocate is proactivity phase 2 after ranking: fit the ranked items
// into ΔT under deadlines and distraction windows.
type Allocate interface {
	Allocate(t *Task)
}

// Deps wires a default stage set to its owning system.
type Deps struct {
	// Mobility returns the user's compacted mobility model.
	Mobility func(user string) (*tracking.CompactModel, bool)
	// Preferences returns the user's decayed preference vector at now.
	Preferences func(user string, now time.Time) map[string]float64
	// Catalog fills v with the current view of the content repository
	// (content.Repository.ReadView).
	Catalog func(v *content.View)
	// CandidateWindow bounds the candidate lookback.
	CandidateWindow time.Duration
	// Cache, when non-nil, is consulted by ModeLive tasks and versions
	// produced plans.
	Cache *plancache.Cache
	// Planner gates (phase 1) and allocates (phase 2).
	Planner *core.Planner
	// Scorer computes the compound relevance.
	Scorer *recommend.Scorer

	// ANN, when non-nil, swaps the Candidates stage to embedding-based
	// retrieval: candidates come from an HNSW search over item
	// embeddings instead of the full publish-window scan (sublinear in
	// catalog size at pinned recall).
	ANN *ann.Index
	// ANNRetrieve is how many candidates each query fetches before
	// exact re-ranking (default 256). Small indexes degrade to exact
	// retrieval of the whole catalog.
	ANNRetrieve int
	// ANNEf is the HNSW search beam width (default 2×ANNRetrieve).
	ANNEf int
	// ResolveItem maps a retrieved item ID back to the item's number in
	// the catalog (content.Repository.Seq); required when ANN is set.
	ResolveItem func(id string) (seq int32, ok bool)
}

// Default ANN retrieval budget.
const defaultANNRetrieve = 256

// Pipeline composes the five stages. Fields may be replaced before
// first use to substitute custom operators.
type Pipeline struct {
	Predict    Predict
	Gate       Gate
	Candidates Candidates
	Rank       Rank
	Allocate   Allocate

	m metrics
}

// New builds a pipeline with the default stage implementations, which
// share one set of recycled buffers. When deps.ANN is set the
// Candidates stage acquires candidates from the embedding index
// instead of the per-category postings; everything downstream is shared.
func New(deps Deps) *Pipeline {
	if deps.ANN != nil {
		if deps.ANNRetrieve <= 0 {
			deps.ANNRetrieve = defaultANNRetrieve
		}
		if deps.ANNEf <= 0 {
			deps.ANNEf = 2 * deps.ANNRetrieve
		}
	}
	po := &pools{}
	p := &Pipeline{
		Predict:  &mobilityPredict{deps: deps},
		Gate:     &plannerGate{deps: deps},
		Rank:     &indexRank{deps: deps, po: po, block: defaultBlock},
		Allocate: &plannerAllocate{deps: deps, po: po},
	}
	inner := &cacheCandidates{deps: deps, po: po}
	if deps.ANN != nil {
		p.Candidates = &annCandidates{inner: inner, deps: deps, po: po, m: &p.m}
	} else {
		p.Candidates = inner
	}
	return p
}

// Run executes one task through the staged flow. A task that errors or
// short-circuits (unrecognized trip, gate decline, warm-cache hit) skips
// the stages after it.
func (p *Pipeline) Run(t *Task) {
	p.m.tasks.Add(1)
	if t.Mode != ModeRank {
		start := time.Now()
		p.Predict.Predict(t)
		p.observe(StagePredict, t, start)
		if t.skip() {
			return
		}
		start = time.Now()
		p.Gate.Gate(t)
		p.observe(StageGate, t, start)
		if t.skip() {
			return
		}
	}
	start := time.Now()
	p.Candidates.Gather(t)
	p.observe(StageCandidates, t, start)
	if t.Trace != nil && t.Mode == ModeLive {
		if t.Source == SourceWarm {
			t.Trace.Note("cache:hit")
		} else if !t.skip() {
			t.Trace.Note("cache:miss")
		}
	}
	if !t.skip() {
		start = time.Now()
		p.Rank.Rank(t)
		p.observe(StageRank, t, start)
		if t.Mode != ModeRank {
			start = time.Now()
			p.Allocate.Allocate(t)
			p.observe(StageAllocate, t, start)
		}
	}
	p.Candidates.Release(t)
}

// observe records one stage execution that began at start: on the
// stage's histogram and, for a traced task, as a span.
func (p *Pipeline) observe(stage int, t *Task, start time.Time) {
	d := time.Since(start)
	p.m.hist[stage].Observe(d)
	if t.Trace != nil {
		t.Trace.AddSpan(stageSpans[stage], int64(start.Sub(t.Trace.Start)), int64(d))
	}
}
