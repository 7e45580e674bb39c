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
// row — its categories, its category vector's norm, its coarse publish
// time — is built once, when content.Repository.Add stores the item; the
// Candidates stage takes a content.View of the rows (a lock and a few
// slice headers) and reads the user's decayed preference vector, once
// per task. The Rank stage then streams the window's rows, one item at
// a time, and scores only the items that share a category with the user
// (exact under the ranking content floor: an item with no shared
// category has zero cosine and is filtered either way), and for a
// plan-mode task keeps only the items the knapsack can still choose
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

	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/distraction"
	"pphcr/internal/feedback"
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

	// K bounds a ModeRank task's ranked list (0 = all). Exclude, in any
	// mode, drops items in Rank: the plan and skip paths pass the user's
	// skip set.
	K       int
	Exclude feedback.Skips

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

	done bool
	set  *candSet
	sel  *core.Selection
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

// Predict and Rank are the two stages a caller may substitute: tests
// preset a prediction, and fault injection slows or watches the ranker.
// Gate, Candidates and Allocate are the Pipeline's own methods.

// Predict derives the trip prediction and recommendation context.
type Predict interface {
	Predict(t *Task)
}

// Rank produces the ordered relevance list for one task.
type Rank interface {
	Rank(t *Task)
}

// Deps wires a default stage set to its owning system.
type Deps struct {
	// Mobility returns the user's compacted mobility model.
	Mobility func(user string) (*tracking.CompactModel, bool)
	// Preferences writes the user's decayed preference vector at now
	// into dst[:0], in category-name order (feedback.Store.Preferences).
	Preferences func(dst feedback.Vector, user string, now time.Time) feedback.Vector
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
}

// Pipeline composes the five stages. Predict and Rank may be replaced
// before first use to substitute custom operators.
type Pipeline struct {
	Predict Predict
	Rank    Rank

	deps Deps
	po   *pools
	m    metrics
}

// New builds a pipeline with the default stage implementations, which
// share one set of recycled buffers.
func New(deps Deps) *Pipeline {
	po := &pools{}
	return &Pipeline{
		Predict: &mobilityPredict{deps: deps},
		Rank:    &indexRank{deps: deps, po: po},
		deps:    deps,
		po:      po,
	}
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
		p.gate(t)
		p.observe(StageGate, t, start)
		if t.skip() {
			return
		}
	}
	start := time.Now()
	p.gather(t)
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
			p.allocate(t)
			p.observe(StageAllocate, t, start)
		}
	}
	p.release(t)
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
