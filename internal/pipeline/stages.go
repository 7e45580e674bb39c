package pipeline

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/distraction"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
	"pphcr/internal/recommend"
)

// pools are the pipeline-owned recycled buffers shared by the default
// stages: a candidate set per task, and the planner selections
// plan-mode tasks rank into (ModeRank hands its ranked slice to the
// caller).
type pools struct {
	sets sync.Pool // *candSet
	sels sync.Pool // *core.Selection
}

// ---- Predict ---------------------------------------------------------

// mobilityPredict derives the trip prediction and context from the
// user's compacted mobility model: live tasks match the partial trace
// (PredictTrip), warm tasks reconstruct the anticipated trip (expected
// route, median travel time, implied speed) — exactly the information a
// live request would derive at trip start.
type mobilityPredict struct {
	deps Deps
}

func (s *mobilityPredict) Predict(t *Task) {
	// The invalidation version is captured before ANY ranking input —
	// including the mobility model — is sampled, so a concurrent
	// re-compaction or feedback event marks the produced plan stale
	// instead of letting it masquerade as fresh.
	if s.deps.Cache != nil {
		t.CacheVer = s.deps.Cache.Snapshot(t.User)
	}
	cm, ok := s.deps.Mobility(t.User)
	if !ok {
		t.Err = fmt.Errorf("pphcr: no mobility model for %q (run CompactTracking)", t.User)
		return
	}
	m := cm.Mobility
	switch t.Mode {
	case ModeLive:
		if len(t.Partial) == 0 {
			t.Err = errors.New("pphcr: empty partial trace")
			return
		}
		pred, ok := m.PredictTrip(t.Partial, t.Now)
		if !ok {
			t.Reason = "trip not recognized"
			t.done = true
			return
		}
		t.Recognized = true
		t.Prediction = pred
		t.Source = SourceCold
		t.Ctx = recommend.Context{
			Now:      t.Now,
			Position: t.Partial[len(t.Partial)-1].Point,
			Route:    pred.Route,
			SpeedMS:  t.Partial.AverageSpeed(),
			DeltaT:   pred.DeltaT,
			Driving:  true,
		}
		t.CacheKey = plancache.Key{User: t.User, Dest: pred.Dest, Bucket: predict.BucketOf(t.Now)}
	case ModeWarm:
		median, mad, ok := m.TravelTime(t.From, t.Dest)
		if !ok {
			t.Err = fmt.Errorf("pphcr: no travel history %d→%d for %q", t.From, t.Dest, t.User)
			return
		}
		route, _ := m.ExpectedRoute(t.From, t.Dest)
		var pos geo.Point
		switch {
		case len(route) > 0:
			pos = route[0]
		case int(t.From) >= 0 && int(t.From) < len(m.Places()):
			pos = m.Places()[t.From].Center
		}
		var speed float64
		if len(route) >= 2 && median > 0 {
			if rl, ok := m.RouteLength(t.From, t.Dest); ok {
				speed = rl / median.Seconds()
			}
		}
		// Plan to a robust lower bound of the travel time, not the
		// median: a live request arrives a little after trip start with
		// slightly less ΔT remaining, and a plan filled to the median
		// would fail its fit check exactly when it is wanted most.
		// median−MAD (clamped to half the median) absorbs that slack.
		deltaT := median - mad
		if deltaT < median/2 {
			deltaT = median / 2
		}
		t.Recognized = true
		t.Source = SourceWarm
		t.Prediction = predict.Prediction{
			From: t.From, Dest: t.Dest,
			Confidence: t.Prob,
			DeltaT:     median, DeltaTMAD: mad,
			Route: route,
		}
		t.Ctx = recommend.Context{
			Now:      t.Now,
			Position: pos,
			Route:    route,
			SpeedMS:  speed,
			DeltaT:   deltaT,
			Driving:  true,
		}
		t.CacheKey = plancache.Key{User: t.User, Dest: t.Dest, Bucket: predict.BucketOf(t.Now)}
	}
}

// ---- Gate ------------------------------------------------------------

// gate is proactivity phase 1. Live and warm tasks build the SAME
// core.Situation here — the single shared construction that replaces
// the hand-rolled copies the entry points used to carry (which had
// already drifted once).
func (p *Pipeline) gate(t *Task) {
	var tl distraction.Timeline
	if t.Timeline != nil {
		tl = *t.Timeline
	}
	t.Proactive, t.Reason = p.deps.Planner.ShouldRecommend(core.Situation{
		Ctx:            t.Ctx,
		TripConfidence: t.Prediction.Confidence,
		Distraction:    tl,
	})
	if !t.Proactive {
		t.done = true
	}
}

// ---- Candidates ------------------------------------------------------

// candSet is one task's candidate state: a view of the catalog — whose
// items carry their ranking rows since they were added, so nothing is
// featurized here — the user's preference vector by category id, and
// the few terms that depend on the planning instant. Rank reads the
// view's rows, from the candidate window's first item on.
type candSet struct {
	now  time.Time
	view content.View
	fp   userPrefs
	// kindBase is Scorer.ContextBase at now for each known item kind: the
	// plain (weather- and activity-free) context base depends on nothing
	// else, and computing it per candidate was a tenth of a cold plan.
	kindBase [content.KindTimeShifted + 1]float64
	// Admission rows: T[w][c] at rows[w*rowCols+c], last the +∞ row (0: none).
	rows     []float64
	last     int
	lamCtx   [rowCols]float64 // λ·ĉ_c
	rowScale float64          // √Na / (1−λ)
}

// start points the set at the catalog as of this call.
func (set *candSet) start(deps *Deps, now time.Time) {
	set.now = now
	deps.Catalog(&set.view)
	for k := range set.kindBase {
		set.kindBase[k] = deps.Scorer.ContextBase(&content.Item{Kind: content.Kind(k)}, recommend.Context{Now: now})
	}
}

// userPrefs is one task's copy of its user's decayed preference
// vector: the vector in category-name order, the precomputed √norm of
// the user side of the cosine and the user's weight by category id,
// which Rank multiplies each item's row by.
type userPrefs struct {
	flat   feedback.Vector
	sqrtNa float64
	u      content.Prefs
}

// load norms the freshly read vector in flat and files its weights by id.
func (fp *userPrefs) load() {
	fp.sqrtNa, fp.u = 0, content.Prefs{}
	var na float64
	for _, pw := range fp.flat {
		na += pw.W * pw.W
		fp.u.Set(pw.Cat, pw.W)
	}
	if na > 0 {
		fp.sqrtNa = math.Sqrt(na)
	}
}

// planFits reports whether every scheduled item still completes within
// the live ΔT — the usability test for serving a cached plan.
func planFits(p core.Plan, deltaT time.Duration) bool {
	for _, it := range p.Items {
		if it.StartOffset+it.Scored.Item.Duration > deltaT {
			return false
		}
	}
	return true
}

// gather is the Candidates stage: warm-plan cache short-circuit for
// live tasks, then one catalog view and one preference read for the
// task. release returns the pooled set gather took, after the task
// completes.
func (p *Pipeline) gather(t *Task) {
	if p.tryServeWarm(t) {
		return
	}
	set := p.po.acquire(t)
	set.start(&p.deps, t.Now)
	set.fp.flat = p.deps.Preferences(set.fp.flat, t.User, t.Now)
	set.fp.load()
}

// tryServeWarm is the live fast path: a plan precomputed for this
// (user, destination, time bucket) is served as-is when it still fits
// the live ΔT and was computed near the request in *logical* time —
// callers drive the pipeline with simulated clocks, so the wall-clock
// TTL alone would happily serve a plan from a previous simulated day.
// Requests carrying a distraction timeline bypass the cache entirely —
// warm plans are scheduled without transition constraints.
func (p *Pipeline) tryServeWarm(t *Task) bool {
	if t.Mode != ModeLive || t.Timeline != nil || p.deps.Cache == nil {
		return false
	}
	v, ok := p.deps.Cache.GetIf(t.CacheKey, func(v any) bool {
		cp, ok := v.(CachedPlan)
		if !ok {
			return false
		}
		plan, at := cp.CachedPlan()
		age := t.Now.Sub(at)
		if age < 0 {
			age = -age
		}
		return age <= p.deps.Cache.TTL() && planFits(plan, t.Prediction.DeltaT)
	})
	if !ok {
		return false
	}
	t.Plan, _ = v.(CachedPlan).CachedPlan()
	t.Source = SourceWarm
	t.done = true
	return true
}

// acquire hands the task a candidate set from the pool.
//
//pphcr:allow poolescape task-scoped buffer: release puts t.set back when the task ends
func (po *pools) acquire(t *Task) *candSet {
	set, _ := po.sets.Get().(*candSet)
	if set == nil {
		set = &candSet{}
	}
	t.set = set
	return set
}

// release recycles what acquire handed out. The view is dropped first:
// a pooled set must not keep a superseded generation of the catalog's
// arrays reachable.
func (p *Pipeline) release(t *Task) {
	if t.set == nil {
		return // served warm: nothing was acquired
	}
	t.set.view = content.View{}
	p.po.sets.Put(t.set)
	t.set = nil
}

// ---- Rank ------------------------------------------------------------

// indexRank is the default Rank stage: compute every candidate's dot
// product with the user's preference vector — from the candidate's own
// row, one item at a time — turn it into a cosine with the item's
// catalog-resident norm, filter by the content floor, and order by
// recommend.CompareRank — through a bounded top-k heap when a ModeRank
// task asks for k items (the skip hot path asks for one), through the
// planner's core.Selection for plan-mode tasks, which keeps only the
// items the knapsack can still choose and returns a few hundred instead
// of the catalog. Both bounds let the stage skip an item on the cheap
// side of its score: freshness is a factor in [0.5, 1] on the content
// score and Compound is monotone in it, so the cosine alone bounds the
// compound from above.
type indexRank struct {
	deps Deps
	po   *pools
}

// worse is the inverse ranking order: true when x ranks strictly below
// y.
func worse(x, y recommend.Scored) bool { return recommend.CompareRank(x, y) > 0 }

// ranking is the state of one Rank call.
type ranking struct {
	s    *indexRank
	t    *Task
	set  *candSet
	cut  content.Cut // the candidate window
	rich bool
	sel  *core.Selection // plan-mode tasks
	out  []recommend.Scored
}

func (s *indexRank) Rank(t *Task) {
	set := t.set
	if set == nil {
		return
	}
	if t.Mode != ModeRank {
		sel, _ := s.po.sels.Get().(*core.Selection)
		if sel == nil {
			sel = new(core.Selection)
		}
		sel.Reset(t.Ctx.DeltaT)
		//pphcr:allow poolescape task-scoped buffer: the Allocate stage puts sel back after consuming the ranking
		t.sel = sel
	}
	r := ranking{
		s: s, t: t, set: set, sel: t.sel,
		cut:  content.Since(t.Now.Add(-s.deps.CandidateWindow)),
		rich: t.Ctx.Weather != recommend.WeatherUnknown || t.Ctx.Activity != recommend.ActivityUnknown,
	}
	// Without a preference that has a direction every cosine is zero.
	if set.fp.sqrtNa > 0 {
		r.startRows()
		r.scan()
	}
	if r.sel != nil {
		t.Ranked = r.sel.Ranked()
		return
	}
	slices.SortFunc(r.out, recommend.CompareRank)
	t.Ranked = r.out
}

// scan scores every item in the candidate window from its row: the dot
// product with the user's weights, added in category-name order as the
// item's norm was (content.Features.Dot), then the cosine as a bound on
// the compound. Up to the bound check it reads only the rows — an item
// itself, by its seq, only when it has a geographic scope or the context
// is rich — so an item the bound rejects, nearly all of them, is never
// dereferenced, and costs no call.
func (r *ranking) scan() {
	t, set, scorer := r.t, r.set, r.s.deps.Scorer
	view, u := &set.view, &set.fp.u
	for lo, n := view.WindowStart(r.cut), int32(view.Len()); lo < n; {
		rows := view.Rows(lo)
		for j := range rows {
			f := &rows[j]
			dot := f.Dot(u)
			if f.Spills() {
				dot = view.SpillDot(dot, f, u)
			}
			if dot <= 0 {
				continue // cos ≤ 0: actively disliked or disjoint
			}
			seq := lo + int32(j)
			if set.last > 0 && set.rowRejects(f, dot) || f.SqrtNorm == 0 {
				continue
			}
			cos := dot / set.fp.sqrtNa / f.SqrtNorm
			var ctxScore float64
			if r.rich {
				ctxScore = scorer.ContextScore(view.Item(seq), t.Ctx)
			} else {
				geoScore := 0.5 // Scorer.GeoScore of an item without a scope
				if f.HasGeo {
					geoScore = scorer.GeoScore(view.Item(seq), &t.Ctx)
				}
				var base float64
				if k := int(f.Kind); k < len(set.kindBase) {
					base = set.kindBase[k]
				} else {
					base = scorer.ContextBase(view.Item(seq), recommend.Context{Now: set.now})
				}
				ctxScore = 0.5*geoScore + base
			}
			// cos bounds the content score from above; an item that cannot
			// enter on the bound is dropped before its freshness is computed.
			bound := scorer.Compound(cos, ctxScore)
			if r.sel != nil {
				if r.sel.Rejects(f.Duration, bound) {
					continue
				}
			} else if t.K > 0 && len(r.out) >= t.K && bound < r.out[0].Compound {
				continue
			}
			r.offer(seq, cos, ctxScore)
		}
		lo += int32(len(rows))
	}
}

// offer finishes scoring the item numbered seq, which the bound let
// through, and offers it if the publish cut admits it.
func (r *ranking) offer(seq int32, cos, ctxScore float64) {
	t, scorer := r.t, r.s.deps.Scorer
	// Only items the bound let through pay the cut and the lookup; both
	// bound checks read just the heap, which an item the cut or the
	// exclusions drop never enters. The cut is checked here, out of
	// score's loop, because Admits is a call: in the loop, its
	// arguments' spills land on the path of every item the rows reject.
	if !r.cut.Admits(&r.set.view, seq) {
		return
	}
	it := r.set.view.Item(seq)
	if t.Exclude.Has(seq, it.ID) {
		return
	}
	contentScore := cos * scorer.FreshnessFactor(it, r.set.now)
	if contentScore < recommend.ContentFloor {
		return
	}
	sc := recommend.Scored{
		Item:     it,
		Content:  contentScore,
		Context:  ctxScore,
		Compound: scorer.Compound(contentScore, ctxScore),
	}
	switch {
	case r.sel != nil:
		r.keep(sc)
	case t.K > 0 && len(r.out) >= t.K:
		// Bounded min-heap: out[0] is the worst of the current top k; a
		// better candidate replaces it and sifts down.
		if !worse(sc, r.out[0]) {
			r.out[0] = sc
			siftDown(r.out, 0)
		}
	default:
		r.out = append(r.out, sc)
		if len(r.out) == t.K {
			for i := len(r.out)/2 - 1; i >= 0; i-- {
				siftDown(r.out, i)
			}
		}
	}
}

// Admission rows. A plan-mode task with 0 ≤ λ < 1 skips an item of slot
// class w and context column c, without a division, when dot < T[w][c]·√Ni:
//
//	T[w][c] = (F_w − λ·ĉ_c) / (1 − λ) · √Na,  F_w = floor[w] / (w·Slot),
//
// ĉ_c bounding the context score: 0.5·0.5 + kindBase[k], exactly, for a
// geo-less item of kind k < 4 under a plain context, else ContextCeiling.
// Sound: secs ≤ w·Slot and compound = (1−λ)·dot/(√Na·√Ni) + λ·ctx, so
// dot < T·√Ni gives compound < F_w and, as T > 0 means F_w > λ·ĉ ≥ 0,
// compound·secs < floor[w]: Rejects refuses it. Taking F_w rowMargin
// smaller covers each rounding (relative 2⁻⁵³ of a term ≤ F_w) and
// underflow (absolute 2⁻¹⁰⁷⁵; √Na, √Ni ≥ 2⁻⁵³⁷) once F_w ≥ 2⁻⁵⁰⁰, below
// which a row rejects nothing. T is −∞ while a class has room, +∞ past
// the capacity, and recomputed when Offer sets a floor (keep).
const (
	rowCols   = int(content.KindTimeShifted) + 2 // a column per known kind, and the last
	rowMargin = 1e-9
)

// startRows fills a plan-mode task's rows; none at λ = 1 (the compound does
// not depend on the cosine) or past MaxUint16 slots (Slots saturates).
func (r *ranking) startRows() {
	lambda, set := r.s.deps.Scorer.ContextWeight, r.set
	if set.last = 0; r.sel == nil || !(lambda >= 0 && lambda < 1) || r.sel.Capacity() >= math.MaxUint16 {
		return
	}
	for c := range set.lamCtx {
		set.lamCtx[c] = lambda * recommend.ContextCeiling(r.t.Ctx)
		if c < len(set.kindBase) && !r.rich {
			set.lamCtx[c] = lambda * (0.5*0.5 + set.kindBase[c])
		}
	}
	set.rowScale = set.fp.sqrtNa / (1 - lambda)
	set.last, set.rows = r.sel.Capacity()+1, set.rows[:0]
	for i := range (set.last + 1) * rowCols {
		set.rows = append(set.rows, math.Inf(i/rowCols/set.last*2-1)) // −∞, +∞ in the last row
	}
}

// rowRejects reports whether the item's admission row rejects it.
func (set *candSet) rowRejects(f *content.Features, dot float64) bool {
	c := min(int(f.Kind), rowCols-1)
	if f.HasGeo {
		c = rowCols - 1
	}
	return dot < set.rows[min(int(f.Slots), set.last)*rowCols+c]*f.SqrtNorm
}

// keep offers an item and recomputes the row of the class whose floor
// that set; clamping T to the largest float only rejects less.
func (r *ranking) keep(sc recommend.Scored) {
	w, floor := r.sel.Offer(sc)
	perSec := floor / (float64(w) * content.Slot.Seconds()) * (1 - rowMargin)
	if w == 0 || w >= r.set.last || !(perSec >= 0x1p-500) {
		return
	}
	for c, lc := range r.set.lamCtx {
		r.set.rows[w*rowCols+c] = min((perSec-lc)*r.set.rowScale, math.MaxFloat64)
	}
}

// siftDown restores the worst-at-root heap property from index i.
func siftDown(h []recommend.Scored, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && worse(h[l], h[m]) {
			m = l
		}
		if r < len(h) && worse(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// ---- Allocate --------------------------------------------------------

// allocate is proactivity phase 2: fit the ranked list into ΔT
// (knapsack + deadline/distraction scheduling) through the shared core
// planner, and mark the plan cacheable when it qualifies.
func (p *Pipeline) allocate(t *Task) {
	t.Plan = p.deps.Planner.Allocate(t.Ranked, core.Request{
		Ctx:         t.Ctx,
		Distraction: t.Timeline,
	})
	// Warm tasks always cache a non-empty plan; live tasks only when no
	// distraction timeline constrained the schedule (warm serves are
	// schedule-unconstrained).
	if len(t.Plan.Items) > 0 && (t.Mode == ModeWarm || t.Timeline == nil) {
		t.Cacheable = true
	}
	// The plan copied everything it keeps; recycle the selection that
	// owns the ranked slice.
	if t.sel != nil {
		p.po.sels.Put(t.sel)
		t.sel = nil
	}
	t.Ranked = nil
}
