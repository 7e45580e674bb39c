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
	"pphcr/internal/embed"
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

// plannerGate is proactivity phase 1. Live and warm tasks build the
// SAME core.Situation here — the single shared construction that
// replaces the hand-rolled copies the entry points used to carry (which
// had already drifted once).
type plannerGate struct {
	deps Deps
}

func (s *plannerGate) Gate(t *Task) {
	var tl distraction.Timeline
	if t.Timeline != nil {
		tl = *t.Timeline
	}
	t.Proactive, t.Reason = s.deps.Planner.ShouldRecommend(core.Situation{
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
// items carry their ranking features since they were added, so nothing
// is featurized here — the user's preference vector bound to that view,
// and the few terms that depend on the planning instant. The exact
// stage ranks the view's weighted postings, from the candidate window's
// first item on; the ANN stage ranks the items it retrieved.
type candSet struct {
	now  time.Time
	view content.View
	fp   userPrefs
	// kindBase is Scorer.ContextBase at now for each known item kind: the
	// plain (weather- and activity-free) context base depends on nothing
	// else, and computing it per candidate was a tenth of a cold plan.
	kindBase [content.KindTimeShifted + 1]float64
	// retrieved lists the ANN stage's candidates by seq; the exact stage
	// leaves fromIndex false and Rank accumulates the postings instead.
	retrieved []int32
	fromIndex bool
	// Rank's scratch on the exact path: one cursor per preferred
	// category, and one block of dot-product accumulators, all zero
	// whenever Rank is not running.
	cursors []cursor
	acc     []float64
}

// cursor is what is left to read of one preferred category's postings:
// ascending seqs, the weight each item gives the category beside them,
// and the weight the user gives it.
type cursor struct {
	seqs []int32
	ws   []float64
	p    float64
}

// start points the set at the catalog as of this call.
func (set *candSet) start(deps *Deps, now time.Time) {
	set.now = now
	deps.Catalog(&set.view)
	for k := range set.kindBase {
		set.kindBase[k] = deps.Scorer.ContextBase(&content.Item{Kind: content.Kind(k)}, recommend.Context{Now: now})
	}
}

// contextBase is Scorer.ContextBase for the item at the set's instant
// under a plain context.
func (set *candSet) contextBase(scorer *recommend.Scorer, it *content.Item) float64 {
	if k := int(it.Kind); k >= 0 && k < len(set.kindBase) {
		return set.kindBase[k]
	}
	return scorer.ContextBase(it, recommend.Context{Now: set.now})
}

// prefWeight is one coordinate of a preference vector.
type prefWeight struct {
	cat string
	w   float64
}

// userPrefs is one task's copy of its user's decayed preference
// vector: the map (handed to the allocator), its name-sorted flat form,
// the precomputed √norm of the user side of the cosine and, once bound
// to the task's catalog view, the same weights by interned category id.
// The ANN Candidates stage additionally keeps the quantized embedding
// of the vector here.
type userPrefs struct {
	prefs  map[string]float64
	flat   []prefWeight
	sqrtNa float64

	// ids are the preferred categories some catalog item carries, in
	// category-NAME order; byID holds every category's weight, indexed by
	// id, 0 for the ones the user has none for. Both are filled by bind.
	ids  []int32
	byID []float64

	q   embed.Quantized
	qOK bool // q encodes a meaningful direction (prefs non-empty)
}

// load takes a freshly read preference vector, flattening and norming
// it.
func (fp *userPrefs) load(prefs map[string]float64) {
	fp.prefs = prefs
	fp.flat = fp.flat[:0]
	for cat, w := range prefs {
		fp.flat = append(fp.flat, prefWeight{cat: cat, w: w})
	}
	// Insertion sort: preference vectors are small and sort.Slice's
	// closure indirection shows up on the skip hot path.
	flat := fp.flat
	for j := 1; j < len(flat); j++ {
		for k := j; k > 0 && flat[k].cat < flat[k-1].cat; k-- {
			flat[k], flat[k-1] = flat[k-1], flat[k]
		}
	}
	fp.sqrtNa = 0
	var na float64
	for _, pw := range fp.flat {
		na += pw.w * pw.w
	}
	if na > 0 {
		fp.sqrtNa = math.Sqrt(na)
	}
}

// bind resolves the preference categories against the view's interned
// ids.
func (fp *userPrefs) bind(v *content.View) {
	fp.ids = fp.ids[:0]
	fp.byID = append(fp.byID[:0], make([]float64, v.NumCategories())...)
	for _, pw := range fp.flat {
		if id, ok := v.CategoryID(pw.cat); ok {
			fp.ids = append(fp.ids, id)
			fp.byID[id] = pw.w
		}
	}
}

// cacheCandidates is the default Candidates stage: warm-plan cache
// short-circuit for live tasks, then one catalog view and one
// preference read for the task.
type cacheCandidates struct {
	deps Deps
	po   *pools
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

func (s *cacheCandidates) Gather(t *Task) {
	if s.tryServeWarm(t) {
		return
	}
	set := s.po.acquire(t)
	set.fromIndex = false
	set.start(&s.deps, t.Now)
	set.fp.load(s.deps.Preferences(t.User, t.Now))
	set.fp.bind(&set.view)
	t.prefs = set.fp.prefs
}

// tryServeWarm is the live fast path: a plan precomputed for this
// (user, destination, time bucket) is served as-is when it still fits
// the live ΔT and was computed near the request in *logical* time —
// callers drive the pipeline with simulated clocks, so the wall-clock
// TTL alone would happily serve a plan from a previous simulated day.
// Requests carrying a distraction timeline bypass the cache entirely —
// warm plans are scheduled without transition constraints.
func (s *cacheCandidates) tryServeWarm(t *Task) bool {
	if t.Mode != ModeLive || t.Timeline != nil || s.deps.Cache == nil {
		return false
	}
	v, ok := s.deps.Cache.GetIf(t.CacheKey, func(v any) bool {
		cp, ok := v.(CachedPlan)
		if !ok {
			return false
		}
		plan, at := cp.CachedPlan()
		age := t.Now.Sub(at)
		if age < 0 {
			age = -age
		}
		return age <= s.deps.Cache.TTL() && planFits(plan, t.Prediction.DeltaT)
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
//pphcr:allow poolescape task-scoped buffer: Release puts t.set back when the task ends
func (po *pools) acquire(t *Task) *candSet {
	set, _ := po.sets.Get().(*candSet)
	if set == nil {
		set = &candSet{}
	}
	t.set = set
	return set
}

// Release recycles what acquire handed out. The view and the preference
// map are dropped first: a pooled set must not keep a superseded
// generation of the catalog's arrays, or a user's vector, reachable.
func (s *cacheCandidates) Release(t *Task) {
	if t.set == nil {
		return // served warm: nothing was acquired
	}
	t.set.view.Reset()
	t.set.fp.prefs = nil
	s.po.sets.Put(t.set)
	t.set = nil
}

// ---- Rank ------------------------------------------------------------

// indexRank is the default Rank stage: compute every candidate's dot
// product with the user's preference vector — by accumulating the
// weighted postings of the categories the user prefers, a block of
// consecutive items at a time (or, for the ANN stage's retrieved list,
// from each item's own vector) — turn it into a cosine with the item's
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
	// block is how many consecutive seqs are accumulated before they are
	// scored. Not a knob: New sets defaultBlock; the oracle test shrinks
	// it to put block edges inside its small catalogs.
	block int
}

// defaultBlock keeps the accumulators (16 KB) and the slice of every
// preferred category's postings that lands in them inside L1/L2 while
// the block is scored.
const defaultBlock = 2048

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
		sel.Reset(s.deps.Planner, t.Ctx.DeltaT)
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
		if set.fromIndex {
			for _, seq := range set.retrieved {
				r.score(seq, set.dot(seq))
			}
		} else {
			r.accumulate()
		}
	}
	if r.sel != nil {
		t.Ranked = r.sel.Ranked()
		return
	}
	slices.SortFunc(r.out, recommend.CompareRank)
	t.Ranked = r.out
}

// dot is the dot product of item seq's category vector with the
// preference vector, its terms added in category-name order (the order
// of the item's vector; a category the user has no weight for adds a
// zero, which changes nothing).
func (set *candSet) dot(seq int32) float64 {
	var dot float64
	ids, ws := set.view.Vector(seq)
	for j, id := range ids {
		dot += set.fp.byID[id] * ws[j]
	}
	return dot
}

// accumulate scores every item in the candidate window term at a time:
// for one block of consecutive seqs after another, each preferred
// category's postings add that category's term to the accumulators of
// the items carrying it, and the items whose sum came out positive are
// scored. Categories are visited in name order, which is the order an
// item's own vector lists them in, so an accumulator receives exactly
// the additions dot makes, in the same order, and holds the same bits.
// Postings are read front to back once, accumulators and features
// block by block; nothing is visited twice and no item is looked up by
// category.
func (r *ranking) accumulate() {
	set, view := r.set, &r.set.view
	first := view.WindowStart(r.cut)
	cur := set.cursors[:0]
	for _, id := range set.fp.ids {
		if seqs, ws := view.Postings(id, first); len(seqs) > 0 {
			cur = append(cur, cursor{seqs: seqs, ws: ws, p: set.fp.byID[id]})
		}
	}
	block := int32(r.s.block)
	if cap(set.acc) < int(block) {
		set.acc = make([]float64, block)
	}
	for lo, n := first, int32(view.Len()); lo < n; lo += block {
		hi := min(lo+block, n)
		acc := set.acc[:hi-lo]
		for c := range cur {
			seqs, p := cur[c].seqs, cur[c].p
			ws := cur[c].ws[:len(seqs)]
			i := 0
			for ; i < len(seqs) && seqs[i] < hi; i++ {
				acc[seqs[i]-lo] += p * ws[i]
			}
			cur[c].seqs, cur[c].ws = seqs[i:], ws[i:]
		}
		for j, dot := range acc {
			if dot > 0 {
				r.score(lo+int32(j), dot)
			}
		}
		clear(acc)
	}
	// A pooled set must not keep the catalog's arrays reachable.
	clear(cur)
	set.cursors = cur[:0]
}

// score turns item seq's dot product into its scores and offers the
// item to the task's selection or top-k heap.
func (r *ranking) score(seq int32, dot float64) {
	f := r.set.view.At(seq)
	if !r.cut.Admits(f) {
		return
	}
	if dot <= 0 || f.SqrtNorm == 0 {
		return // cos ≤ 0: actively disliked or disjoint
	}
	it, t, scorer := f.Item, r.t, r.s.deps.Scorer
	if t.Exclude != nil && t.Exclude[it.ID] {
		return
	}
	cos := dot / r.set.fp.sqrtNa / f.SqrtNorm
	var ctxScore float64
	if r.rich {
		ctxScore = scorer.ContextScore(it, t.Ctx)
	} else {
		ctxScore = 0.5*scorer.GeoScore(it, &t.Ctx) + r.set.contextBase(scorer, it)
	}
	// cos bounds the content score from above; an item that cannot enter
	// on the bound is dropped before its freshness is computed.
	bound := scorer.Compound(cos, ctxScore)
	full := t.K > 0 && len(r.out) >= t.K
	if r.sel != nil {
		if r.sel.Rejects(it.Duration, bound) {
			return
		}
	} else if full && bound < r.out[0].Compound {
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
		r.sel.Offer(sc)
	case full:
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

// plannerAllocate is proactivity phase 2: fit the ranked list into ΔT
// (knapsack + deadline/distraction scheduling) through the shared core
// planner, and mark the plan cacheable when it qualifies.
type plannerAllocate struct {
	deps Deps
	po   *pools
}

func (s *plannerAllocate) Allocate(t *Task) {
	t.Plan = s.deps.Planner.Allocate(t.Ranked, core.Request{
		Prefs:       t.prefs,
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
		s.po.sels.Put(t.sel)
		t.sel = nil
	}
	t.Ranked = nil
}
