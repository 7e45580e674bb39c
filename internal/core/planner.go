// Package core implements the paper's primary contribution: the
// proactive recommender system (PRS) of the Proactive Personalized
// Hybrid Content Radio. Following the two-phase proactivity model the
// paper adopts from Woerndl et al. [13], the planner first decides WHEN
// a recommendation is appropriate (trip started, enough predicted time
// ΔT, calm driving situation), then WHAT to deliver and at which instant:
// it fills the predicted time window with the clip sequence maximizing
// compound relevance, subject to
//
//   - the ΔT capacity (clips must fit the predicted remaining trip),
//   - geographic deadlines (a clip tied to location L_B must start before
//     the listener drives past L_B — Fig 2),
//   - distraction constraints (no content transition inside a projected
//     high-distraction window at intersections/roundabouts — §1.2).
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/distraction"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
)

// Planner is the proactive recommendation planner. Create with
// NewPlanner; fields may be tuned before first use.
type Planner struct {
	Scorer *recommend.Scorer
	// MinDeltaT is the smallest predicted window worth personalizing
	// (phase 1). Shorter trips keep plain linear radio.
	MinDeltaT time.Duration
	// MinConfidence is the minimum destination-prediction confidence to
	// act proactively.
	MinConfidence float64
	// MaxItems caps the recommendation list length.
	MaxItems int
	// DistractionThreshold is the level at or above which content
	// transitions are forbidden.
	DistractionThreshold distraction.Level
	// SlotGranularity is the knapsack time quantum.
	SlotGranularity time.Duration
}

// NewPlanner returns a planner with the experiment defaults.
func NewPlanner(scorer *recommend.Scorer) *Planner {
	return &Planner{
		Scorer:               scorer,
		MinDeltaT:            8 * time.Minute,
		MinConfidence:        0.5,
		MaxItems:             8,
		DistractionThreshold: 0.65,
		SlotGranularity:      15 * time.Second,
	}
}

// Situation is the phase-1 input: the live context plus the mobility
// prediction quality.
type Situation struct {
	Ctx recommend.Context
	// TripConfidence is the destination prediction confidence.
	TripConfidence float64
	// Distraction is the projected timeline for the remaining trip.
	Distraction distraction.Timeline
}

// ShouldRecommend implements proactivity phase 1: whether this is a
// moment to push a recommendation list at all. The returned reason
// explains a negative decision (for the dashboard).
func (p *Planner) ShouldRecommend(sit Situation) (bool, string) {
	if !sit.Ctx.Driving {
		return false, "listener is not driving; stay reactive"
	}
	if sit.Ctx.DeltaT < p.MinDeltaT {
		return false, fmt.Sprintf("predicted ΔT %v below minimum %v", sit.Ctx.DeltaT, p.MinDeltaT)
	}
	if sit.TripConfidence < p.MinConfidence {
		return false, fmt.Sprintf("trip confidence %.2f below %.2f", sit.TripConfidence, p.MinConfidence)
	}
	if !sit.Distraction.CalmAt(0, p.DistractionThreshold) {
		return false, "high projected distraction right now; defer"
	}
	return true, ""
}

// Request is the phase-2 input.
type Request struct {
	// Prefs is the listener's category preference vector (package
	// feedback).
	Prefs map[string]float64
	// Candidates is the repository slice to select from.
	Candidates []*content.Item
	// Ctx is the live context; Ctx.DeltaT sizes the plan.
	Ctx recommend.Context
	// Distraction, when non-nil, gates content transitions.
	Distraction *distraction.Timeline
}

// PlannedItem is one scheduled clip.
type PlannedItem struct {
	Scored recommend.Scored
	// StartOffset is when playback starts, relative to now.
	StartOffset time.Duration
	// Deadline is the geo deadline (offset from now) by which the item
	// must start; HasDeadline distinguishes "no constraint".
	Deadline    time.Duration
	HasDeadline bool
}

// Drop records an item selected by the optimizer but discarded during
// scheduling, with the reason (dashboard transparency).
type Drop struct {
	Scored recommend.Scored
	Reason string
}

// Plan is the proactive recommendation plan.
type Plan struct {
	Items []PlannedItem
	// TotalValue is Σ compound×seconds over scheduled items — the
	// relevance-weighted listening time the objective maximizes.
	TotalValue float64
	// Used is the scheduled content time.
	Used time.Duration
	// DeltaT echoes the planning window.
	DeltaT  time.Duration
	Dropped []Drop
}

// Plan implements proactivity phase 2: rank candidates, select the
// value-maximizing subset that fits ΔT (0/1 knapsack), then schedule the
// selection under geographic deadlines (earliest-deadline-first) and
// distraction windows.
func (p *Planner) Plan(req Request) Plan {
	plan := Plan{DeltaT: req.Ctx.DeltaT}
	if req.Ctx.DeltaT <= 0 || len(req.Candidates) == 0 {
		return plan
	}
	return p.Allocate(p.Scorer.Rank(req.Prefs, req.Candidates, req.Ctx, 0), req)
}

// Allocate is phase 2 after ranking: select the value-maximizing subset
// of the already-ranked items that fits ΔT, then schedule it under
// geographic deadlines and distraction windows. The pipeline's Rank
// stage produces `ranked` (so ranking can be shared and top-k'd); Plan
// composes Scorer.Rank with Allocate for direct callers.
func (p *Planner) Allocate(ranked []recommend.Scored, req Request) Plan {
	plan := Plan{DeltaT: req.Ctx.DeltaT}
	if req.Ctx.DeltaT <= 0 || len(ranked) == 0 {
		return plan
	}
	selected := p.knapsack(ranked, req.Ctx.DeltaT)
	// Cap the list length, keeping the items that rank highest.
	if p.MaxItems > 0 && len(selected) > p.MaxItems {
		slices.SortFunc(selected, recommend.CompareRank)
		for _, sc := range selected[p.MaxItems:] {
			plan.Dropped = append(plan.Dropped, Drop{Scored: sc, Reason: "list length cap"})
		}
		selected = selected[:p.MaxItems]
	}
	plan.Items, plan.Dropped = p.schedule(selected, req, plan.Dropped)
	for _, it := range plan.Items {
		plan.TotalValue += it.Scored.Compound * it.Scored.Item.Duration.Seconds()
		plan.Used += it.Scored.Item.Duration
	}
	return plan
}

// knapCand is one knapsack entry; knapScratch recycles the DP buffers
// between Plan/Allocate calls — the DP table dominated the allocator's
// per-plan garbage.
type knapCand struct {
	sc     recommend.Scored
	weight int
	value  float64
}

type knapScratch struct {
	dp    []float64
	take  []bool
	cands []knapCand
}

var knapPool = sync.Pool{New: func() any { return new(knapScratch) }}

// slots returns the knapsack's time quantum and ΔT's capacity in quanta.
func (p *Planner) slots(deltaT time.Duration) (gran time.Duration, capacity int) {
	gran = p.SlotGranularity
	if gran <= 0 {
		gran = 15 * time.Second
	}
	return gran, int(deltaT / gran)
}

// slotWeight is the number of quanta an item of duration d occupies.
func slotWeight(d, gran time.Duration) int {
	return int((d + gran - 1) / gran) // ceil
}

// slotValue is what scheduling an item adds to the knapsack objective.
func slotValue(sc recommend.Scored) float64 {
	return sc.Compound * sc.Item.Duration.Seconds()
}

// knapsack selects the subset of ranked items maximizing
// Σ compound×duration within the ΔT capacity (classic 0/1 DP over
// SlotGranularity quanta).
func (p *Planner) knapsack(ranked []recommend.Scored, deltaT time.Duration) []recommend.Scored {
	gran, capacity := p.slots(deltaT)
	if capacity <= 0 {
		return nil
	}
	ks := knapPool.Get().(*knapScratch)
	defer knapPool.Put(ks)
	cands := ks.cands[:0]
	for _, sc := range ranked {
		w := slotWeight(sc.Item.Duration, gran)
		if w == 0 || w > capacity {
			continue
		}
		cands = append(cands, knapCand{sc: sc, weight: w, value: slotValue(sc)})
	}
	ks.cands = cands[:0]
	if len(cands) == 0 {
		return nil
	}
	// dp[c] = best value at capacity c; take[i*(capacity+1)+c] = item i
	// used at c (one flat recycled buffer instead of one slice per item).
	stride := capacity + 1
	if cap(ks.dp) < stride {
		ks.dp = make([]float64, stride)
	}
	dp := ks.dp[:stride]
	clear(dp)
	if cap(ks.take) < len(cands)*stride {
		ks.take = make([]bool, len(cands)*stride)
	}
	take := ks.take[:len(cands)*stride]
	clear(take)
	for i, c := range cands {
		row := take[i*stride : (i+1)*stride]
		for cap := capacity; cap >= c.weight; cap-- {
			if v := dp[cap-c.weight] + c.value; v > dp[cap] {
				dp[cap] = v
				row[cap] = true
			}
		}
	}
	// Trace back.
	var out []recommend.Scored
	cap := capacity
	for i := len(cands) - 1; i >= 0; i-- {
		if take[i*stride+cap] {
			out = append(out, cands[i].sc)
			cap -= cands[i].weight
		}
	}
	return out
}

// routeCum returns the cumulative arc length at every route vertex —
// computed once per schedule call instead of re-walking the route for
// each scheduled item (cum[last] equals Route.Length() exactly: same
// additions in the same order).
func routeCum(route geo.Polyline) []float64 {
	cum := make([]float64, len(route))
	for i := 1; i < len(route); i++ {
		cum[i] = cum[i-1] + geo.Distance(route[i-1], route[i])
	}
	return cum
}

// geoDeadline returns the offset at which the listener is predicted to
// pass closest to the item's location, assuming uniform progress along
// the remaining route over ΔT. cum is the route's cumulative arc length
// (routeCum); the route vertices are RDP-simplified, so vertices are
// where geometry changes and each is sampled for the minimum distance.
func geoDeadline(it *content.Item, ctx recommend.Context, cum []float64) (time.Duration, bool) {
	if it.Geo == nil || len(ctx.Route) < 2 || ctx.DeltaT <= 0 {
		return 0, false
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0, false
	}
	bestFrac, bestDist := 0.0, math.Inf(1)
	for i, pt := range ctx.Route {
		if d := geo.Distance(pt, it.Geo.Center); d < bestDist {
			bestDist = d
			bestFrac = cum[i] / total
		}
	}
	return time.Duration(bestFrac * float64(ctx.DeltaT)), true
}

// schedule orders the selected items (earliest geographic deadline first,
// then by descending relevance), assigns start offsets back-to-back, and
// resolves conflicts: a start inside a high-distraction window is pushed
// to the next calm instant (live radio continues meanwhile), and items
// that would miss their deadline or overflow ΔT are dropped.
func (p *Planner) schedule(selected []recommend.Scored, req Request, dropped []Drop) ([]PlannedItem, []Drop) {
	type slot struct {
		sc          recommend.Scored
		deadline    time.Duration
		hasDeadline bool
	}
	slots := make([]slot, len(selected))
	// Route arc lengths are only needed when a geo-scoped item made the
	// selection — most plans are geo-free, so compute them lazily.
	var cum []float64
	for i, sc := range selected {
		if cum == nil && sc.Item.Geo != nil && len(req.Ctx.Route) >= 2 {
			cum = routeCum(req.Ctx.Route)
		}
		d, ok := geoDeadline(sc.Item, req.Ctx, cum)
		slots[i] = slot{sc: sc, deadline: d, hasDeadline: ok}
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.hasDeadline != b.hasDeadline {
			return a.hasDeadline // deadline items first
		}
		if a.hasDeadline && a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		if a.sc.Compound != b.sc.Compound {
			return a.sc.Compound > b.sc.Compound
		}
		return a.sc.Item.ID < b.sc.Item.ID
	})

	var items []PlannedItem
	cursor := time.Duration(0)
	for _, s := range slots {
		start := cursor
		if req.Distraction != nil && !req.Distraction.CalmAt(start, p.DistractionThreshold) {
			calm, ok := req.Distraction.NextCalm(start, p.DistractionThreshold)
			if !ok {
				dropped = append(dropped, Drop{Scored: s.sc, Reason: "no calm window before trip end"})
				continue
			}
			start = calm
		}
		if s.hasDeadline && start > s.deadline {
			dropped = append(dropped, Drop{Scored: s.sc, Reason: "would start after its location deadline"})
			continue
		}
		if start+s.sc.Item.Duration > req.Ctx.DeltaT {
			dropped = append(dropped, Drop{Scored: s.sc, Reason: "does not fit remaining ΔT"})
			continue
		}
		items = append(items, PlannedItem{
			Scored:      s.sc,
			StartOffset: start,
			Deadline:    s.deadline,
			HasDeadline: s.hasDeadline,
		})
		cursor = start + s.sc.Item.Duration
	}
	return items, dropped
}
