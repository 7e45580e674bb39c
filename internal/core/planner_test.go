package core

import (
	"math"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/distraction"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
	"pphcr/internal/roadnet"
)

var (
	torino = geo.Point{Lat: 45.0703, Lon: 7.6869}
	now    = time.Date(2016, 11, 15, 8, 30, 0, 0, time.UTC)
)

func item(id, cat string, dur time.Duration) *content.Item {
	return &content.Item{
		ID:         id,
		Kind:       content.KindClip,
		Duration:   dur,
		Published:  now.Add(-3 * time.Hour),
		Categories: map[string]float64{cat: 1},
	}
}

func drivingCtx(deltaT time.Duration) recommend.Context {
	route := geo.Polyline{torino, geo.Destination(torino, 70, 5000), geo.Destination(torino, 70, 10000)}
	return recommend.Context{
		Now:      now,
		Position: torino,
		Route:    route,
		SpeedMS:  12,
		DeltaT:   deltaT,
		Driving:  true,
	}
}

func newTestPlanner() *Planner {
	return NewPlanner(recommend.NewScorer(0.4))
}

func TestShouldRecommendPhase1(t *testing.T) {
	p := newTestPlanner()
	calm := distraction.Build(nil, 10000, 12, 0.2, distraction.DefaultParams())

	ok, reason := p.ShouldRecommend(Situation{
		Ctx: drivingCtx(25 * time.Minute), TripConfidence: 0.9, Distraction: calm,
	})
	if !ok {
		t.Fatalf("good situation rejected: %s", reason)
	}

	ctx := drivingCtx(25 * time.Minute)
	ctx.Driving = false
	if ok, _ := p.ShouldRecommend(Situation{Ctx: ctx, TripConfidence: 0.9, Distraction: calm}); ok {
		t.Fatal("not driving accepted")
	}
	if ok, _ := p.ShouldRecommend(Situation{Ctx: drivingCtx(3 * time.Minute), TripConfidence: 0.9, Distraction: calm}); ok {
		t.Fatal("tiny ΔT accepted")
	}
	if ok, _ := p.ShouldRecommend(Situation{Ctx: drivingCtx(25 * time.Minute), TripConfidence: 0.2, Distraction: calm}); ok {
		t.Fatal("low confidence accepted")
	}
	busy := distraction.Build([]roadnet.RouteJunction{
		{Kind: roadnet.Roundabout, DistAlong: 30},
	}, 10000, 12, 0.2, distraction.DefaultParams())
	if ok, reason := p.ShouldRecommend(Situation{Ctx: drivingCtx(25 * time.Minute), TripConfidence: 0.9, Distraction: busy}); ok {
		t.Fatalf("busy now accepted (%s)", reason)
	}
}

func TestPlanFillsDeltaT(t *testing.T) {
	p := newTestPlanner()
	prefs := map[string]float64{"food": 1, "culture": 0.6}
	var cands []*content.Item
	for i := 0; i < 12; i++ {
		cat := "food"
		if i%2 == 1 {
			cat = "culture"
		}
		cands = append(cands, item(string(rune('a'+i)), cat, time.Duration(3+i%5)*time.Minute))
	}
	plan := p.Plan(Request{Prefs: prefs, Candidates: cands, Ctx: drivingCtx(25 * time.Minute)})
	if len(plan.Items) == 0 {
		t.Fatal("empty plan")
	}
	if plan.Used > plan.DeltaT {
		t.Fatalf("plan overflows ΔT: %v > %v", plan.Used, plan.DeltaT)
	}
	// The window should be well used (>70%) with this much supply.
	if plan.Used < plan.DeltaT*7/10 {
		t.Fatalf("plan underfills ΔT: %v of %v", plan.Used, plan.DeltaT)
	}
	// Offsets are sequential and non-overlapping.
	cursor := time.Duration(0)
	for _, it := range plan.Items {
		if it.StartOffset < cursor {
			t.Fatalf("overlapping items at %v", it.StartOffset)
		}
		cursor = it.StartOffset + it.Scored.Item.Duration
	}
	if cursor > plan.DeltaT {
		t.Fatal("last item ends after ΔT")
	}
}

func TestPlanEmptyInputs(t *testing.T) {
	p := newTestPlanner()
	if plan := p.Plan(Request{Ctx: drivingCtx(0)}); len(plan.Items) != 0 {
		t.Fatal("plan with ΔT=0 should be empty")
	}
	if plan := p.Plan(Request{Ctx: drivingCtx(10 * time.Minute)}); len(plan.Items) != 0 {
		t.Fatal("plan with no candidates should be empty")
	}
	// All candidates disliked → nothing survives the content filter.
	plan := p.Plan(Request{
		Prefs:      map[string]float64{"sport": -1},
		Candidates: []*content.Item{item("a", "sport", time.Minute)},
		Ctx:        drivingCtx(10 * time.Minute),
	})
	if len(plan.Items) != 0 {
		t.Fatal("disliked candidates selected")
	}
}

// TestKnapsackOptimalVsBruteForce checks the DP against exhaustive search
// on small instances: the knapsack must achieve the maximum Σ score×sec.
func TestKnapsackOptimalVsBruteForce(t *testing.T) {
	p := newTestPlanner()
	p.MaxItems = 0 // no cap for the optimality check
	prefs := map[string]float64{"food": 1}
	durations := []time.Duration{
		4 * time.Minute, 7 * time.Minute, 5 * time.Minute,
		9 * time.Minute, 3 * time.Minute, 6 * time.Minute,
	}
	var cands []*content.Item
	for i, d := range durations {
		it := item(string(rune('a'+i)), "food", d)
		// Stagger publish times so scores differ.
		it.Published = now.Add(-time.Duration(i*7) * time.Hour)
		cands = append(cands, it)
	}
	ctx := drivingCtx(20 * time.Minute)
	ranked := p.Scorer.Rank(prefs, cands, ctx, 0)

	// Brute force over all subsets (respecting the DP's ceil-granularity
	// accounting, which is what the planner actually enforces).
	gran := content.Slot
	capacity := int(ctx.DeltaT / gran)
	best := 0.0
	for mask := 0; mask < 1<<len(ranked); mask++ {
		weight, value := 0, 0.0
		for i, sc := range ranked {
			if mask&(1<<i) == 0 {
				continue
			}
			weight += int((sc.Item.Duration + gran - 1) / gran)
			value += sc.Compound * sc.Item.Duration.Seconds()
		}
		if weight <= capacity && value > best {
			best = value
		}
	}

	selected := p.knapsack(ranked, ctx.DeltaT)
	var got float64
	var used time.Duration
	for _, sc := range selected {
		got += sc.Compound * sc.Item.Duration.Seconds()
		used += sc.Item.Duration
	}
	if used > ctx.DeltaT {
		t.Fatalf("knapsack overflows: %v > %v", used, ctx.DeltaT)
	}
	if math.Abs(got-best) > 1e-6 {
		t.Fatalf("knapsack value %v, brute force %v", got, best)
	}
}

func TestPlanGeoDeadlineOrdering(t *testing.T) {
	// Fig 2: item B is relevant to location L_B on the route; it must be
	// scheduled so it starts before the listener passes L_B.
	p := newTestPlanner()
	prefs := map[string]float64{"food": 1, "regional": 1}
	ctx := drivingCtx(24 * time.Minute)

	nearStart := item("geo-early", "regional", 5*time.Minute)
	nearStart.Geo = &content.GeoRelevance{Center: geo.Destination(torino, 70, 2000), Radius: 500}
	nearEnd := item("geo-late", "regional", 5*time.Minute)
	nearEnd.Geo = &content.GeoRelevance{Center: geo.Destination(torino, 70, 9000), Radius: 500}
	plain1 := item("plain1", "food", 6*time.Minute)
	plain2 := item("plain2", "food", 6*time.Minute)

	plan := p.Plan(Request{
		Prefs:      prefs,
		Candidates: []*content.Item{plain1, nearEnd, plain2, nearStart},
		Ctx:        ctx,
	})
	idx := map[string]int{}
	for i, it := range plan.Items {
		idx[it.Scored.Item.ID] = i
	}
	ei, eok := idx["geo-early"]
	li, lok := idx["geo-late"]
	if !eok || !lok {
		t.Fatalf("geo items missing from plan: %v", idx)
	}
	if ei >= li {
		t.Fatal("earlier-location item must be scheduled first")
	}
	// Every geo item starts before its deadline.
	for _, it := range plan.Items {
		if it.HasDeadline && it.StartOffset > it.Deadline {
			t.Fatalf("item %s starts %v after deadline %v",
				it.Scored.Item.ID, it.StartOffset, it.Deadline)
		}
	}
}

func TestPlanDropsInfeasibleGeoItem(t *testing.T) {
	p := newTestPlanner()
	prefs := map[string]float64{"regional": 1, "food": 1}
	ctx := drivingCtx(24 * time.Minute)
	// Location essentially at the start: deadline ≈ 0, so after any
	// preceding item it cannot start in time... schedule it first (EDF),
	// but two zero-deadline items conflict: the second must be dropped.
	g1 := item("g1", "regional", 5*time.Minute)
	g1.Geo = &content.GeoRelevance{Center: torino, Radius: 100}
	g2 := item("g2", "regional", 5*time.Minute)
	g2.Geo = &content.GeoRelevance{Center: torino, Radius: 100}
	plan := p.Plan(Request{Prefs: prefs, Candidates: []*content.Item{g1, g2}, Ctx: ctx})
	if len(plan.Items) != 1 {
		t.Fatalf("items = %d, want 1", len(plan.Items))
	}
	if len(plan.Dropped) != 1 || plan.Dropped[0].Reason != "would start after its location deadline" {
		t.Fatalf("dropped = %+v", plan.Dropped)
	}
}

func TestPlanAvoidsDistractionWindows(t *testing.T) {
	p := newTestPlanner()
	prefs := map[string]float64{"food": 1}
	ctx := drivingCtx(20 * time.Minute)
	// First item ends exactly inside a roundabout window; the second must
	// be pushed past the window end.
	first := item("first", "food", 5*time.Minute)
	second := item("second", "food", 5*time.Minute)
	// Roundabout window covering [4m30s, 6m] of the trip (speed 12 m/s).
	tl := distraction.Build([]roadnet.RouteJunction{
		{Kind: roadnet.Roundabout, DistAlong: 12 * 330}, // ~5m30s at 12 m/s
	}, 12*20*60, 12, 0.1, distraction.DefaultParams())
	plan := p.Plan(Request{
		Prefs:       prefs,
		Candidates:  []*content.Item{first, second},
		Ctx:         ctx,
		Distraction: &tl,
	})
	if len(plan.Items) != 2 {
		t.Fatalf("items = %d, want 2 (dropped: %+v)", len(plan.Items), plan.Dropped)
	}
	for _, it := range plan.Items {
		if !tl.CalmAt(it.StartOffset, p.DistractionThreshold) {
			t.Fatalf("item %s starts at %v inside a distraction window",
				it.Scored.Item.ID, it.StartOffset)
		}
	}
	// The second item must start strictly after the first ends (pushed).
	if plan.Items[1].StartOffset < plan.Items[0].StartOffset+plan.Items[0].Scored.Item.Duration {
		t.Fatal("second item overlaps first")
	}
}

func TestPlanRespectsMaxItems(t *testing.T) {
	p := newTestPlanner()
	p.MaxItems = 2
	prefs := map[string]float64{"food": 1}
	var cands []*content.Item
	for i := 0; i < 10; i++ {
		cands = append(cands, item(string(rune('a'+i)), "food", 2*time.Minute))
	}
	plan := p.Plan(Request{Prefs: prefs, Candidates: cands, Ctx: drivingCtx(30 * time.Minute)})
	if len(plan.Items) > 2 {
		t.Fatalf("items = %d, want ≤ 2", len(plan.Items))
	}
	if len(plan.Dropped) == 0 {
		t.Fatal("cap drops not recorded")
	}
}

func TestPlanTotalValueConsistent(t *testing.T) {
	p := newTestPlanner()
	prefs := map[string]float64{"food": 1}
	cands := []*content.Item{
		item("a", "food", 5*time.Minute),
		item("b", "food", 7*time.Minute),
	}
	plan := p.Plan(Request{Prefs: prefs, Candidates: cands, Ctx: drivingCtx(15 * time.Minute)})
	var want float64
	var used time.Duration
	for _, it := range plan.Items {
		want += it.Scored.Compound * it.Scored.Item.Duration.Seconds()
		used += it.Scored.Item.Duration
	}
	if math.Abs(plan.TotalValue-want) > 1e-9 || plan.Used != used {
		t.Fatalf("accounting mismatch: %v/%v vs %v/%v", plan.TotalValue, plan.Used, want, used)
	}
}

func BenchmarkPlan200Candidates(b *testing.B) {
	p := newTestPlanner()
	prefs := map[string]float64{"food": 1, "culture": 0.7, "music": 0.4}
	cats := []string{"food", "culture", "music", "sport"}
	var cands []*content.Item
	for i := 0; i < 200; i++ {
		it := item(time.Duration(i).String(), cats[i%4], time.Duration(2+i%8)*time.Minute)
		cands = append(cands, it)
	}
	ctx := drivingCtx(25 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Plan(Request{Prefs: prefs, Candidates: cands, Ctx: ctx})
	}
}
