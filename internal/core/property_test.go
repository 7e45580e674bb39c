package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/distraction"
	"pphcr/internal/recommend"
	"pphcr/internal/roadnet"
)

// randomRequest builds a random planning instance from a seed.
func randomRequest(seed int64) (Request, distraction.Timeline) {
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"food", "culture", "music", "sport", "technology"}
	prefs := map[string]float64{}
	for _, c := range cats {
		prefs[c] = rng.Float64()*2 - 0.5 // some negative
	}
	n := 5 + rng.Intn(25)
	items := make([]*content.Item, n)
	ctx := drivingCtx(time.Duration(10+rng.Intn(25)) * time.Minute)
	for i := range items {
		it := item(time.Duration(i).String(), cats[rng.Intn(len(cats))],
			time.Duration(1+rng.Intn(12))*time.Minute)
		it.Published = now.Add(-time.Duration(rng.Intn(72)) * time.Hour)
		if rng.Float64() < 0.3 {
			frac := rng.Float64()
			it.Geo = &content.GeoRelevance{
				Center: ctx.Route.At(frac),
				Radius: 300 + rng.Float64()*1000,
			}
		}
		items[i] = it
	}
	var junctions []roadnet.RouteJunction
	routeLen := 12 * ctx.DeltaT.Seconds()
	for j := 0; j < rng.Intn(12); j++ {
		kind := roadnet.Intersection
		if rng.Float64() < 0.3 {
			kind = roadnet.Roundabout
		}
		junctions = append(junctions, roadnet.RouteJunction{
			Kind: kind, DistAlong: rng.Float64() * routeLen,
		})
	}
	tl := distraction.Build(junctions, routeLen, 12, rng.Float64()*0.6, distraction.DefaultParams())
	return Request{Prefs: prefs, Candidates: items, Ctx: ctx, Distraction: &tl}, tl
}

// TestPlanInvariants checks the safety properties of every plan on
// random instances:
//  1. the scheduled content never exceeds ΔT;
//  2. items never overlap and appear in start order;
//  3. geo-deadline items start at or before their deadline;
//  4. no item starts inside a high-distraction window;
//  5. the accounting fields match the item list.
func TestPlanInvariants(t *testing.T) {
	p := newTestPlanner()
	f := func(seed int64) bool {
		req, tl := randomRequest(seed)
		plan := p.Plan(req)
		cursor := time.Duration(-1)
		var used time.Duration
		var value float64
		for _, it := range plan.Items {
			if it.StartOffset <= cursor {
				t.Logf("seed %d: overlap/ordering at %v", seed, it.StartOffset)
				return false
			}
			end := it.StartOffset + it.Scored.Item.Duration
			if end > req.Ctx.DeltaT {
				t.Logf("seed %d: item ends %v after ΔT %v", seed, end, req.Ctx.DeltaT)
				return false
			}
			if it.HasDeadline && it.StartOffset > it.Deadline {
				t.Logf("seed %d: deadline miss", seed)
				return false
			}
			if !tl.CalmAt(it.StartOffset, p.DistractionThreshold) {
				t.Logf("seed %d: start in busy window at %v", seed, it.StartOffset)
				return false
			}
			cursor = it.StartOffset
			used += it.Scored.Item.Duration
			value += it.Scored.Compound * it.Scored.Item.Duration.Seconds()
		}
		if used != plan.Used {
			return false
		}
		diff := value - plan.TotalValue
		if diff < -1e-6 || diff > 1e-6 {
			return false
		}
		if p.MaxItems > 0 && len(plan.Items) > p.MaxItems {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKnapsackDominatesGreedy is the ablation behind the planner's
// knapsack: the DP selection must never be worse than the natural greedy
// heuristic (fill by descending compound score), and on some instances
// it must be strictly better.
func TestKnapsackDominatesGreedy(t *testing.T) {
	p := newTestPlanner()
	p.MaxItems = 0
	strictlyBetter := 0
	for seed := int64(0); seed < 60; seed++ {
		req, _ := randomRequest(seed)
		ranked := p.Scorer.Rank(req.Prefs, req.Candidates, req.Ctx, 0)

		dp := p.knapsack(ranked, req.Ctx.DeltaT)
		var dpValue float64
		for _, sc := range dp {
			dpValue += sc.Compound * sc.Item.Duration.Seconds()
		}
		// Greedy: take in rank order whatever still fits.
		var greedyValue float64
		var usedTime time.Duration
		for _, sc := range ranked {
			if usedTime+sc.Item.Duration <= req.Ctx.DeltaT {
				usedTime += sc.Item.Duration
				greedyValue += sc.Compound * sc.Item.Duration.Seconds()
			}
		}
		// The DP works on ceil-granularity weights, which can cost it up
		// to one slot per item vs. the continuous greedy accounting;
		// allow that quantization slack.
		slack := float64(len(dp)) * content.Slot.Seconds()
		if dpValue+slack < greedyValue {
			t.Fatalf("seed %d: knapsack %v < greedy %v", seed, dpValue, greedyValue)
		}
		if dpValue > greedyValue+1e-9 {
			strictlyBetter++
		}
	}
	if strictlyBetter == 0 {
		t.Fatal("knapsack never beat greedy on 60 random instances; the DP is pointless")
	}
	t.Logf("knapsack strictly better on %d/60 instances", strictlyBetter)
}

func BenchmarkKnapsackVsGreedy(b *testing.B) {
	p := newTestPlanner()
	p.MaxItems = 0
	req, _ := randomRequest(7)
	ranked := p.Scorer.Rank(req.Prefs, req.Candidates, req.Ctx, 0)
	b.Run("knapsack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.knapsack(ranked, req.Ctx.DeltaT)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var used time.Duration
			var value float64
			for _, sc := range ranked {
				if used+sc.Item.Duration <= req.Ctx.DeltaT {
					used += sc.Item.Duration
					value += sc.Compound * sc.Item.Duration.Seconds()
				}
			}
			_ = value
		}
	})
}

// TestScheduleWithImpossibleTimeline verifies planning degrades cleanly
// when the whole trip is too distracting for any transition.
func TestScheduleWithImpossibleTimeline(t *testing.T) {
	p := newTestPlanner()
	prefs := map[string]float64{"food": 1}
	cands := []*content.Item{item("a", "food", 3*time.Minute)}
	// Base distraction above threshold: never calm.
	tl := distraction.Build(nil, 12*20*60, 12, 1.0, distraction.Params{
		ApproachMeters: 120, ClearMeters: 60, BaseFloor: 0.9, ComplexityGain: 0.05,
	})
	plan := p.Plan(Request{Prefs: prefs, Candidates: cands, Ctx: drivingCtx(20 * time.Minute), Distraction: &tl})
	if len(plan.Items) != 0 {
		t.Fatal("items scheduled despite impossible timeline")
	}
	if len(plan.Dropped) == 0 || plan.Dropped[0].Reason != "no calm window before trip end" {
		t.Fatalf("dropped = %+v", plan.Dropped)
	}
}

// propertySeed, when set, runs TestSelectionMatchesFullAllocate and
// TestRejectsIsTheHeapPredicate on that one instance — the repro a
// failure prints.
var propertySeed = flag.Int64("selection.seed", -1, "run the selection property tests on this seed only")

// selectionInstance builds one random allocation problem: a planner, an
// already-scored candidate list in arbitrary order, and the request.
// The knobs the selection's exactness argument leans on are all drawn:
// few distinct slot weights, exact ties in value (compounds on a 1/64
// grid with whole-second durations, so every sum the DP forms is exact),
// copied (compound, duration) pairs, items that fit no plan, ΔT from
// nothing to 90 minutes, geo deadlines, distraction windows and the
// list-length cap.
func selectionInstance(seed int64) (*Planner, []recommend.Scored, Request) {
	rng := rand.New(rand.NewSource(seed))
	p := newTestPlanner()
	p.MaxItems = []int{0, 3, 8}[rng.Intn(3)]
	var deltaT time.Duration
	switch rng.Intn(6) {
	case 0:
		deltaT = time.Duration(rng.Intn(int(p.MinDeltaT))) // below the gate, down to 0
	default:
		deltaT = p.MinDeltaT + time.Duration(rng.Int63n(int64(82*time.Minute)))
	}
	ctx := drivingCtx(deltaT)

	grid := rng.Intn(2) == 0
	var palette []time.Duration
	for i := 0; i < 1+rng.Intn(6); i++ {
		palette = append(palette, time.Duration(20+rng.Intn(900))*time.Second)
	}
	n := 20 + rng.Intn(380)
	ids := rng.Perm(n)
	scored := make([]recommend.Scored, n)
	for i := range scored {
		var dur time.Duration
		switch rng.Intn(4) {
		case 0:
			dur = time.Duration(1+rng.Intn(100*60)) * time.Second // some longer than any ΔT
		default:
			dur = palette[rng.Intn(len(palette))]
		}
		compound := 0.05 + 0.95*rng.Float64()
		if grid {
			compound = float64(1+rng.Intn(64)) / 64
		}
		if i > 0 && rng.Intn(3) == 0 {
			twin := scored[rng.Intn(i)]
			dur, compound = twin.Item.Duration, twin.Compound
		}
		it := item(fmt.Sprintf("i%04d", ids[i]), "food", dur)
		if rng.Intn(10) == 0 {
			it.Geo = &content.GeoRelevance{Center: ctx.Route.At(rng.Float64()), Radius: 300 + rng.Float64()*1000}
		}
		scored[i] = recommend.Scored{Item: it, Content: compound, Context: compound, Compound: compound}
	}
	req := Request{Ctx: ctx}
	if rng.Intn(3) == 0 {
		routeLen := 12 * deltaT.Seconds()
		var junctions []roadnet.RouteJunction
		for j := 0; j < rng.Intn(12); j++ {
			junctions = append(junctions, roadnet.RouteJunction{Kind: roadnet.Intersection, DistAlong: rng.Float64() * routeLen})
		}
		tl := distraction.Build(junctions, routeLen, 12, rng.Float64()*0.6, distraction.DefaultParams())
		req.Distraction = &tl
	}
	return p, scored, req
}

// TestSelectionMatchesFullAllocate: the plan allocated from a
// Selection's survivors is, field for field, the plan allocated from the
// whole ranked list — whatever order the items were offered in, and with
// Rejects consulted on upper bounds of any slack.
func TestSelectionMatchesFullAllocate(t *testing.T) {
	first, last := int64(0), int64(2000)
	if *propertySeed >= 0 {
		first, last = *propertySeed, *propertySeed+1
	}
	var sel Selection
	for seed := first; seed < last; seed++ {
		p, scored, req := selectionInstance(seed)

		ranked := slices.Clone(scored)
		slices.SortFunc(ranked, recommend.CompareRank)
		want := p.Allocate(ranked, req)

		rng := rand.New(rand.NewSource(^seed))
		sel.Reset(req.Ctx.DeltaT)
		for _, sc := range scored {
			bound := sc.Compound
			if rng.Intn(2) == 0 {
				bound *= 1 + rng.Float64()
			}
			if !sel.Rejects(sc.Item.Duration, bound) {
				sel.Offer(sc)
			}
		}
		survivors := sel.Ranked()
		got := p.Allocate(survivors, req)

		repro := fmt.Sprintf("repro: go test ./internal/core -run TestSelectionMatchesFullAllocate -selection.seed=%d", seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: plan from %d survivors differs from plan from all %d items\n got:  %s\n want: %s\n%s",
				seed, len(survivors), len(ranked), planString(got), planString(want), repro)
		}
		capacity := int(req.Ctx.DeltaT / content.Slot)
		quota := 0
		for w := 1; w <= capacity; w++ {
			quota += capacity / w
		}
		if len(survivors) > quota {
			t.Fatalf("seed %d: %d survivors exceed the Σ⌊C/w⌋ = %d bound at C = %d\n%s", seed, len(survivors), quota, capacity, repro)
		}
	}
}

// heapRejects is Rejects read off the class heaps: a class that has
// reached its ⌊C/w⌋ items and whose root is worth strictly more than the
// bound.
func heapRejects(s *Selection, d time.Duration, compoundBound float64) bool {
	w := s.class(d)
	if w == 0 {
		return true
	}
	if w >= len(s.classes) {
		return false
	}
	h := s.classes[w]
	return len(h) == s.capacity/w && compoundBound*d.Seconds() < h[0].value
}

// TestRejectsIsTheHeapPredicate: the per-class thresholds Offer keeps
// answer what the heaps answer. After every Offer of a
// TestSelectionMatchesFullAllocate instance, Rejects agrees with
// heapRejects on sampled durations — of offered items, and arbitrary
// ones down to classes no plan holds — against bounds on and one ulp
// either side of each class's threshold, ordinary, zero, infinite and
// NaN; and an item Rejects refused, offered anyway, leaves Ranked as it
// was.
func TestRejectsIsTheHeapPredicate(t *testing.T) {
	first, last := int64(0), int64(2000)
	if *propertySeed >= 0 {
		first, last = *propertySeed, *propertySeed+1
	}
	var sel Selection
	for seed := first; seed < last; seed++ {
		_, scored, req := selectionInstance(seed)
		rng := rand.New(rand.NewSource(^seed))
		sel.Reset(req.Ctx.DeltaT)
		repro := fmt.Sprintf("repro: go test ./internal/core -run TestRejectsIsTheHeapPredicate -selection.seed=%d", seed)
		for i, sc := range scored {
			sel.Offer(sc)
			for probe := 0; probe < 4; probe++ {
				d := scored[rng.Intn(len(scored))].Item.Duration
				if rng.Intn(4) == 0 {
					d = time.Duration(1+rng.Int63n(int64(100*time.Minute))) * time.Nanosecond
				}
				var bound float64
				switch w := sel.class(d); rng.Intn(6) {
				case 0, 1:
					bound = rng.Float64() * 1.2
				case 2:
					bound = []float64{0, math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(4)]
				default:
					if w == 0 || w >= len(sel.classes) || len(sel.classes[w]) == 0 {
						bound = scored[rng.Intn(len(scored))].Compound
						break
					}
					bound = sel.classes[w][0].value / d.Seconds()
					bound = math.Nextafter(bound, bound+float64(rng.Intn(3)-1))
				}
				got, want := sel.Rejects(d, bound), heapRejects(&sel, d, bound)
				if got != want {
					t.Fatalf("seed %d, after offer %d: Rejects(%v, %v) = %v, the heaps say %v\n%s", seed, i, d, bound, got, want, repro)
				}
				if !got || rng.Intn(16) != 0 {
					continue
				}
				before := slices.Clone(sel.Ranked())
				refused := item(fmt.Sprintf("refused-%d-%d", i, probe), "food", d)
				sel.Offer(recommend.Scored{Item: refused, Content: bound, Context: bound, Compound: bound})
				if after := sel.Ranked(); !slices.Equal(after, before) {
					t.Fatalf("seed %d, after offer %d: a refused item of %v at %v changed the selection\n got:  %d items\n want: %d items\n%s", seed, i, d, bound, len(after), len(before), repro)
				}
			}
		}
	}
}

func planString(p Plan) string {
	var sb strings.Builder
	for _, it := range p.Items {
		fmt.Fprintf(&sb, "%s@%v ", it.Scored.Item.ID, it.StartOffset)
	}
	fmt.Fprintf(&sb, "| value %v used %v dropped %d", p.TotalValue, p.Used, len(p.Dropped))
	return sb.String()
}

// TestAllocateCapBreaksTiesInRankingOrder pins the list-length cap's
// order: among equal compounds the lower ID stays, as everywhere else
// (recommend.CompareRank) — the cap used to sort by compound alone, so
// which of two tied items straddling the cut survived depended on the
// order the knapsack's traceback happened to emit them in.
func TestAllocateCapBreaksTiesInRankingOrder(t *testing.T) {
	p := newTestPlanner()
	p.MaxItems = 4
	var ranked []recommend.Scored
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		ranked = append(ranked, recommend.Scored{Item: item(id, "food", time.Minute), Compound: 0.5})
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {3, 0, 5, 1, 4, 2}} {
		in := make([]recommend.Scored, len(order))
		for i, j := range order {
			in[i] = ranked[j]
		}
		plan := p.Allocate(in, Request{Ctx: drivingCtx(20 * time.Minute)})
		var kept, dropped []string
		for _, it := range plan.Items {
			kept = append(kept, it.Scored.Item.ID)
		}
		for _, d := range plan.Dropped {
			dropped = append(dropped, d.Scored.Item.ID)
		}
		if !slices.Equal(kept, []string{"a", "b", "c", "d"}) || !slices.Equal(dropped, []string{"e", "f"}) {
			t.Fatalf("input order %v: kept %v dropped %v, want [a b c d] and [e f]", order, kept, dropped)
		}
	}
}
