package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
	"pphcr/internal/tracking"
)

// oracleSeed, when set, runs TestPlanMatchesOracle on that one instance
// — the repro a failure prints.
var oracleSeed = flag.Int64("oracle.seed", -1, "run the plan-vs-oracle property test on this seed only")

const testWindow = 72 * time.Hour

// presetPredict stands in for the mobility Predict stage: the test sets
// the task's context itself, as ModeRank callers do.
type presetPredict struct{}

func (presetPredict) Predict(t *Task) {
	t.Recognized = true
	t.Source = SourceCold
	t.Prediction.Confidence = 1
	t.Prediction.DeltaT = t.Ctx.DeltaT
}

// planPipeline builds a pipeline over repo whose plan-mode tasks take
// their context from the task. prefs maps users to preference vectors.
func planPipeline(repo *content.Repository, prefs map[string]map[string]float64) (*Pipeline, Deps) {
	scorer := recommend.NewScorer(0.4)
	deps := Deps{
		Mobility: func(string) (*tracking.CompactModel, bool) { return nil, false },
		Preferences: func(dst feedback.Vector, user string, now time.Time) feedback.Vector {
			return vectorOf(dst, prefs[user])
		},
		Catalog:         repo.ReadView,
		CandidateWindow: testWindow,
		Planner:         core.NewPlanner(scorer),
		Scorer:          scorer,
	}
	p := New(deps)
	p.Predict = presetPredict{}
	return p, deps
}

var testRoute = geo.Polyline{
	{Lat: 45.0703, Lon: 7.6869},
	geo.Destination(geo.Point{Lat: 45.0703, Lon: 7.6869}, 70, 5000),
	geo.Destination(geo.Point{Lat: 45.0703, Lon: 7.6869}, 70, 10000),
}

// oracleInstance is one random planning problem. Category and
// preference weights sit on a 1/8 grid, so the reference ranker's
// map-order sums are exact and its scores do not depend on iteration
// order.
type oracleInstance struct {
	items   []*content.Item // in the order they are added
	prefs   map[string]float64
	ctx     recommend.Context
	exclude map[string]bool
	lambda  float64 // the scorer's context weight
}

func newOracleInstance(seed int64) oracleInstance {
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"news", "sport", "culture", "science", "food", "zydeco", "alpine", "music"}
	var palette []time.Duration
	for i := 0; i < 1+rng.Intn(5); i++ {
		palette = append(palette, time.Duration(20+rng.Intn(900))*time.Second)
	}
	var deltaT time.Duration
	if rng.Intn(6) > 0 {
		deltaT = time.Duration(rng.Int63n(int64(90 * time.Minute)))
	}
	in := oracleInstance{
		prefs: map[string]float64{},
		ctx: recommend.Context{
			Now: testEpoch, Position: testRoute[0], Route: testRoute, SpeedMS: 12, DeltaT: deltaT, Driving: true,
		},
	}
	if rng.Intn(2) == 0 {
		in.ctx.Weather = recommend.Weather(rng.Intn(5))
		in.ctx.Activity = recommend.Activity(rng.Intn(4))
	}
	for _, c := range rng.Perm(len(cats))[:1+rng.Intn(5)] {
		in.prefs[cats[c]] = float64(rng.Intn(25)-8) / 8 // some negative, some zero
	}
	if rng.Intn(4) == 0 {
		in.prefs["nobody-publishes-this"] = 0.5
	}

	n := 30 + rng.Intn(220)
	ids := rng.Perm(n)
	since := testEpoch.Add(-testWindow)
	for i := 0; i < n; i++ {
		it := &content.Item{
			ID:         fmt.Sprintf("it-%03d", ids[i]),
			Kind:       content.Kind(rng.Intn(4)),
			Categories: map[string]float64{},
		}
		if i > 0 && rng.Intn(4) == 0 {
			twin := in.items[rng.Intn(i)]
			it.Kind, it.Duration, it.Published, it.Geo = twin.Kind, twin.Duration, twin.Published, twin.Geo
			for c, w := range twin.Categories {
				it.Categories[c] = w
			}
		} else {
			it.Duration = palette[rng.Intn(len(palette))]
			if rng.Intn(5) == 0 {
				it.Duration = time.Duration(1+rng.Intn(100*60)) * time.Second
			}
			switch rng.Intn(12) {
			case 0:
				it.Published = since // the window's first instant
			case 1:
				it.Published = since.Add(-time.Nanosecond)
			case 2:
				it.Published = since.Add(time.Duration(rng.Intn(1e9))) // inside the cut's second
			default:
				it.Published = testEpoch.Add(-time.Duration(rng.Int63n(int64(100 * time.Hour))))
			}
			for _, c := range rng.Perm(len(cats))[:1+rng.Intn(4)] {
				it.Categories[cats[c]] = float64(1+rng.Intn(8)) / 8
			}
			if rng.Intn(8) == 0 {
				it.Geo = &content.GeoRelevance{Center: testRoute.At(rng.Float64()), Radius: 300 + rng.Float64()*1000}
			}
		}
		in.items = append(in.items, it)
	}
	if rng.Intn(2) == 0 {
		// Arrival in publish order — what ingest mostly sees.
		slices.SortStableFunc(in.items, func(a, b *content.Item) int { return a.Published.Compare(b.Published) })
	}
	if rng.Intn(3) == 0 {
		in.exclude = map[string]bool{}
		for i := 0; i < 1+rng.Intn(10); i++ {
			in.exclude[in.items[rng.Intn(n)].ID] = true
		}
	}
	in.lambda = oracleLambdas[rng.Intn(len(oracleLambdas))]
	return in
}

// oracleLambdas are the context weights the property tests draw: the
// ends, where the compound is one score alone, the default, and near 1,
// where a cosine's weight is small beside the context's.
var oracleLambdas = []float64{0, 0.4, 0.9, 0.999, 1}

// skips is the exclude set as the feedback store publishes it: items by
// catalog seq, and every third by ID, as if skipped before the catalog
// took it, so Rank's probe is checked on both halves.
func (in *oracleInstance) skips(repo *content.Repository) feedback.Skips {
	var k feedback.Skips
	for i, id := range slices.Sorted(maps.Keys(in.exclude)) {
		if seq, ok := repo.Seq(id); ok && i%3 != 2 {
			k.Seqs = append(k.Seqs, seq)
		} else {
			k.IDs = append(k.IDs, id)
		}
	}
	slices.Sort(k.Seqs)
	return k
}

// reference ranks the instance the slow way: scan the items, keep the
// candidate window, drop the excluded, Scorer.Rank.
func (in *oracleInstance) reference(scorer *recommend.Scorer) []recommend.Scored {
	since := in.ctx.Now.Add(-testWindow)
	var cands []*content.Item
	for _, it := range in.items {
		if !it.Published.Before(since) && !in.exclude[it.ID] {
			cands = append(cands, it)
		}
	}
	return scorer.Rank(in.prefs, cands, in.ctx, 0)
}

func rankedString(r []recommend.Scored) string {
	var sb strings.Builder
	for _, sc := range r {
		fmt.Fprintf(&sb, "%s:%.6f ", sc.Item.ID, sc.Compound)
	}
	return sb.String()
}

func planString(p core.Plan) string {
	var sb strings.Builder
	for _, it := range p.Items {
		fmt.Fprintf(&sb, "%s@%v ", it.Scored.Item.ID, it.StartOffset)
	}
	fmt.Fprintf(&sb, "| value %v dropped %d", p.TotalValue, len(p.Dropped))
	return sb.String()
}

// sameScores compares a pipeline ranking with the reference ranker's as
// sets: the same items, each with the same compound to 1e-12. It is the
// plain-context comparison: there the pipeline adds the context terms
// in a different order than Scorer.ContextScore does, the two compounds
// can differ in the last bit, and on a grid of weights that is enough to
// order two mathematically tied items differently.
func sameScores(got, want []recommend.Scored) bool {
	if len(got) != len(want) {
		return false
	}
	byID := func(a, b recommend.Scored) int { return strings.Compare(a.Item.ID, b.Item.ID) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, byID)
	slices.SortFunc(want, byID)
	for i := range want {
		if got[i].Item != want[i].Item || math.Abs(got[i].Compound-want[i].Compound) > 1e-12 {
			return false
		}
	}
	return true
}

// TestPlanMatchesOracle is the selection ≡ oracle property: over seeded
// random catalogs, preference vectors, contexts, context weights λ,
// windows, ΔTs and exclude sets,
//
//   - a ModeRank task returns what Scorer.Rank returns over a linear
//     scan of the window, and for k > 0 the head of that;
//   - a plan-mode task's plan is the plan Planner.Allocate builds from
//     that full reference ranking, item for item and offset for offset
//     (and nothing at all when the gate declines) — compared field for
//     field under a rich context, where both sides score through
//     Scorer.ContextScore; under a plain one, see sameScores;
//   - and under either it is, to the bit, the plan Planner.Allocate
//     builds from the pipeline's own full ranking: the bounded selection
//     and the upper-bound skip drop nothing the allocator would have
//     used.
//
// The wide instances (newWideOracleInstance) hold the same property over
// items whose categories do not fit their rows.
func TestPlanMatchesOracle(t *testing.T) {
	first, last := int64(0), int64(600)
	if *oracleSeed >= 0 {
		first, last = *oracleSeed, *oracleSeed+1
	}
	for seed := first; seed < last; seed++ {
		checkOracle(t, newOracleInstance(seed), fmt.Sprintf("-oracle.seed=%d", seed))
	}
	first, last = 0, 200
	if *oracleWideSeed >= 0 {
		first, last = *oracleWideSeed, *oracleWideSeed+1
	} else if *oracleSeed >= 0 {
		last = 0
	}
	for seed := first; seed < last; seed++ {
		checkOracle(t, newWideOracleInstance(seed), fmt.Sprintf("-oracle.wide=%d", seed))
	}
}

// oracleWideSeed, when set, runs TestPlanMatchesOracle on that one wide
// instance.
var oracleWideSeed = flag.Int64("oracle.wide", -1, "run the plan-vs-oracle property test on this wide instance only")

// wideCategories are the category names wide instances draw from: the
// first ten spread over the name order, interned with low ids, and the
// rest interned after at least 255 others, so their ids are wider than
// a row's id byte.
var wideCategories = sync.OnceValue(func() []string {
	var names []string
	for i := range 300 {
		name := fmt.Sprintf("%c-wide-%03d", 'a'+i*7%26, i)
		content.KeyOf(name) // interned in this order
		if i < 10 || i >= 290 {
			names = append(names, name)
		}
	}
	return names
})

// newWideOracleInstance is newOracleInstance(seed) with every item's
// categories and the preferences redrawn, from an rng of their own,
// from wideCategories on the same 1/8 grid: most items carry 5–12
// categories, more than a row holds, and the rest 1–4, half of them
// with a wide id added, so their pairs spill from the first wide one on.
func newWideOracleInstance(seed int64) oracleInstance {
	in := newOracleInstance(seed)
	cats := wideCategories()
	rng := rand.New(rand.NewSource(^seed))
	for _, it := range in.items {
		n := 5 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(4)
		}
		it.Categories = map[string]float64{}
		for _, c := range rng.Perm(len(cats))[:n] {
			it.Categories[cats[c]] = float64(1+rng.Intn(8)) / 8
		}
		if n <= 4 && rng.Intn(2) == 0 {
			it.Categories[cats[10+rng.Intn(len(cats)-10)]] = float64(1+rng.Intn(8)) / 8
		}
	}
	in.prefs = map[string]float64{}
	for _, c := range rng.Perm(len(cats))[:1+rng.Intn(len(cats))] {
		in.prefs[cats[c]] = float64(rng.Intn(25)-8) / 8
	}
	return in
}

// checkOracle checks TestPlanMatchesOracle's property on one instance;
// repro is the flag that runs it alone.
func checkOracle(t *testing.T, in oracleInstance, repro string) {
	t.Helper()
	rich := in.ctx.Weather != recommend.WeatherUnknown || in.ctx.Activity != recommend.ActivityUnknown
	repo := content.NewRepository()
	for i, it := range in.items {
		if err := repo.Add(it); err != nil {
			t.Fatal(err)
		}
		// The reference ranks the items the catalog hands out.
		in.items[i], _ = repo.Get(it.ID)
	}
	p, deps := planPipeline(repo, map[string]map[string]float64{"u": in.prefs})
	deps.Scorer.ContextWeight = in.lambda
	ref := in.reference(deps.Scorer)
	req := core.Request{Prefs: in.prefs, Ctx: in.ctx}
	exclude := in.skips(repo)
	proactive, _ := deps.Planner.ShouldRecommend(core.Situation{Ctx: in.ctx, TripConfidence: 1})
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s\n got:  %s\n want: %s\nrepro: go test ./internal/pipeline -run TestPlanMatchesOracle %s", repro, what, got, want, repro)
	}

	full := &Task{Mode: ModeRank, User: "u", Now: in.ctx.Now, Ctx: in.ctx, Exclude: exclude}
	p.Run(full)
	if rich && len(ref) > 0 && !reflect.DeepEqual(full.Ranked, ref) || !sameScores(full.Ranked, ref) {
		fail("full ranking differs from Scorer.Rank", rankedString(full.Ranked), rankedString(ref))
	}
	for _, k := range []int{1, 5, 30} {
		topk := &Task{Mode: ModeRank, User: "u", Now: in.ctx.Now, Ctx: in.ctx, Exclude: exclude, K: k}
		p.Run(topk)
		if want := full.Ranked[:min(k, len(full.Ranked))]; !slices.Equal(topk.Ranked, want) {
			fail(fmt.Sprintf("top-%d differs from the full ranking's head", k), rankedString(topk.Ranked), rankedString(want))
		}
	}

	plan := &Task{Mode: ModeLive, User: "u", Now: in.ctx.Now, Ctx: in.ctx, Exclude: exclude}
	p.Run(plan)
	if plan.Err != nil {
		t.Fatalf("%s: %v", repro, plan.Err)
	}
	if plan.Proactive != proactive || !proactive && len(plan.Plan.Items) != 0 {
		fail("gate", fmt.Sprint(plan.Proactive, " ", planString(plan.Plan)), fmt.Sprint(proactive))
	}
	if !proactive {
		return
	}
	if want := deps.Planner.Allocate(full.Ranked, req); !reflect.DeepEqual(plan.Plan, want) {
		fail("plan differs from Allocate over the pipeline's full ranking", planString(plan.Plan), planString(want))
	}
	want := deps.Planner.Allocate(ref, req)
	if rich && !reflect.DeepEqual(plan.Plan, want) ||
		len(plan.Plan.Items) != len(want.Items) || math.Abs(plan.Plan.TotalValue-want.TotalValue) > 1e-9*want.TotalValue {
		fail("plan differs from Scorer.Rank + Allocate", planString(plan.Plan), planString(want))
	}
}

// bigCatalog adds n bench-shaped items (2–4 weighted categories each,
// 4-minute clips published in order over the 4 h before testEpoch) to
// repo, numbered from first.
func bigCatalog(tb testing.TB, repo *content.Repository, rng *rand.Rand, first, n int) []*content.Item {
	tb.Helper()
	items := make([]*content.Item, n)
	for i := range items {
		cats := map[string]float64{}
		for len(cats) < 2+rng.Intn(3) {
			cats[content.Categories[rng.Intn(len(content.Categories))]] = 0.2 + rng.Float64()
		}
		items[i] = &content.Item{
			ID:         fmt.Sprintf("cat-%06d", first+i),
			Kind:       content.KindClip,
			Duration:   time.Duration(2+rng.Intn(6)) * time.Minute,
			Published:  testEpoch.Add(-4*time.Hour + time.Duration(first+i)*time.Millisecond),
			Categories: cats,
		}
		if err := repo.Add(items[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return items
}

func planTask(user string) *Task {
	return &Task{Mode: ModeLive, User: user, Now: testEpoch, Ctx: recommend.Context{
		Now: testEpoch, Position: testRoute[0], Route: testRoute, SpeedMS: 12, DeltaT: 20 * time.Minute, Driving: true,
	}}
}

// TestColdPlanAllocatesForThePlanNotTheCatalog: what a cold plan
// allocates must not grow with the catalog. Measured with the pools
// emptied first, so scratch that is merely recycled counts too — a
// per-request ranked slice or knapsack table sized by the catalog
// (800 KB and 1.6 MB at 20 000 items, before the selection was bounded)
// shows up here whether or not a sync.Pool hides it from steady state.
// The catalogs have the repository benchmark's shape, whose four-minute
// items fill ΔT with the same number of items at every size, so the
// schedule allocates alike and the count of steady-state allocations
// must be equal at 2 000, 20 000 and 200 000 items: a check that does
// not depend on how fast the machine is.
func TestColdPlanAllocatesForThePlanNotTheCatalog(t *testing.T) {
	measure := func(n int) (coldBytes uint64, steadyAllocs float64) {
		repo, prefs := denseCatalog(t, n)
		p, _ := planPipeline(repo, map[string]map[string]float64{"u": prefs})
		run := func() {
			task := planTask("u")
			p.Run(task)
			if len(task.Plan.Items) == 0 {
				t.Fatalf("no plan over %d items", n)
			}
		}
		run()
		runtime.GC()
		runtime.GC() // twice: the first only moves pooled buffers to the victim cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, testing.AllocsPerRun(20, run)
	}
	smallBytes, smallAllocs := measure(2_000)
	for _, n := range []int{20_000, 200_000} {
		bigBytes, bigAllocs := measure(n)
		t.Logf("cold plan, pools empty: %d B at 2 000 items, %d B at %d; steady state %.0f and %.0f allocs/plan", smallBytes, bigBytes, n, smallAllocs, bigAllocs)
		if bigBytes > 2*smallBytes || bigBytes > 128<<10 {
			t.Fatalf("a cold plan over %d items allocated %d B with empty pools (%d B over 2 000): scratch is scaling with the catalog", n, bigBytes, smallBytes)
		}
		// The race detector's sync.Pool drops a quarter of its Puts, so
		// the steady-state count is only deterministic without it.
		if !raceEnabled && (bigAllocs != smallAllocs || bigAllocs > 64) {
			t.Fatalf("a cold plan over %d items makes %.0f allocations (%.0f over 2 000)", n, bigAllocs, smallAllocs)
		}
	}
}

// viewSizeRank records, per task, the size of the catalog view the task
// is ranked from.
type viewSizeRank struct {
	inner Rank
	sizes *sync.Map // *Task -> int
}

func (r viewSizeRank) Rank(t *Task) {
	r.sizes.Store(t, t.set.view.Len())
	r.inner.Rank(t)
}

// TestPlansConsistentUnderConcurrentIngest: planners run while another
// goroutine adds items, in and out of publish order and with categories
// no earlier item carried. Every plan must be exactly the plan a
// quiesced repository holding just the items that plan could see
// produces — a view is a consistent cut, never a torn one. Run with
// -race: the view shares the repository's arrays with the writer.
func TestPlansConsistentUnderConcurrentIngest(t *testing.T) {
	users := map[string]map[string]float64{
		"u0": {"sport": 0.9, "food": 0.6, "late-0": 0.8},
		"u1": {"music": 1, "travel": 0.5, "science": -0.4},
		"u2": {"news": 0.3, "late-1": 1, "culture": 0.7, "art": 0.2},
	}
	const initial, total = 500, 3000
	rng := rand.New(rand.NewSource(3))
	staged := content.NewRepository()
	items := bigCatalog(t, staged, rng, 0, total)
	for i := initial; i < total; i++ {
		if i%3 == 0 { // a late arrival: published before items already in
			items[i].Published = testEpoch.Add(-5*time.Hour + time.Duration(i)*time.Second)
		}
		if i%50 == 0 { // a category coined at run time
			items[i].Categories[fmt.Sprintf("late-%d", (i/50)%2)] = 0.9
		}
	}

	repo := content.NewRepository()
	for _, it := range items[:initial] {
		if err := repo.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	// One pipeline, shared by every planner as in the running system. The
	// Rank stage is wrapped to note how many items each task's view held.
	p, _ := planPipeline(repo, users)
	var visible sync.Map // *Task -> int
	p.Rank = viewSizeRank{inner: p.Rank, sizes: &visible}

	type result struct {
		user    string
		visible int
		plan    core.Plan
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
		done    = make(chan struct{})
	)
	for user := range users {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				task := planTask(user)
				p.Run(task)
				n, _ := visible.LoadAndDelete(task)
				mu.Lock()
				results = append(results, result{user, n.(int), task.Plan})
				mu.Unlock()
			}
		}(user)
	}
	for _, it := range items[initial:] {
		if err := repo.Add(it); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()

	// Replay, smallest cut first: the items visible to a plan are the
	// first `visible` added, so one quiesced repository grows through
	// every cut.
	slices.SortStableFunc(results, func(a, b result) int { return a.visible - b.visible })
	quiesced := content.NewRepository()
	qp, _ := planPipeline(quiesced, users)
	cuts := 0
	for _, r := range results {
		if n := quiesced.Len(); n < r.visible {
			cuts++
			for _, it := range items[n:r.visible] {
				if err := quiesced.Add(it); err != nil {
					t.Fatal(err)
				}
			}
		}
		task := planTask(r.user)
		qp.Run(task)
		got, err := inCatalog(r.plan, quiesced)
		if err != nil {
			t.Fatalf("%s with %d items visible: %v", r.user, r.visible, err)
		}
		if !reflect.DeepEqual(got, task.Plan) {
			t.Fatalf("%s with %d items visible: concurrent plan differs from the quiesced one\n got:  %s\n want: %s", r.user, r.visible, planString(r.plan), planString(task.Plan))
		}
	}
	if cuts < 2 {
		t.Fatalf("every plan saw the same catalog (%d plans): ingest and planning did not overlap", len(results))
	}
	t.Logf("%d plans checked against %d distinct catalog cuts", len(results), cuts)
}

// inCatalog returns a copy of the plan whose items are the catalog's
// items of the same IDs, once each is shown to hold what the catalog's
// holds: the same JSON, which carries every exported field and the
// weights, and the same weights in the same order, bit for bit. Two
// repositories fed the same items hold copies that are equal but for
// their pair chunks, which differ in the pairs of the other items they
// hold; the swap leaves reflect.DeepEqual only those to ignore.
func inCatalog(p core.Plan, repo *content.Repository) (core.Plan, error) {
	p.Items, p.Dropped = slices.Clone(p.Items), slices.Clone(p.Dropped)
	swap := func(s *recommend.Scored) error {
		it, ok := repo.Get(s.Item.ID)
		if !ok {
			return fmt.Errorf("item %s is not in the quiesced catalog", s.Item.ID)
		}
		got, err := json.Marshal(s.Item)
		if err != nil {
			return err
		}
		want, err := json.Marshal(it)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) || !slices.Equal(weightBits(s.Item), weightBits(it)) {
			return fmt.Errorf("item %s differs from the quiesced catalog's\n got:  %s %v\n want: %s %v", it.ID, got, weightBits(s.Item), want, weightBits(it))
		}
		s.Item = it
		return nil
	}
	for i := range p.Items {
		if err := swap(&p.Items[i].Scored); err != nil {
			return p, err
		}
	}
	for i := range p.Dropped {
		if err := swap(&p.Dropped[i].Scored); err != nil {
			return p, err
		}
	}
	return p, nil
}

// weightBits lists the item's categories in the order Weights yields
// them, each with its weight's bits.
func weightBits(it *content.Item) []string {
	var out []string
	for c, w := range it.Weights() {
		out = append(out, fmt.Sprintf("%s:%x", c, math.Float64bits(w)))
	}
	return out
}

// BenchmarkColdPlan is one plan-mode task end to end (view, ranking,
// selection, knapsack, schedule) over a 20 000-item catalog, for a
// listener with a sparse preference vector: 4 of the 30 categories.
func BenchmarkColdPlan(b *testing.B) {
	repo := content.NewRepository()
	bigCatalog(b, repo, rand.New(rand.NewSource(1)), 0, 20_000)
	benchColdPlan(b, repo, map[string]float64{"sport": 0.9, "food": 0.6, "music": 0.4, "travel": -0.3})
}

// BenchmarkColdPlanDense is the same task in the shape the repository's
// benchmark (bench/) drives (denseCatalog) over its 20 000 items.
func BenchmarkColdPlanDense(b *testing.B) {
	repo, prefs := denseCatalog(b, 20_000)
	benchColdPlan(b, repo, prefs)
}

// BenchmarkColdPlanMixed is the dense task over a catalog whose
// durations are uniform in 90–689 s at 1 s: about 41 slot classes, a
// different one from item to item, where the dense catalog has one.
func BenchmarkColdPlanMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	repo, prefs := denseCatalogOf(b, 20_000, func() time.Duration { return time.Duration(90+rng.Intn(600)) * time.Second })
	benchColdPlan(b, repo, prefs)
}

// BenchmarkColdPlanRich is the dense task under a rich context (rain):
// the context score of every item the admission rows let through reads
// the item itself, which Rank reaches by its seq.
func BenchmarkColdPlanRich(b *testing.B) {
	repo, prefs := denseCatalog(b, 20_000)
	benchColdPlanTask(b, repo, prefs, func() *Task {
		task := planTask("u")
		task.Ctx.Weather = recommend.WeatherRain
		return task
	})
}

// BenchmarkColdPlanDense200k is the dense task over ten times the
// items: the exact Candidates and Rank stages at the largest catalog
// size the repository keeps a guard for.
func BenchmarkColdPlanDense200k(b *testing.B) {
	repo, prefs := denseCatalog(b, 200_000)
	benchColdPlan(b, repo, prefs)
}

// denseCatalog fills a repository in the shape the repository's
// benchmark drives: n four-minute items whose 2–4 category weights sum
// to 1, published over the last 4 hours. It returns the preference
// vector of a listener with a feedback history — 200 likes of sampled
// items, which leaves a weight on every one of the 30 categories, so
// every item in the window is scored.
func denseCatalog(tb testing.TB, n int) (*content.Repository, map[string]float64) {
	return denseCatalogOf(tb, n, func() time.Duration { return 4 * time.Minute })
}

// denseCatalogOf is denseCatalog with each item's duration drawn from
// duration.
func denseCatalogOf(tb testing.TB, n int, duration func() time.Duration) (*content.Repository, map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	repo := content.NewRepository()
	items := make([]*content.Item, n)
	for i := range items {
		cats, total := map[string]float64{}, 0.0
		for k := 2 + rng.Intn(3); len(cats) < k; {
			cat := content.Categories[rng.Intn(len(content.Categories))]
			if _, dup := cats[cat]; !dup {
				cats[cat] = 0.2 + rng.Float64()
				total += cats[cat]
			}
		}
		for cat := range cats {
			cats[cat] /= total
		}
		items[i] = &content.Item{
			ID:         fmt.Sprintf("cat-%06d", i),
			Kind:       content.KindClip,
			Duration:   duration(),
			Published:  testEpoch.Add(-4*time.Hour + time.Duration(i)*4*time.Hour/time.Duration(len(items))),
			Categories: cats,
		}
		if err := repo.Add(items[i]); err != nil {
			tb.Fatal(err)
		}
	}
	prefs := map[string]float64{}
	for i := 0; i < 200; i++ {
		for cat, w := range items[rng.Intn(len(items))].Categories {
			prefs[cat] += w
		}
	}
	if len(prefs) != len(content.Categories) {
		tb.Fatalf("preference vector covers %d of %d categories", len(prefs), len(content.Categories))
	}
	return repo, prefs
}

func benchColdPlan(b *testing.B, repo *content.Repository, prefs map[string]float64) {
	benchColdPlanTask(b, repo, prefs, func() *Task { return planTask("u") })
}

// benchColdPlanTask runs the task newTask builds for listener "u".
func benchColdPlanTask(b *testing.B, repo *content.Repository, prefs map[string]float64, newTask func() *Task) {
	p, _ := planPipeline(repo, map[string]map[string]float64{"u": prefs})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := newTask()
		p.Run(task)
		if len(task.Plan.Items) == 0 {
			b.Fatal("no plan")
		}
	}
}
