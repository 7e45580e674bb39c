package recommend

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/geo"
)

var (
	torino = geo.Point{Lat: 45.0703, Lon: 7.6869}
	now    = time.Date(2016, 11, 15, 8, 30, 0, 0, time.UTC) // morning drive
)

func item(id, cat string, kind content.Kind, dur time.Duration) *content.Item {
	return &content.Item{
		ID:         id,
		Kind:       kind,
		Duration:   dur,
		Published:  now.Add(-2 * time.Hour),
		Categories: map[string]float64{cat: 1},
	}
}

func drivingCtx(deltaT time.Duration) Context {
	route := geo.Polyline{torino, geo.Destination(torino, 70, 5000), geo.Destination(torino, 70, 10000)}
	return Context{
		Now:      now,
		Position: torino,
		Route:    route,
		SpeedMS:  12,
		DeltaT:   deltaT,
		Driving:  true,
	}
}

func TestNewScorerClampsLambda(t *testing.T) {
	if s := NewScorer(-1); s.ContextWeight != 0 {
		t.Fatalf("λ = %v", s.ContextWeight)
	}
	if s := NewScorer(2); s.ContextWeight != 1 {
		t.Fatalf("λ = %v", s.ContextWeight)
	}
}

func TestContentScorePreferenceMatch(t *testing.T) {
	s := NewScorer(0.4)
	prefs := map[string]float64{"food": 1.0, "sport": -0.5}
	foodScore := s.ContentScore(prefs, item("a", "food", content.KindClip, time.Minute), now)
	sportScore := s.ContentScore(prefs, item("b", "sport", content.KindClip, time.Minute), now)
	otherScore := s.ContentScore(prefs, item("c", "weather", content.KindClip, time.Minute), now)
	if foodScore <= 0 {
		t.Fatalf("liked category score = %v", foodScore)
	}
	if sportScore != 0 {
		t.Fatalf("disliked category score = %v, want 0", sportScore)
	}
	if otherScore != 0 {
		t.Fatalf("orthogonal category score = %v, want 0", otherScore)
	}
}

func TestContentScoreFreshness(t *testing.T) {
	s := NewScorer(0)
	prefs := map[string]float64{"food": 1}
	fresh := item("fresh", "food", content.KindClip, time.Minute)
	fresh.Published = now.Add(-time.Hour)
	stale := item("stale", "food", content.KindClip, time.Minute)
	stale.Published = now.Add(-14 * 24 * time.Hour)
	if s.ContentScore(prefs, fresh, now) <= s.ContentScore(prefs, stale, now) {
		t.Fatal("freshness boost missing")
	}
	// Future-published item does not overflow past 1.
	future := item("future", "food", content.KindClip, time.Minute)
	future.Published = now.Add(time.Hour)
	if got := s.ContentScore(prefs, future, now); got > 1 {
		t.Fatalf("future item score = %v", got)
	}
}

func TestContentScoreNewsDecaysFaster(t *testing.T) {
	s := NewScorer(0)
	prefs := map[string]float64{"politics": 1}
	age := 24 * time.Hour
	newsIt := item("n", "politics", content.KindNews, time.Minute)
	newsIt.Published = now.Add(-age)
	clipIt := item("c", "politics", content.KindClip, time.Minute)
	clipIt.Published = now.Add(-age)
	if s.ContentScore(prefs, newsIt, now) >= s.ContentScore(prefs, clipIt, now) {
		t.Fatal("news should decay faster than clips")
	}
}

func TestGeoScoreOnRoute(t *testing.T) {
	s := NewScorer(0.5)
	ctx := drivingCtx(25 * time.Minute)
	onRoute := item("on", "regional", content.KindClip, time.Minute)
	onRoute.Geo = &content.GeoRelevance{Center: geo.Destination(torino, 70, 5000), Radius: 1000}
	offRoute := item("off", "regional", content.KindClip, time.Minute)
	offRoute.Geo = &content.GeoRelevance{Center: geo.Destination(torino, 250, 30000), Radius: 1000}
	neutral := item("none", "regional", content.KindClip, time.Minute)

	sOn := s.ContextScore(onRoute, ctx)
	sOff := s.ContextScore(offRoute, ctx)
	sNone := s.ContextScore(neutral, ctx)
	if sOn <= sNone || sNone <= sOff {
		t.Fatalf("geo ordering broken: on=%v neutral=%v off=%v", sOn, sNone, sOff)
	}

	// λ decides whether the on-route item outranks a geo-less one the
	// listener likes more: pure context puts it first, pure content last.
	liked := item("liked", "food", content.KindClip, time.Minute)
	prefs := map[string]float64{"food": 1, "regional": 0.3}
	for _, c := range []struct {
		lambda float64
		first  string
	}{{1, "on"}, {0, "liked"}} {
		ranked := NewScorer(c.lambda).Rank(prefs, []*content.Item{liked, onRoute}, ctx, 0)
		if len(ranked) != 2 {
			t.Fatalf("λ=%v ranked %d items, want 2", c.lambda, len(ranked))
		}
		if ranked[0].Item.ID != c.first {
			t.Errorf("λ=%v ranks %q first, want %q", c.lambda, ranked[0].Item.ID, c.first)
		}
	}
}

func TestGeoScoreWithoutRouteUsesPosition(t *testing.T) {
	s := NewScorer(0.5)
	ctx := drivingCtx(25 * time.Minute)
	ctx.Route = nil
	near := item("near", "regional", content.KindClip, time.Minute)
	near.Geo = &content.GeoRelevance{Center: geo.Destination(torino, 0, 500), Radius: 1000}
	far := item("far", "regional", content.KindClip, time.Minute)
	far.Geo = &content.GeoRelevance{Center: geo.Destination(torino, 0, 30000), Radius: 1000}
	if s.ContextScore(near, ctx) <= s.ContextScore(far, ctx) {
		t.Fatal("position-based geo ordering broken")
	}
}

func TestTimeOfDayAffinity(t *testing.T) {
	s := NewScorer(1) // pure context
	newsIt := item("n", "politics", content.KindNews, time.Minute)
	morning := drivingCtx(25 * time.Minute) // 08:30
	evening := morning
	evening.Now = time.Date(2016, 11, 15, 21, 0, 0, 0, time.UTC)
	if s.ContextScore(newsIt, morning) <= s.ContextScore(newsIt, evening) {
		t.Fatal("news should peak in the morning")
	}
	musicIt := item("m", "music", content.KindMusic, time.Minute)
	if s.ContextScore(musicIt, evening) <= s.ContextScore(musicIt, morning) {
		t.Fatal("music should peak in the evening")
	}
}

func TestCompoundWeighting(t *testing.T) {
	cases := []struct {
		lambda   float64
		cnt, ctx float64
		want     float64
	}{
		{0, 0.8, 0.2, 0.8},
		{1, 0.8, 0.2, 0.2},
		{0.5, 0.8, 0.2, 0.5},
	}
	for _, c := range cases {
		s := NewScorer(c.lambda)
		if got := s.Compound(c.cnt, c.ctx); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("λ=%v Compound = %v, want %v", c.lambda, got, c.want)
		}
	}
}

func TestScoresBounded(t *testing.T) {
	f := func(lambda, pw float64) bool {
		s := NewScorer(math.Abs(math.Mod(lambda, 1)))
		prefs := map[string]float64{"food": math.Mod(pw, 3)}
		it := item("x", "food", content.KindClip, time.Minute)
		it.Geo = &content.GeoRelevance{Center: torino, Radius: 500}
		sc := s.ScoreItem(prefs, it, drivingCtx(20*time.Minute))
		return sc.Content >= 0 && sc.Content <= 1 &&
			sc.Context >= 0 && sc.Context <= 1 &&
			sc.Compound >= 0 && sc.Compound <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRankFiltersAndOrders(t *testing.T) {
	s := NewScorer(0.4)
	prefs := map[string]float64{"food": 1, "sport": -1}
	items := []*content.Item{
		item("food1", "food", content.KindClip, time.Minute),
		item("sport1", "sport", content.KindClip, time.Minute), // disliked → filtered
		item("food2", "food", content.KindClip, time.Minute),
		item("weather1", "weather", content.KindClip, time.Minute), // orthogonal → filtered
	}
	ranked := s.Rank(prefs, items, drivingCtx(25*time.Minute), 0)
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d items", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Compound > ranked[i-1].Compound {
			t.Fatal("not sorted by compound")
		}
	}
	top1 := s.Rank(prefs, items, drivingCtx(25*time.Minute), 1)
	if len(top1) != 1 {
		t.Fatalf("k=1 returned %d", len(top1))
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	s := NewScorer(0.4)
	prefs := map[string]float64{"food": 1}
	items := []*content.Item{
		item("b", "food", content.KindClip, time.Minute),
		item("a", "food", content.KindClip, time.Minute),
	}
	r1 := s.Rank(prefs, items, drivingCtx(25*time.Minute), 0)
	if r1[0].Item.ID != "a" {
		t.Fatalf("tie-break order: %v first", r1[0].Item.ID)
	}
}

func TestCosine(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 1}
	of := func(m map[string]float64) *content.Item { return &content.Item{Categories: m} }
	if got := cosine(a, of(a)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self cosine = %v", got)
	}
	b := map[string]float64{"z": 1}
	if got := cosine(a, of(b)); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	neg := map[string]float64{"x": -1}
	if got := cosine(a, of(neg)); got >= 0 {
		t.Fatalf("opposed cosine = %v", got)
	}
	if got := cosine(nil, of(a)); got != 0 {
		t.Fatalf("empty cosine = %v", got)
	}
}

func BenchmarkRank1000(b *testing.B) {
	s := NewScorer(0.4)
	prefs := map[string]float64{"food": 1, "culture": 0.5, "music": 0.3}
	var items []*content.Item
	cats := []string{"food", "culture", "music", "sport", "weather"}
	for i := 0; i < 1000; i++ {
		it := item(string(rune('a'+i%26))+string(rune('0'+i%10))+"-"+time.Duration(i).String(), cats[i%len(cats)], content.KindClip, time.Duration(2+i%10)*time.Minute)
		items = append(items, it)
	}
	ctx := drivingCtx(25 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rank(prefs, items, ctx, 10)
	}
}
