// Package recommend implements the relevance model of the paper's
// recommender system component (§1.2): "for each user the recommender
// filters a candidate set of media items using content-based relevance
// based on past listener's feedbacks. Then a compound relevance score is
// calculated through weighted combination of the content-based relevance
// and the context-based relevance (location, trajectory, speed and time
// information)."
package recommend

import (
	"math"
	"slices"
	"strings"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/geo"
)

// Context is the listener's situation at recommendation time.
type Context struct {
	Now      time.Time
	Position geo.Point
	// Route is the predicted remaining route; nil when unknown (e.g. the
	// listener is stationary).
	Route geo.Polyline
	// SpeedMS is the current speed in m/s.
	SpeedMS float64
	// DeltaT is the predicted available listening time.
	DeltaT time.Duration
	// Driving marks an in-vehicle session.
	Driving bool
	// Weather and Activity are the richer context signals of the paper's
	// future work (§3); zero values mean "unknown" and score neutrally.
	Weather  Weather
	Activity Activity
}

// Scored is one item with its relevance decomposition.
type Scored struct {
	Item     *content.Item
	Content  float64 // content-based relevance in [0,1]
	Context  float64 // context-based relevance in [0,1]
	Compound float64 // weighted combination in [0,1]
}

// Scorer computes the compound relevance. The zero value is unusable;
// call NewScorer.
type Scorer struct {
	// ContextWeight is λ in compound = (1−λ)·content + λ·context.
	ContextWeight float64
	// FreshnessHalfLife controls the freshness boost of recent items.
	FreshnessHalfLife time.Duration
	// GeoScaleMeters controls how quickly geographic relevance decays
	// beyond an item's radius.
	GeoScaleMeters float64
}

// NewScorer returns a scorer with the given context weight λ ∈ [0,1]
// and experiment-default freshness/geo parameters.
func NewScorer(contextWeight float64) *Scorer {
	if contextWeight < 0 {
		contextWeight = 0
	}
	if contextWeight > 1 {
		contextWeight = 1
	}
	return &Scorer{
		ContextWeight:     contextWeight,
		FreshnessHalfLife: 36 * time.Hour,
		GeoScaleMeters:    2000,
	}
}

// ContentScore is the content-based relevance of the item for a listener
// with the given category preference vector: the cosine similarity
// between preferences and the item's category distribution (negative
// similarity clamps to 0 — actively disliked), modulated by freshness.
func (s *Scorer) ContentScore(prefs map[string]float64, it *content.Item, now time.Time) float64 {
	cos := cosine(prefs, it)
	if cos <= 0 {
		return 0
	}
	// News rots twice as fast as evergreen clips (see FreshnessFactor).
	return cos * s.FreshnessFactor(it, now)
}

// ContextScore is the context-based relevance of the item for the
// current situation: geographic relevance along the predicted route,
// time-of-day affinity of the item kind, and the richer weather/activity
// signals (which score neutrally when unknown).
func (s *Scorer) ContextScore(it *content.Item, ctx Context) float64 {
	return 0.5*s.geoScore(it, &ctx) +
		0.2*timeOfDayScore(it.Kind, ctx.Now) +
		0.15*weatherScore(it, ctx.Weather) +
		0.15*activityScore(it, ctx.Activity)
}

// ContextBase is the position-independent part of the context relevance:
// time-of-day, weather and activity affinity. It depends only on the
// item and the (now, weather, activity) triple, so the staged pipeline
// precomputes it once per task and adds the geographic term per item:
// GeoScore·0.5 + ContextBase composes the same signals as ContextScore.
func (s *Scorer) ContextBase(it *content.Item, ctx Context) float64 {
	return 0.2*timeOfDayScore(it.Kind, ctx.Now) +
		0.15*weatherScore(it, ctx.Weather) +
		0.15*activityScore(it, ctx.Activity)
}

// ContextCeiling bounds ContextScore under ctx: 1, as each term is at most
// 1 and the weights sum to 1, or +Inf under clear weather, whose term a
// negative weight raises, and at a position off the globe (NaN distance).
func ContextCeiling(ctx Context) float64 {
	if ctx.Weather != WeatherUnknown && ctx.Weather.Severity() == 0 || len(ctx.Route) < 2 && !ctx.Position.Valid() {
		return math.Inf(1)
	}
	return 1
}

// GeoScore exposes the geographic relevance term for stage
// implementations that assemble the context score incrementally. The
// context is passed by pointer because rankers call this once per
// candidate and Context is a dozen words to copy.
func (s *Scorer) GeoScore(it *content.Item, ctx *Context) float64 {
	return s.geoScore(it, ctx)
}

// FreshnessFactor is the content-score freshness multiplier for an item
// at instant now — the (0.5 + 0.5·2^(−age/halfLife)) term of
// ContentScore, with the news half-life halving. It depends only on
// (item, now).
func (s *Scorer) FreshnessFactor(it *content.Item, now time.Time) float64 {
	age := now.Sub(it.Published)
	if age < 0 {
		age = 0
	}
	halfLife := s.FreshnessHalfLife
	if halfLife <= 0 {
		halfLife = 36 * time.Hour
	}
	if it.Kind == content.KindNews {
		halfLife /= 2
	}
	return 0.5 + 0.5*math.Exp2(-age.Hours()/halfLife.Hours())
}

// geoScore is 1 inside the item's relevance disc, decaying with the
// distance beyond it; items without geographic scope are neutral (0.5).
// When a predicted route exists, the distance is measured from the route
// (the listener will pass there — Fig 2's item B at location L_B), else
// from the current position.
func (s *Scorer) geoScore(it *content.Item, ctx *Context) float64 {
	if it.Geo == nil {
		return 0.5
	}
	var d float64
	if len(ctx.Route) >= 2 {
		d = geo.DistanceToPolyline(it.Geo.Center, ctx.Route)
	} else {
		d = geo.Distance(it.Geo.Center, ctx.Position)
	}
	beyond := d - it.Geo.Radius
	if beyond <= 0 {
		return 1
	}
	scale := s.GeoScaleMeters
	if scale <= 0 {
		scale = 2000
	}
	return math.Exp(-beyond / scale)
}

// timeOfDayScore encodes simple editorial dayparting: news peaks in the
// morning drive, comedy/music in the evening, everything else neutral.
func timeOfDayScore(kind content.Kind, now time.Time) float64 {
	h := now.Hour()
	switch kind {
	case content.KindNews:
		switch {
		case h >= 6 && h < 10:
			return 1.0
		case h >= 10 && h < 20:
			return 0.6
		default:
			return 0.4
		}
	case content.KindMusic:
		if h >= 17 && h < 23 {
			return 0.9
		}
		return 0.6
	default:
		return 0.5
	}
}

// Compound combines the two relevances with the scorer's λ.
func (s *Scorer) Compound(contentScore, contextScore float64) float64 {
	return (1-s.ContextWeight)*contentScore + s.ContextWeight*contextScore
}

// ScoreItem computes the full decomposition for one item.
func (s *Scorer) ScoreItem(prefs map[string]float64, it *content.Item, ctx Context) Scored {
	c := s.ContentScore(prefs, it, ctx.Now)
	x := s.ContextScore(it, ctx)
	return Scored{Item: it, Content: c, Context: x, Compound: s.Compound(c, x)}
}

// ContentFloor is the minimal content-based relevance a candidate must
// clear to enter the ranking (the paper's two-stage filter): anything
// below it — zero or negative cosine — is treated as actively disliked
// or fully unrelated. Shared by Rank and the staged pipeline's ranker.
const ContentFloor = 1e-6

// CompareRank is THE ranking order — compound relevance descending, item
// ID ascending — as a three-way comparison: negative when a ranks before
// b. IDs are unique, so the order is total and every selection that
// follows it (full sort, top-k heap, the planner's per-class heaps and
// its list-length cap) agrees item for item.
func CompareRank(a, b Scored) int {
	switch {
	case a.Compound > b.Compound:
		return -1
	case a.Compound < b.Compound:
		return 1
	}
	return strings.Compare(a.Item.ID, b.Item.ID)
}

// Rank scores all items and returns the top k by compound relevance,
// after the paper's two-stage filter: candidates must first clear a
// minimal content-based relevance (not actively disliked), then are
// ordered by compound score. k ≤ 0 returns all survivors.
func (s *Scorer) Rank(prefs map[string]float64, items []*content.Item, ctx Context, k int) []Scored {
	out := make([]Scored, 0, len(items))
	for _, it := range items {
		sc := s.ScoreItem(prefs, it, ctx)
		if sc.Content < ContentFloor {
			continue
		}
		out = append(out, sc)
	}
	slices.SortFunc(out, CompareRank)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// cosine computes the cosine similarity between a preference vector
// and the item's category distribution.
func cosine(prefs map[string]float64, it *content.Item) float64 {
	var dot, na, nb float64
	for _, av := range prefs {
		na += av * av
	}
	for c, bv := range it.Weights() {
		nb += bv * bv
		if av, ok := prefs[c]; ok {
			dot += av * bv
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na) / math.Sqrt(nb)
}
