// Package predict implements the mobility model behind the paper's
// proactive recommendations (§1.1–1.2, Fig 2): from a listener's compact
// trip history it predicts, at trip start, the destination, the route the
// listener will follow and the available travel time ΔT — the inputs the
// proactive recommender uses to size and geo-target the recommendation
// list.
//
// The model is intentionally simple and fully inspectable: a first-order
// Markov chain over staying points conditioned on a coarse time-of-day
// bucket, a route-prefix matcher over stored (simplified) route samples,
// and robust (median + MAD) travel-time statistics per origin/destination
// pair. That is the level of machinery the demo paper describes.
package predict

import (
	"math"
	"sort"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/trajectory"
)

// PlaceID indexes a staying point in the model.
type PlaceID int

// NoPlace marks an unmatched location.
const NoPlace PlaceID = -1

// TripRecord is one historical trip between two known places.
type TripRecord struct {
	From, To PlaceID
	Depart   time.Time
	Duration time.Duration
	// Route is the RDP-simplified trajectory of the trip.
	Route geo.Polyline
}

// TimeBucket is a coarse time-of-day slot; transitions are conditioned on
// it so that "Lilly leaves home in the morning → work" and "leaves home in
// the evening → gym" coexist.
type TimeBucket int

// Buckets partition the day into six 4-hour slots, offset so that the
// 06–10 morning rush is a single bucket. Weekends get their own banks.
const (
	bucketHours   = 4
	bucketsPerDay = 24 / bucketHours
)

// BucketOf returns the TimeBucket for an instant.
func BucketOf(t time.Time) TimeBucket {
	b := ((t.Hour() + 22) % 24) / bucketHours // shift so 02-06,06-10,...
	if wd := t.Weekday(); wd == time.Saturday || wd == time.Sunday {
		b += bucketsPerDay
	}
	return TimeBucket(b)
}

// Model is a per-listener mobility model. Build it with BuildModel; it is
// immutable afterwards and safe for concurrent readers.
type Model struct {
	places []trajectory.StayPoint
	// matchRadius is how close a point must be to a staying point to be
	// considered "at" it.
	matchRadius float64
	// transitions[from][bucket][to] = count
	transitions map[PlaceID]map[TimeBucket]map[PlaceID]int
	// durations[from][to] = sorted historical durations
	durations map[[2]PlaceID][]time.Duration
	// routes[from][to] = stored route samples (most recent last)
	routes map[[2]PlaceID][]geo.Polyline
	// stats[from][to] = travel statistics precomputed at build time: the
	// model is immutable, so the per-pair medians and route length are
	// computed once here instead of re-sorting/re-walking on every
	// TravelTime/RouteLength call (the warm-planning hot path).
	stats map[[2]PlaceID]pairStats
}

type pairStats struct {
	median, mad time.Duration
	routeLen    float64
}

// BuildModel constructs a mobility model from staying points and trip
// history. matchRadiusMeters ≤ 0 defaults to 200 m.
func BuildModel(places []trajectory.StayPoint, trips []TripRecord, matchRadiusMeters float64) *Model {
	if matchRadiusMeters <= 0 {
		matchRadiusMeters = 200
	}
	m := &Model{
		places:      places,
		matchRadius: matchRadiusMeters,
		transitions: make(map[PlaceID]map[TimeBucket]map[PlaceID]int),
		durations:   make(map[[2]PlaceID][]time.Duration),
		routes:      make(map[[2]PlaceID][]geo.Polyline),
	}
	for _, tr := range trips {
		if tr.From == NoPlace || tr.To == NoPlace || tr.From == tr.To {
			continue
		}
		b := BucketOf(tr.Depart)
		byBucket := m.transitions[tr.From]
		if byBucket == nil {
			byBucket = make(map[TimeBucket]map[PlaceID]int)
			m.transitions[tr.From] = byBucket
		}
		counts := byBucket[b]
		if counts == nil {
			counts = make(map[PlaceID]int)
			byBucket[b] = counts
		}
		counts[tr.To]++
		key := [2]PlaceID{tr.From, tr.To}
		m.durations[key] = append(m.durations[key], tr.Duration)
		if len(tr.Route) >= 2 {
			m.routes[key] = append(m.routes[key], tr.Route)
		}
	}
	for _, ds := range m.durations {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	m.stats = make(map[[2]PlaceID]pairStats, len(m.durations))
	for key, ds := range m.durations {
		median := ds[len(ds)/2]
		devs := make([]time.Duration, len(ds))
		for i, d := range ds {
			dev := d - median
			if dev < 0 {
				dev = -dev
			}
			devs[i] = dev
		}
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
		st := pairStats{median: median, mad: devs[len(devs)/2]}
		if rs := m.routes[key]; len(rs) > 0 {
			st.routeLen = rs[len(rs)-1].Length()
		}
		m.stats[key] = st
	}
	return m
}

// Places returns the model's staying points.
func (m *Model) Places() []trajectory.StayPoint { return m.places }

// Origins returns every place with at least one outgoing transition,
// sorted. The precompute scheduler enumerates these to know which trips
// are worth warming for a user.
func (m *Model) Origins() []PlaceID {
	out := make([]PlaceID, 0, len(m.transitions))
	for p := range m.transitions {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MatchPlace returns the staying point containing p, or NoPlace.
func (m *Model) MatchPlace(p geo.Point) PlaceID {
	idx, d := trajectory.NearestStayPoint(m.places, p)
	if idx < 0 || d > m.matchRadius {
		return NoPlace
	}
	return PlaceID(idx)
}

// DestinationCandidate is a predicted destination with its probability.
type DestinationCandidate struct {
	Place PlaceID
	Prob  float64
}

// PredictDestination returns destination candidates for a trip leaving
// `from` at time `at`, ordered by descending probability. If the exact
// time bucket has no history, all buckets for the origin are pooled
// (backoff), so a known origin always yields a prediction.
func (m *Model) PredictDestination(from PlaceID, at time.Time) []DestinationCandidate {
	byBucket := m.transitions[from]
	if byBucket == nil {
		return nil
	}
	counts := byBucket[BucketOf(at)]
	if len(counts) == 0 {
		// Backoff: pool every bucket.
		counts = make(map[PlaceID]int)
		for _, c := range byBucket {
			for to, n := range c {
				counts[to] += n
			}
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make([]DestinationCandidate, 0, len(counts))
	for to, n := range counts {
		out = append(out, DestinationCandidate{Place: to, Prob: float64(n) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Place < out[j].Place
	})
	return out
}

// TravelTime returns robust travel-time statistics for the (from, to)
// pair: the median and the median absolute deviation, both zero when the
// pair has no history. Served from the build-time precomputation.
func (m *Model) TravelTime(from, to PlaceID) (median, mad time.Duration, ok bool) {
	st, ok := m.stats[[2]PlaceID{from, to}]
	if !ok {
		return 0, 0, false
	}
	return st.median, st.mad, true
}

// RouteLength returns the arc length of the pair's expected route,
// precomputed at build time (it equals ExpectedRoute(...).Length()); ok
// is false when no route sample exists.
func (m *Model) RouteLength(from, to PlaceID) (float64, bool) {
	st, ok := m.stats[[2]PlaceID{from, to}]
	if !ok || st.routeLen == 0 {
		return 0, false
	}
	return st.routeLen, true
}

// ExpectedRoute returns the most recent stored route sample for the pair.
func (m *Model) ExpectedRoute(from, to PlaceID) (geo.Polyline, bool) {
	rs := m.routes[[2]PlaceID{from, to}]
	if len(rs) == 0 {
		return nil, false
	}
	return rs[len(rs)-1], true
}

// routeAffinity scores how well the partial trace matches a stored route:
// exp(-meanDist/300m), 1 for a perfect overlap, →0 as the trace diverges.
func routeAffinity(partial trajectory.Trace, route geo.Polyline) float64 {
	if len(partial) == 0 || len(route) < 2 {
		return 0
	}
	var sum float64
	for _, f := range partial {
		sum += geo.DistanceToPolyline(f.Point, route)
	}
	mean := sum / float64(len(partial))
	return math.Exp(-mean / 300)
}

// Prediction is the proactive-recommendation context for a trip in
// progress: where the listener is going, how confident the model is, how
// much listening time remains (ΔT) and along which route.
type Prediction struct {
	From       PlaceID
	Dest       PlaceID
	Confidence float64
	// DeltaT is the predicted remaining travel time from now.
	DeltaT time.Duration
	// DeltaTMAD is the robust spread of the estimate.
	DeltaTMAD time.Duration
	// Route is the expected full route polyline.
	Route geo.Polyline
	// Progress is the estimated fraction of the route already covered.
	Progress float64
}

// PredictTrip combines the Markov prior with route-prefix evidence from
// the live partial trace. It returns false when the trip's origin cannot
// be matched to a known place or no destination has any support.
func (m *Model) PredictTrip(partial trajectory.Trace, now time.Time) (Prediction, bool) {
	if len(partial) == 0 {
		return Prediction{}, false
	}
	from := m.MatchPlace(partial[0].Point)
	if from == NoPlace {
		return Prediction{}, false
	}
	cands := m.PredictDestination(from, partial[0].Time)
	if len(cands) == 0 {
		return Prediction{}, false
	}
	best := Prediction{From: from, Dest: NoPlace}
	bestScore := -1.0
	var bestPrior float64
	for _, c := range cands {
		score := c.Prob
		route, hasRoute := m.ExpectedRoute(from, c.Place)
		if hasRoute {
			// Posterior ∝ prior × route evidence. A trace far from the
			// stored route suppresses the candidate even with a high
			// prior, which is what disambiguates same-bucket trips.
			score *= 0.2 + 0.8*routeAffinity(partial, route)
		}
		if score > bestScore {
			bestScore = score
			bestPrior = c.Prob
			best.Dest = c.Place
			best.Route = route
		}
	}
	if best.Dest == NoPlace {
		return Prediction{}, false
	}
	best.Confidence = bestPrior
	median, mad, ok := m.TravelTime(from, best.Dest)
	if !ok {
		return Prediction{}, false
	}
	elapsed := now.Sub(partial[0].Time)
	remaining := median - elapsed
	if remaining < 0 {
		remaining = 0
	}
	best.DeltaT = remaining
	best.DeltaTMAD = mad
	if median > 0 {
		best.Progress = math.Min(1, elapsed.Seconds()/median.Seconds())
	}
	return best, true
}
