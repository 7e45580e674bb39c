// Package trackingtest holds what the fold tests share: seeded commute
// histories, and the oracle they compare compaction against — the full
// recompaction that re-reads every fix, as compaction ran before closed
// trips were folded, with its own copy of the parameters and of the
// breadth-first stay-point clustering.
package trackingtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"pphcr/internal/cluster"
	"pphcr/internal/geo"
	"pphcr/internal/predict"
	"pphcr/internal/spatial"
	"pphcr/internal/tracking"
	"pphcr/internal/trajectory"
)

// The compaction parameters, as tracking's constants were first set.
const (
	TripGap           = 20 * time.Minute
	MinFixes          = 5
	rdpEpsilonMeters  = 30
	matchRadiusMeters = 200
	stayEpsMeters     = 150
	stayMinPts        = 3
)

var (
	torino = geo.Point{Lat: 45.0703, Lon: 7.6869}
	t0     = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC) // Monday
)

// Shape counts what generated histories exercise.
type Shape struct {
	ExactGaps, JustShortGaps, Fragments int
}

// History is one listener's seeded fixes: home→work mornings and
// work→home (or gym) evenings of 41 noisy fixes, some legs starting
// exactly TripGap after the last fix (a trip boundary) or a nanosecond
// sooner (none), stray fragments shorter than MinFixes, and the odd
// repeated timestamp. It counts what it generated into shape.
func History(seed int64, shape *Shape) trajectory.Trace {
	rng := rand.New(rand.NewSource(seed))
	home := geo.Destination(torino, rng.Float64()*360, rng.Float64()*3000)
	work := geo.Destination(home, rng.Float64()*360, 3000+rng.Float64()*9000)
	gym := geo.Destination(work, rng.Float64()*360, 2000+rng.Float64()*3000)
	var fixes trajectory.Trace
	last := t0
	leg := func(from, to geo.Point, start time.Time, n int) {
		if start.Before(last) {
			start = last
		}
		step := time.Duration(20+rng.Intn(20)) * time.Second
		for i := 0; i < n; i++ {
			f := float64(i) / float64(max(n-1, 1))
			p := geo.Destination(geo.Interpolate(from, to, f), rng.Float64()*360, rng.Float64()*15)
			at := start.Add(time.Duration(i) * step)
			if i > 0 && rng.Intn(40) == 0 {
				at = last // a repeated timestamp
			}
			fixes = append(fixes, trajectory.Fix{Point: p, Time: at})
			last = at
		}
	}
	after := func() time.Time {
		switch rng.Intn(6) {
		case 0:
			shape.ExactGaps++
			return last.Add(TripGap)
		case 1:
			shape.JustShortGaps++
			return last.Add(TripGap - time.Nanosecond)
		}
		return time.Time{} // the leg's own schedule
	}
	days := 1 + rng.Intn(10)
	for d := 0; d < days; d++ {
		day := t0.AddDate(0, 0, d)
		start := day.Add(7*time.Hour + time.Duration(rng.Intn(90))*time.Minute)
		if s := after(); !s.IsZero() {
			start = s
		}
		leg(home, work, start, 41)
		if rng.Intn(4) == 0 {
			shape.Fragments++
			leg(work, work, last.Add(TripGap+time.Duration(rng.Intn(60))*time.Minute), 1+rng.Intn(MinFixes-1))
		}
		start = day.Add(17*time.Hour + time.Duration(rng.Intn(120))*time.Minute)
		if s := after(); !s.IsZero() {
			start = s
		}
		to := home
		if rng.Intn(5) == 0 {
			to = gym
		}
		leg(work, to, start, 41)
	}
	return fixes
}

// Recompact builds the compact model of raw, a user's fixes from the
// first one, by segmenting, clustering and simplifying all of them.
func Recompact(raw trajectory.Trace) (*tracking.CompactModel, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("trackingtest: no fixes")
	}
	trips := trajectory.SegmentTrips(raw, TripGap, MinFixes)
	if len(trips) == 0 {
		return nil, fmt.Errorf("trackingtest: no trips after segmentation")
	}
	var endpoints []geo.Point
	for _, trip := range trips {
		endpoints = append(endpoints, trip[0].Point, trip[len(trip)-1].Point)
	}
	stayPoints := extractStayPoints(endpoints)

	model := &tracking.CompactModel{
		StayPoints: stayPoints,
		Frequency:  make(map[[2]predict.PlaceID]int),
	}
	var records []predict.TripRecord
	for _, trip := range trips {
		pl := trip.Points()
		simplified := trajectory.RDP(pl, rdpEpsilonMeters)
		from := matchPlace(stayPoints, trip[0].Point)
		to := matchPlace(stayPoints, trip[len(trip)-1].Point)
		ct := tracking.CompactTrip{
			From:       from,
			To:         to,
			Depart:     trip[0].Time,
			Duration:   trip.Duration(),
			Route:      simplified,
			AvgSpeed:   trip.AverageSpeed(),
			Complexity: complexity(pl),
		}
		model.Trips = append(model.Trips, ct)
		if from != predict.NoPlace && to != predict.NoPlace && from != to {
			model.Frequency[[2]predict.PlaceID{from, to}]++
		}
		records = append(records, predict.TripRecord{
			From: from, To: to,
			Depart:   ct.Depart,
			Duration: ct.Duration,
			Route:    simplified,
		})
	}
	model.Mobility = predict.BuildModel(stayPoints, records, matchRadiusMeters)
	return model, nil
}

// complexity runs RDP a second time, on the raw points, as compaction
// did before it scored the route it had already simplified.
func complexity(pl geo.Polyline) float64 {
	if len(pl) < 3 {
		return 0
	}
	simplified := trajectory.RDP(pl, rdpEpsilonMeters)
	lengthKm := simplified.Length() / 1000
	if lengthKm <= 0 {
		return 0
	}
	score := float64(len(simplified)-2) / lengthKm / 6.0
	if score > 1 {
		score = 1
	}
	return score
}

// extractStayPoints is breadth-first DBSCAN over spatial.Grid ε-queries.
func extractStayPoints(candidates []geo.Point) []trajectory.StayPoint {
	grid := spatial.NewGrid(stayEpsMeters, candidates[0].Lat)
	for i, p := range candidates {
		grid.Insert(p, i)
	}
	labels := cluster.DBSCAN(len(candidates), stayMinPts, func(i int) []int {
		return grid.Within(candidates[i], stayEpsMeters, nil)
	})
	groups, _ := cluster.Groups(labels)
	out := make([]trajectory.StayPoint, 0, len(groups))
	for _, g := range groups {
		pts := make([]geo.Point, len(g))
		for i, idx := range g {
			pts[i] = candidates[idx]
		}
		out = append(out, trajectory.StayPoint{Center: geo.Centroid(pts), Visits: len(g)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		if out[i].Center.Lat != out[j].Center.Lat {
			return out[i].Center.Lat < out[j].Center.Lat
		}
		return out[i].Center.Lon < out[j].Center.Lon
	})
	return out
}

func matchPlace(points []trajectory.StayPoint, p geo.Point) predict.PlaceID {
	idx, d := trajectory.NearestStayPoint(points, p)
	if idx < 0 || d > matchRadiusMeters {
		return predict.NoPlace
	}
	return predict.PlaceID(idx)
}

// Diff describes the first difference between two models, comparing
// every float as its IEEE-754 bits, or returns "" when they are
// identical.
func Diff(a, b *tracking.CompactModel) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("model %v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return ""
	}
	if len(a.StayPoints) != len(b.StayPoints) {
		return fmt.Sprintf("%d vs %d stay points", len(a.StayPoints), len(b.StayPoints))
	}
	for i := range a.StayPoints {
		x, y := a.StayPoints[i], b.StayPoints[i]
		if x.Visits != y.Visits || !samePoint(x.Center, y.Center) {
			return fmt.Sprintf("stay point %d: %+v vs %+v", i, x, y)
		}
	}
	if len(a.Trips) != len(b.Trips) {
		return fmt.Sprintf("%d vs %d trips", len(a.Trips), len(b.Trips))
	}
	for i := range a.Trips {
		x, y := a.Trips[i], b.Trips[i]
		if x.From != y.From || x.To != y.To || x.Duration != y.Duration ||
			x.Depart != y.Depart || !sameBits(x.AvgSpeed, y.AvgSpeed) ||
			!sameBits(x.Complexity, y.Complexity) || !sameRoute(x.Route, y.Route) {
			return fmt.Sprintf("trip %d: %+v vs %+v", i, x, y)
		}
	}
	if !reflect.DeepEqual(a.Frequency, b.Frequency) {
		return fmt.Sprintf("frequency %v vs %v", a.Frequency, b.Frequency)
	}
	// The mobility model is a function of the stay points and trips
	// compared above; this catches a model built from anything else.
	if !reflect.DeepEqual(a.Mobility, b.Mobility) {
		return "mobility models differ"
	}
	return ""
}

// Digest hashes a model's stay points, trips and frequencies, every
// float as its IEEE-754 bits. The mobility model is a function of them.
func Digest(m *tracking.CompactModel) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, v) // a hash.Hash never fails a write
		}
	}
	putPoint := func(p geo.Point) { put(math.Float64bits(p.Lat), math.Float64bits(p.Lon)) }
	put(uint64(len(m.StayPoints)))
	for _, sp := range m.StayPoints {
		putPoint(sp.Center)
		put(uint64(sp.Visits))
	}
	put(uint64(len(m.Trips)))
	for _, tr := range m.Trips {
		put(uint64(tr.From), uint64(tr.To), uint64(tr.Depart.UnixNano()), uint64(tr.Duration),
			math.Float64bits(tr.AvgSpeed), math.Float64bits(tr.Complexity), uint64(len(tr.Route)))
		for _, p := range tr.Route {
			putPoint(p)
		}
	}
	pairs := make([][2]predict.PlaceID, 0, len(m.Frequency))
	for k := range m.Frequency {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, k := range pairs {
		put(uint64(k[0]), uint64(k[1]), uint64(m.Frequency[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoint(a, b geo.Point) bool { return sameBits(a.Lat, b.Lat) && sameBits(a.Lon, b.Lon) }

func sameRoute(a, b geo.Polyline) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePoint(a[i], b[i]) {
			return false
		}
	}
	return true
}
