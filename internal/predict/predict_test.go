package predict

import (
	"math"
	"testing"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/trajectory"
)

var torino = geo.Point{Lat: 45.0703, Lon: 7.6869}

// Test fixture: three places — home (0), work (1), gym (2).
func fixturePlaces() []trajectory.StayPoint {
	return []trajectory.StayPoint{
		{Center: torino, Visits: 20},
		{Center: geo.Destination(torino, 60, 9000), Visits: 18},
		{Center: geo.Destination(torino, 200, 4000), Visits: 6},
	}
}

// mondayAt returns a weekday timestamp at the given hour.
func mondayAt(hour int) time.Time {
	return time.Date(2016, 11, 14, hour, 15, 0, 0, time.UTC) // a Monday
}

func saturdayAt(hour int) time.Time {
	return time.Date(2016, 11, 19, hour, 15, 0, 0, time.UTC)
}

// fixtureTrips: mornings home→work (route east), evenings work→home,
// plus weekend home→gym.
func fixtureTrips() []TripRecord {
	var trips []TripRecord
	routeHW := geo.Polyline{torino, geo.Destination(torino, 60, 4500), geo.Destination(torino, 60, 9000)}
	routeWH := geo.Polyline{routeHW[2], routeHW[1], routeHW[0]}
	routeHG := geo.Polyline{torino, geo.Destination(torino, 200, 4000)}
	for day := 0; day < 10; day++ {
		depart := mondayAt(8).AddDate(0, 0, day)
		if wd := depart.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		trips = append(trips,
			TripRecord{From: 0, To: 1, Depart: depart, Duration: 22*time.Minute + time.Duration(day)*time.Minute, Route: routeHW},
			TripRecord{From: 1, To: 0, Depart: depart.Add(9 * time.Hour), Duration: 25 * time.Minute, Route: routeWH},
		)
	}
	trips = append(trips,
		TripRecord{From: 0, To: 2, Depart: saturdayAt(9), Duration: 12 * time.Minute, Route: routeHG},
		TripRecord{From: 0, To: 2, Depart: saturdayAt(9).AddDate(0, 0, 7), Duration: 13 * time.Minute, Route: routeHG},
	)
	return trips
}

func fixtureModel() *Model {
	return BuildModel(fixturePlaces(), fixtureTrips(), 200)
}

func TestBucketOf(t *testing.T) {
	if b1, b2 := BucketOf(mondayAt(7)), BucketOf(mondayAt(9)); b1 != b2 {
		t.Fatalf("7am and 9am should share the morning bucket: %d vs %d", b1, b2)
	}
	if b1, b2 := BucketOf(mondayAt(8)), BucketOf(mondayAt(14)); b1 == b2 {
		t.Fatal("morning and afternoon should differ")
	}
	if b1, b2 := BucketOf(mondayAt(8)), BucketOf(saturdayAt(8)); b1 == b2 {
		t.Fatal("weekday and weekend should differ")
	}
	for h := 0; h < 24; h++ {
		b := BucketOf(mondayAt(h))
		if b < 0 || int(b) >= 2*bucketsPerDay {
			t.Fatalf("bucket out of range at hour %d: %d", h, b)
		}
	}
}

func TestMatchPlace(t *testing.T) {
	m := fixtureModel()
	if got := m.MatchPlace(geo.Destination(torino, 10, 50)); got != 0 {
		t.Fatalf("near-home match = %d", got)
	}
	if got := m.MatchPlace(geo.Destination(torino, 10, 5000)); got != NoPlace {
		t.Fatalf("far point matched place %d", got)
	}
}

func TestPredictDestinationMorning(t *testing.T) {
	m := fixtureModel()
	cands := m.PredictDestination(0, mondayAt(8))
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Place != 1 {
		t.Fatalf("morning prediction = %d, want work (1)", cands[0].Place)
	}
	if cands[0].Prob < 0.99 {
		t.Fatalf("morning home→work prob = %v, want ~1", cands[0].Prob)
	}
}

func TestPredictDestinationWeekend(t *testing.T) {
	m := fixtureModel()
	cands := m.PredictDestination(0, saturdayAt(9))
	if len(cands) == 0 || cands[0].Place != 2 {
		t.Fatalf("weekend prediction = %+v, want gym (2)", cands)
	}
}

func TestPredictDestinationBackoff(t *testing.T) {
	m := fixtureModel()
	// 3am weekday: no direct history; backoff must pool all buckets and
	// still return work as the dominant destination.
	cands := m.PredictDestination(0, mondayAt(3))
	if len(cands) == 0 {
		t.Fatal("backoff returned nothing")
	}
	if cands[0].Place != 1 {
		t.Fatalf("backoff top = %d, want 1", cands[0].Place)
	}
	// Probabilities sum to 1.
	var sum float64
	for _, c := range cands {
		sum += c.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestPredictDestinationUnknownOrigin(t *testing.T) {
	m := fixtureModel()
	if cands := m.PredictDestination(99, mondayAt(8)); cands != nil {
		t.Fatalf("unknown origin yielded %+v", cands)
	}
}

func TestTravelTimeStats(t *testing.T) {
	m := fixtureModel()
	median, mad, ok := m.TravelTime(0, 1)
	if !ok {
		t.Fatal("no stats for home→work")
	}
	if median < 20*time.Minute || median > 30*time.Minute {
		t.Fatalf("median = %v", median)
	}
	if mad > 5*time.Minute {
		t.Fatalf("mad = %v", mad)
	}
	if _, _, ok := m.TravelTime(2, 1); ok {
		t.Fatal("gym→work should have no stats")
	}
}

func TestExpectedRoute(t *testing.T) {
	m := fixtureModel()
	r, ok := m.ExpectedRoute(0, 1)
	if !ok || len(r) < 2 {
		t.Fatalf("route = %v ok=%v", r, ok)
	}
	if _, ok := m.ExpectedRoute(2, 0); ok {
		t.Fatal("unexpected route for gym→home")
	}
}

// partialTrace simulates the first minutes of a drive along a bearing.
func partialTrace(start time.Time, bearing float64, minutes int) trajectory.Trace {
	var tr trajectory.Trace
	p := torino
	for i := 0; i <= minutes; i++ {
		tr = append(tr, trajectory.Fix{Point: p, Time: start.Add(time.Duration(i) * time.Minute)})
		p = geo.Destination(p, bearing, 400) // ~24 km/h
	}
	return tr
}

func TestPredictTripMorningCommute(t *testing.T) {
	m := fixtureModel()
	start := mondayAt(8)
	partial := partialTrace(start, 60, 4) // 4 minutes toward work
	pred, ok := m.PredictTrip(partial, start.Add(4*time.Minute))
	if !ok {
		t.Fatal("no prediction")
	}
	if pred.From != 0 || pred.Dest != 1 {
		t.Fatalf("predicted %d→%d, want 0→1", pred.From, pred.Dest)
	}
	if pred.DeltaT <= 0 || pred.DeltaT > 30*time.Minute {
		t.Fatalf("DeltaT = %v", pred.DeltaT)
	}
	if pred.Confidence < 0.9 {
		t.Fatalf("Confidence = %v", pred.Confidence)
	}
	if pred.Progress <= 0 || pred.Progress >= 1 {
		t.Fatalf("Progress = %v", pred.Progress)
	}
	if len(pred.Route) < 2 {
		t.Fatalf("Route = %v", pred.Route)
	}
}

func TestPredictTripRouteEvidenceDisambiguates(t *testing.T) {
	// Two destinations leave home in the same bucket with equal priors;
	// the live trace heading matches only one stored route.
	places := fixturePlaces()
	routeEast := geo.Polyline{torino, geo.Destination(torino, 60, 9000)}
	routeSouth := geo.Polyline{torino, geo.Destination(torino, 200, 4000)}
	var trips []TripRecord
	for i := 0; i < 5; i++ {
		d := mondayAt(8).AddDate(0, 0, i*7) // same weekday bucket
		trips = append(trips,
			TripRecord{From: 0, To: 1, Depart: d, Duration: 20 * time.Minute, Route: routeEast},
			TripRecord{From: 0, To: 2, Depart: d, Duration: 10 * time.Minute, Route: routeSouth},
		)
	}
	m := BuildModel(places, trips, 200)
	start := mondayAt(8)
	partial := partialTrace(start, 200, 3) // heading south
	pred, ok := m.PredictTrip(partial, start.Add(3*time.Minute))
	if !ok {
		t.Fatal("no prediction")
	}
	if pred.Dest != 2 {
		t.Fatalf("route evidence failed: predicted %d, want 2 (south)", pred.Dest)
	}
}

func TestPredictTripUnknownOrigin(t *testing.T) {
	m := fixtureModel()
	far := geo.Destination(torino, 90, 50000)
	tr := trajectory.Trace{{Point: far, Time: mondayAt(8)}}
	if _, ok := m.PredictTrip(tr, mondayAt(8)); ok {
		t.Fatal("prediction from unknown origin")
	}
	if _, ok := m.PredictTrip(nil, mondayAt(8)); ok {
		t.Fatal("prediction from empty trace")
	}
}

func TestPredictTripDeltaTShrinks(t *testing.T) {
	m := fixtureModel()
	start := mondayAt(8)
	early, _ := m.PredictTrip(partialTrace(start, 60, 2), start.Add(2*time.Minute))
	late, _ := m.PredictTrip(partialTrace(start, 60, 10), start.Add(10*time.Minute))
	if late.DeltaT >= early.DeltaT {
		t.Fatalf("DeltaT should shrink: early=%v late=%v", early.DeltaT, late.DeltaT)
	}
}

func TestPredictTripElapsedBeyondMedian(t *testing.T) {
	m := fixtureModel()
	start := mondayAt(8)
	pred, ok := m.PredictTrip(partialTrace(start, 60, 3), start.Add(2*time.Hour))
	if !ok {
		t.Fatal("no prediction")
	}
	if pred.DeltaT != 0 {
		t.Fatalf("DeltaT = %v, want 0 when past median", pred.DeltaT)
	}
	if pred.Progress != 1 {
		t.Fatalf("Progress = %v, want 1", pred.Progress)
	}
}

func TestBuildModelIgnoresDegenerateTrips(t *testing.T) {
	places := fixturePlaces()
	trips := []TripRecord{
		{From: NoPlace, To: 1, Depart: mondayAt(8), Duration: time.Minute},
		{From: 0, To: NoPlace, Depart: mondayAt(8), Duration: time.Minute},
		{From: 0, To: 0, Depart: mondayAt(8), Duration: time.Minute},
	}
	m := BuildModel(places, trips, 0) // also exercises default radius
	if cands := m.PredictDestination(0, mondayAt(8)); cands != nil {
		t.Fatalf("degenerate trips produced transitions: %+v", cands)
	}
}

func BenchmarkPredictTrip(b *testing.B) {
	m := fixtureModel()
	start := mondayAt(8)
	partial := partialTrace(start, 60, 5)
	now := start.Add(5 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.PredictTrip(partial, now); !ok {
			b.Fatal("no prediction")
		}
	}
}
