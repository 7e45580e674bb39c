package distraction

import (
	"testing"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/roadnet"
)

var torino = geo.Point{Lat: 45.0703, Lon: 7.6869}

// fixture: 10 km route at 10 m/s (1000 s) with an intersection at 2 km
// (t=200s) and a roundabout at 6 km (t=600s).
func fixtureTimeline(complexity float64) Timeline {
	junctions := []roadnet.RouteJunction{
		{Kind: roadnet.Intersection, Point: torino, DistAlong: 2000},
		{Kind: roadnet.Roundabout, Point: torino, DistAlong: 6000},
	}
	return Build(junctions, 10000, 10, complexity, DefaultParams())
}

func TestBuildBasics(t *testing.T) {
	tl := fixtureTimeline(0.2)
	if tl.TripDuration != 1000*time.Second {
		t.Fatalf("TripDuration = %v", tl.TripDuration)
	}
	if len(tl.Windows) != 2 {
		t.Fatalf("windows = %d", len(tl.Windows))
	}
	// Default params: approach 120 m, clear 60 m at 10 m/s → window
	// [188s, 206s] for the intersection.
	w := tl.Windows[0]
	if w.Start != 188*time.Second || w.End != 206*time.Second {
		t.Fatalf("window = [%v, %v]", w.Start, w.End)
	}
	if w.Level != LevelIntersection || w.Cause != "intersection" {
		t.Fatalf("window = %+v", w)
	}
	if tl.Windows[1].Level != LevelRoundabout {
		t.Fatal("roundabout level wrong")
	}
	base := Level(0.15 + 0.35*0.2)
	if diff := float64(tl.Base - base); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Base = %v, want %v", tl.Base, base)
	}
}

func TestAtLevels(t *testing.T) {
	tl := fixtureTimeline(0.2)
	if got := tl.At(100 * time.Second); got != tl.Base {
		t.Fatalf("calm At = %v", got)
	}
	if got := tl.At(200 * time.Second); got != LevelIntersection {
		t.Fatalf("intersection At = %v", got)
	}
	if got := tl.At(600 * time.Second); got != LevelRoundabout {
		t.Fatalf("roundabout At = %v", got)
	}
	// Window end is exclusive.
	if got := tl.At(206 * time.Second); got != tl.Base {
		t.Fatalf("after window At = %v", got)
	}
}

func TestCalmAtAndNextCalm(t *testing.T) {
	tl := fixtureTimeline(0.2)
	const thr = 0.65
	if !tl.CalmAt(0, thr) {
		t.Fatal("start should be calm")
	}
	if tl.CalmAt(200*time.Second, thr) {
		t.Fatal("intersection should not be calm")
	}
	calm, ok := tl.NextCalm(200*time.Second, thr)
	if !ok || calm != 206*time.Second {
		t.Fatalf("NextCalm = %v, %v", calm, ok)
	}
	// Already calm: returns the input.
	calm, ok = tl.NextCalm(100*time.Second, thr)
	if !ok || calm != 100*time.Second {
		t.Fatalf("NextCalm on calm = %v, %v", calm, ok)
	}
	// Past trip end: not ok.
	if _, ok := tl.NextCalm(1001*time.Second, thr); ok {
		t.Fatal("NextCalm past end should fail")
	}
}

func TestNextCalmBaseAboveThreshold(t *testing.T) {
	tl := fixtureTimeline(1.0) // base = 0.5
	if _, ok := tl.NextCalm(0, 0.4); ok {
		t.Fatal("base above threshold should never be calm")
	}
}

func TestJunctionAtRouteEdges(t *testing.T) {
	junctions := []roadnet.RouteJunction{
		{Kind: roadnet.Intersection, DistAlong: 50}, // clamped at start
		{Kind: roadnet.Roundabout, DistAlong: 4990}, // clamped at end
	}
	tl := Build(junctions, 5000, 10, 0, DefaultParams())
	if tl.Windows[0].Start != 0 {
		t.Fatalf("start clamp: %v", tl.Windows[0].Start)
	}
	if tl.Windows[1].End != tl.TripDuration {
		t.Fatalf("end clamp: %v vs %v", tl.Windows[1].End, tl.TripDuration)
	}
}

func TestBuildFallbacks(t *testing.T) {
	// Zero params → defaults; zero speed → fallback speed.
	tl := Build(nil, 1000, 0, 0, Params{})
	if tl.TripDuration != 100*time.Second {
		t.Fatalf("fallback speed TripDuration = %v", tl.TripDuration)
	}
	if tl.Base != DefaultParams().BaseFloor {
		t.Fatalf("Base = %v", tl.Base)
	}
}

func TestWindowsSorted(t *testing.T) {
	junctions := []roadnet.RouteJunction{
		{Kind: roadnet.Intersection, DistAlong: 5000},
		{Kind: roadnet.Intersection, DistAlong: 1000},
		{Kind: roadnet.Roundabout, DistAlong: 3000},
	}
	tl := Build(junctions, 8000, 10, 0, DefaultParams())
	for i := 1; i < len(tl.Windows); i++ {
		if tl.Windows[i].Start < tl.Windows[i-1].Start {
			t.Fatal("windows not sorted")
		}
	}
}
