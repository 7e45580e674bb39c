package trajectory

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"pphcr/internal/geo"
)

var torino = geo.Point{Lat: 45.0703, Lon: 7.6869}

// lineTrace builds a straight eastward trace with fixes every stepMeters
// and stepTime.
func lineTrace(start geo.Point, n int, stepMeters float64, stepTime time.Duration) Trace {
	t0 := time.Date(2016, 11, 15, 8, 0, 0, 0, time.UTC)
	tr := make(Trace, n)
	p := start
	for i := 0; i < n; i++ {
		tr[i] = Fix{Point: p, Time: t0.Add(time.Duration(i) * stepTime)}
		p = geo.Destination(p, 90, stepMeters)
	}
	return tr
}

func TestTraceBasics(t *testing.T) {
	tr := lineTrace(torino, 11, 100, 10*time.Second)
	if got := tr.Duration(); got != 100*time.Second {
		t.Fatalf("Duration = %v", got)
	}
	if got := tr.Length(); math.Abs(got-1000) > 2 {
		t.Fatalf("Length = %v, want ~1000", got)
	}
	if got := tr.AverageSpeed(); math.Abs(got-10) > 0.1 {
		t.Fatalf("AverageSpeed = %v, want ~10", got)
	}
}

func TestTraceDegenerate(t *testing.T) {
	var empty Trace
	if empty.Duration() != 0 || empty.Length() != 0 || empty.AverageSpeed() != 0 {
		t.Fatal("empty trace should be all zeros")
	}
	one := lineTrace(torino, 1, 0, time.Second)
	if one.Duration() != 0 || one.AverageSpeed() != 0 {
		t.Fatal("single-fix trace should be zero")
	}
}

// TestHead: a drive's head keeps every fix up to d after the first, and
// an append to the head cannot write into the trace it was cut from.
func TestHead(t *testing.T) {
	tr := lineTrace(torino, 11, 100, 10*time.Second)
	if got := len(tr.Head(30 * time.Second)); got != 4 {
		t.Fatalf("Head(30s) holds %d fixes, want 4: the fix 30 s in is kept", got)
	}
	if got := len(tr.Head(30*time.Second - time.Nanosecond)); got != 3 {
		t.Fatalf("Head(30s-1ns) holds %d fixes, want 3: the fix 1 ns past d is not", got)
	}
	if got := len(Trace(nil).Head(time.Hour)); got != 0 {
		t.Fatalf("empty trace's head holds %d fixes", got)
	}
	before := slices.Clone(tr)
	_ = append(tr.Head(30*time.Second), Fix{Point: geo.Point{Lat: 1, Lon: 1}})
	if !slices.Equal(tr, before) {
		t.Fatal("appending to a head wrote into the full trace")
	}
}

func TestRDPStraightLineCollapses(t *testing.T) {
	pl := lineTrace(torino, 50, 100, time.Second).Points()
	out := RDP(pl, 5)
	if len(out) != 2 {
		t.Fatalf("straight line simplified to %d points, want 2", len(out))
	}
	if out[0] != pl[0] || out[1] != pl[len(pl)-1] {
		t.Fatal("endpoints not preserved")
	}
}

func TestRDPKeepsCorner(t *testing.T) {
	// L-shaped path: east 1 km then north 1 km.
	var pl geo.Polyline
	p := torino
	for i := 0; i < 10; i++ {
		pl = append(pl, p)
		p = geo.Destination(p, 90, 100)
	}
	for i := 0; i < 10; i++ {
		pl = append(pl, p)
		p = geo.Destination(p, 0, 100)
	}
	out := RDP(pl, 10)
	if len(out) != 3 {
		t.Fatalf("L-shape simplified to %d points, want 3", len(out))
	}
	// The middle point must be near the corner.
	corner := pl[10]
	if d := geo.Distance(out[1], corner); d > 150 {
		t.Fatalf("kept point %v is %v m from corner", out[1], d)
	}
}

func TestRDPProperties(t *testing.T) {
	// Properties: output is a subsequence of input; endpoints kept; every
	// dropped point is within epsilon of the simplified line.
	f := func(seed int64, nRaw uint8, epsRaw uint8) bool {
		n := int(nRaw%80) + 3
		eps := float64(epsRaw%200) + 5
		rng := rand.New(rand.NewSource(seed))
		pl := make(geo.Polyline, n)
		p := torino
		for i := range pl {
			pl[i] = p
			p = geo.Destination(p, rng.Float64()*360, 50+rng.Float64()*200)
		}
		out := RDP(pl, eps)
		if len(out) < 2 {
			return false
		}
		if out[0] != pl[0] || out[len(out)-1] != pl[len(pl)-1] {
			return false
		}
		// Subsequence check.
		j := 0
		for i := 0; i < len(pl) && j < len(out); i++ {
			if pl[i] == out[j] {
				j++
			}
		}
		if j != len(out) {
			return false
		}
		// Error-bound check: every original point is within eps of the
		// simplified polyline (with a small numeric cushion).
		for _, q := range pl {
			if geo.DistanceToPolyline(q, out) > eps+1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRDPShortInputs(t *testing.T) {
	if got := RDP(nil, 10); len(got) != 0 {
		t.Fatal("nil input should return empty")
	}
	pl := geo.Polyline{torino}
	if got := RDP(pl, 10); len(got) != 1 {
		t.Fatal("single point should be preserved")
	}
	pl2 := geo.Polyline{torino, geo.Destination(torino, 90, 100)}
	got := RDP(pl2, 10)
	if len(got) != 2 {
		t.Fatal("two points should be preserved")
	}
	// Result must be a copy, not an alias.
	got[0] = geo.Point{}
	if pl2[0] == (geo.Point{}) {
		t.Fatal("RDP result aliases input")
	}
}

func TestComplexityOrdering(t *testing.T) {
	// A straight run scores near 0; a dense zig-zag scores high.
	straight := lineTrace(torino, 50, 200, time.Second).Points()
	var zigzag geo.Polyline
	p := torino
	for i := 0; i < 40; i++ {
		zigzag = append(zigzag, p)
		brg := 90.0
		if i%2 == 1 {
			brg = 0
		}
		p = geo.Destination(p, brg, 150)
	}
	cs := Complexity(straight, 20)
	cz := Complexity(zigzag, 20)
	if cs > 0.05 {
		t.Fatalf("straight complexity = %v, want ~0", cs)
	}
	if cz < 0.5 {
		t.Fatalf("zigzag complexity = %v, want > 0.5", cz)
	}
	if cz <= cs {
		t.Fatal("zigzag must be more complex than straight")
	}
	if c := Complexity(straight[:2], 20); c != 0 {
		t.Fatalf("degenerate complexity = %v", c)
	}
}

func TestComplexityBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pl := make(geo.Polyline, 30)
		p := torino
		for i := range pl {
			pl[i] = p
			p = geo.Destination(p, rng.Float64()*360, 20+rng.Float64()*100)
		}
		c := Complexity(pl, 15)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentTrips(t *testing.T) {
	t0 := time.Date(2016, 11, 15, 8, 0, 0, 0, time.UTC)
	var tr Trace
	// Trip 1: 10 fixes, 10 s apart.
	p := torino
	for i := 0; i < 10; i++ {
		tr = append(tr, Fix{Point: p, Time: t0.Add(time.Duration(i) * 10 * time.Second)})
		p = geo.Destination(p, 90, 100)
	}
	// 2 hour gap, then trip 2: 5 fixes.
	t1 := t0.Add(2 * time.Hour)
	for i := 0; i < 5; i++ {
		tr = append(tr, Fix{Point: p, Time: t1.Add(time.Duration(i) * 10 * time.Second)})
		p = geo.Destination(p, 0, 100)
	}
	trips := SegmentTrips(tr, 10*time.Minute, 3)
	if len(trips) != 2 {
		t.Fatalf("got %d trips, want 2", len(trips))
	}
	if len(trips[0]) != 10 || len(trips[1]) != 5 {
		t.Fatalf("trip sizes %d/%d", len(trips[0]), len(trips[1]))
	}
}

func TestSegmentTripsDiscardFragments(t *testing.T) {
	t0 := time.Date(2016, 11, 15, 8, 0, 0, 0, time.UTC)
	tr := Trace{
		{Point: torino, Time: t0},
		{Point: torino, Time: t0.Add(time.Second)},
		// gap
		{Point: torino, Time: t0.Add(time.Hour)},
	}
	trips := SegmentTrips(tr, 10*time.Minute, 3)
	if len(trips) != 0 {
		t.Fatalf("fragments should be discarded, got %d trips", len(trips))
	}
	if got := SegmentTrips(nil, time.Minute, 1); got != nil {
		t.Fatal("empty trace should return nil")
	}
}

func TestExtractStayPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	home := torino
	work := geo.Destination(torino, 45, 8000)
	var endpoints []geo.Point
	for i := 0; i < 14; i++ { // 14 visits each, with 50 m parking scatter
		endpoints = append(endpoints,
			geo.Destination(home, rng.Float64()*360, rng.Float64()*50),
			geo.Destination(work, rng.Float64()*360, rng.Float64()*50))
	}
	// A couple of one-off destinations (noise).
	endpoints = append(endpoints,
		geo.Destination(torino, 180, 20000),
		geo.Destination(torino, 270, 25000))

	sps := ExtractStayPoints(endpoints, DefaultStayPointParams())
	if len(sps) != 2 {
		t.Fatalf("got %d stay points, want 2", len(sps))
	}
	for _, sp := range sps {
		if sp.Visits != 14 {
			t.Fatalf("visits = %d, want 14", sp.Visits)
		}
		dHome := geo.Distance(sp.Center, home)
		dWork := geo.Distance(sp.Center, work)
		if dHome > 100 && dWork > 100 {
			t.Fatalf("stay point %v not near home or work", sp.Center)
		}
	}
}

func TestExtractStayPointsEdgeCases(t *testing.T) {
	if got := ExtractStayPoints(nil, DefaultStayPointParams()); got != nil {
		t.Fatal("empty input should return nil")
	}
	// Bad params fall back to defaults rather than panicking.
	pts := []geo.Point{torino, torino, torino, torino}
	got := ExtractStayPoints(pts, StayPointParams{})
	if len(got) != 1 || got[0].Visits != 4 {
		t.Fatalf("fallback params result: %+v", got)
	}
}

func TestNearestStayPoint(t *testing.T) {
	sps := []StayPoint{
		{Center: torino, Visits: 5},
		{Center: geo.Destination(torino, 90, 5000), Visits: 3},
	}
	idx, d := NearestStayPoint(sps, geo.Destination(torino, 90, 4800))
	if idx != 1 {
		t.Fatalf("nearest = %d, want 1", idx)
	}
	if d > 300 {
		t.Fatalf("distance = %v", d)
	}
	idx, d = NearestStayPoint(nil, torino)
	if idx != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty list: %d, %v", idx, d)
	}
}

func BenchmarkRDP1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pl := make(geo.Polyline, 1000)
	p := torino
	for i := range pl {
		pl[i] = p
		p = geo.Destination(p, rng.Float64()*360, 30+rng.Float64()*50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RDP(pl, 25)
	}
}

func BenchmarkExtractStayPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pts []geo.Point
	for c := 0; c < 10; c++ {
		center := geo.Destination(torino, float64(c)*36, 5000)
		for i := 0; i < 50; i++ {
			pts = append(pts, geo.Destination(center, rng.Float64()*360, rng.Float64()*60))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractStayPoints(pts, DefaultStayPointParams())
	}
}
