package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// torino is the reference city of the paper's deployment (Rai, Torino).
var torino = Point{Lat: 45.0703, Lon: 7.6869}

func TestDistanceZero(t *testing.T) {
	if d := Distance(torino, torino); d != 0 {
		t.Fatalf("Distance(p,p) = %v, want 0", d)
	}
}

func TestDistanceKnown(t *testing.T) {
	// Torino -> Milano is roughly 125 km.
	milano := Point{Lat: 45.4642, Lon: 9.19}
	d := Distance(torino, milano)
	if d < 115e3 || d > 135e3 {
		t.Fatalf("Torino-Milano distance = %v m, want ~125 km", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon float64) bool {
		a := Point{Lat: math.Mod(aLat, 89), Lon: math.Mod(aLon, 179)}
		b := Point{Lat: math.Mod(bLat, 89), Lon: math.Mod(bLon, 179)}
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon, cLat, cLon float64) bool {
		a := Point{Lat: math.Mod(aLat, 89), Lon: math.Mod(aLon, 179)}
		b := Point{Lat: math.Mod(bLat, 89), Lon: math.Mod(bLon, 179)}
		c := Point{Lat: math.Mod(cLat, 89), Lon: math.Mod(cLon, 179)}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(brgSeed, distSeed float64) bool {
		brg := math.Mod(math.Abs(brgSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 50000) // up to 50 km
		q := Destination(torino, brg, dist)
		got := Distance(torino, q)
		return math.Abs(got-dist) < 1.0 // within 1 m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a, b := torino, Point{Lat: 45.1, Lon: 7.7}
	if Interpolate(a, b, 0) != a {
		t.Fatal("Interpolate(...,0) != a")
	}
	if Interpolate(a, b, 1) != b {
		t.Fatal("Interpolate(...,1) != b")
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// contains reports whether p lies inside r (inclusive bounds).
func contains(r Rect, p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

func TestRectAroundContainsDisc(t *testing.T) {
	r := RectAround(torino, 5000)
	// Sample points on the 5 km circle; all must be inside the rect.
	for brg := 0.0; brg < 360; brg += 15 {
		p := Destination(torino, brg, 4999)
		if !contains(r, p) {
			t.Fatalf("RectAround misses point at bearing %v: %v", brg, p)
		}
	}
}

func TestRectOperations(t *testing.T) {
	a := Rect{MinLat: 45, MinLon: 7, MaxLat: 46, MaxLon: 8}
	b := Rect{MinLat: 45.5, MinLon: 7.5, MaxLat: 46.5, MaxLon: 8.5}
	if u := a.Union(b); u != (Rect{MinLat: 45, MinLon: 7, MaxLat: 46.5, MaxLon: 8.5}) {
		t.Fatalf("Union = %+v, want the smallest rect holding both", u)
	}
}

func TestRectExtend(t *testing.T) {
	r := PointRect(torino)
	p := Point{Lat: 46, Lon: 8}
	r = r.Extend(p)
	if !contains(r, torino) || !contains(r, p) {
		t.Fatal("Extend must contain both points")
	}
}

func TestPolylineLengthAndAt(t *testing.T) {
	pl := Polyline{
		torino,
		Destination(torino, 90, 1000),
		Destination(Destination(torino, 90, 1000), 90, 1000),
	}
	l := pl.Length()
	if math.Abs(l-2000) > 2 {
		t.Fatalf("Length = %v, want ~2000", l)
	}
	mid := pl.At(0.5)
	if d := Distance(pl[0], mid); math.Abs(d-1000) > 5 {
		t.Fatalf("At(0.5) is %v m along, want ~1000", d)
	}
	if pl.At(0) != pl[0] || pl.At(1) != pl[2] {
		t.Fatal("At endpoints mismatch")
	}
	if pl.At(-1) != pl[0] || pl.At(2) != pl[2] {
		t.Fatal("At clamping mismatch")
	}
}

func TestPolylineAtDegenerate(t *testing.T) {
	if (Polyline{}).At(0.5) != (Point{}) {
		t.Fatal("empty polyline At should be zero point")
	}
	one := Polyline{torino}
	if one.At(0.7) != torino {
		t.Fatal("single-point polyline At should return the point")
	}
}

func TestDistanceToSegment(t *testing.T) {
	a := torino
	b := Destination(a, 90, 2000)
	// Point 300 m north of the segment midpoint.
	mid := Interpolate(a, b, 0.5)
	p := Destination(mid, 0, 300)
	d := DistanceToSegment(p, a, b)
	if math.Abs(d-300) > 5 {
		t.Fatalf("DistanceToSegment = %v, want ~300", d)
	}
	// Beyond the segment end, the distance is to the endpoint.
	q := Destination(b, 90, 500)
	d = DistanceToSegment(q, a, b)
	if math.Abs(d-500) > 5 {
		t.Fatalf("DistanceToSegment beyond end = %v, want ~500", d)
	}
}

func TestDistanceToSegmentDegenerate(t *testing.T) {
	p := Destination(torino, 0, 123)
	d := DistanceToSegment(p, torino, torino)
	if math.Abs(d-123) > 1 {
		t.Fatalf("degenerate segment distance = %v, want ~123", d)
	}
}

func TestDistanceToPolyline(t *testing.T) {
	pl := Polyline{
		torino,
		Destination(torino, 90, 1000),
		Destination(Destination(torino, 90, 1000), 0, 1000),
	}
	p := Destination(torino, 90, 500) // on the first segment
	if d := DistanceToPolyline(p, pl); d > 5 {
		t.Fatalf("on-line point distance = %v, want ~0", d)
	}
	if d := DistanceToPolyline(torino, Polyline{}); !math.IsInf(d, 1) {
		t.Fatal("empty polyline should give +Inf")
	}
	if d := DistanceToPolyline(torino, Polyline{torino}); d != 0 {
		t.Fatalf("single-point polyline distance = %v", d)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{Lat: 1, Lon: 1}, {Lat: 3, Lon: 3}}
	c := Centroid(pts)
	if c.Lat != 2 || c.Lon != 2 {
		t.Fatalf("Centroid = %v", c)
	}
	if Centroid(nil) != (Point{}) {
		t.Fatal("empty centroid should be zero")
	}
}

func TestPolylineBounds(t *testing.T) {
	pl := Polyline{{Lat: 1, Lon: 2}, {Lat: -1, Lon: 5}, {Lat: 3, Lon: 0}}
	b := pl.Bounds()
	want := Rect{MinLat: -1, MinLon: 0, MaxLat: 3, MaxLon: 5}
	if b != want {
		t.Fatalf("Bounds = %+v, want %+v", b, want)
	}
	if (Polyline{}).Bounds() != (Rect{}) {
		t.Fatal("empty bounds should be zero")
	}
}

// oldAt is Polyline.At as it was before Sampler: the whole route's
// length summed again, then walked from the first vertex, on every call.
func oldAt(pl Polyline, f float64) Point {
	switch len(pl) {
	case 0:
		return Point{}
	case 1:
		return pl[0]
	}
	if f <= 0 {
		return pl[0]
	}
	if f >= 1 {
		return pl[len(pl)-1]
	}
	target := pl.Length() * f
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := Distance(pl[i-1], pl[i])
		if walked+seg >= target {
			if seg == 0 {
				return pl[i]
			}
			return Interpolate(pl[i-1], pl[i], (target-walked)/seg)
		}
		walked += seg
	}
	return pl[len(pl)-1]
}

// TestSamplerMatchesOldAt: a Sampler, and Polyline.At over it, return
// the old At's point bit for bit, on random routes with repeated
// vertices, at fractions stepped forward the way a commute trace samples
// its route (ending exactly at 1), then at fractions in random order.
func TestSamplerMatchesOldAt(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl := Polyline{torino}
		for n := 1 + rng.Intn(200); len(pl) < n; {
			p := pl[len(pl)-1]
			if rng.Intn(8) > 0 { // else repeat the vertex: a zero-length segment
				p = Destination(p, rng.Float64()*360, rng.Float64()*400)
			}
			pl = append(pl, p)
		}
		steps := 1 + rng.Intn(300)
		walk := pl.Sampler()
		for k := 0; k <= steps; k++ {
			f := float64(k) / float64(steps)
			if got, want := walk.At(f), oldAt(pl, f); got != want {
				t.Fatalf("seed %d: %d-vertex route at %v/%v: sampler %v, old At %v", seed, len(pl), k, steps, got, want)
			}
		}
		for k := 0; k < 200; k++ {
			f := rng.Float64()*1.2 - 0.1
			if got, want := walk.At(f), oldAt(pl, f); got != want {
				t.Fatalf("seed %d: random fraction %v: sampler %v, old At %v", seed, f, got, want)
			}
			if got, want := pl.At(f), oldAt(pl, f); got != want {
				t.Fatalf("seed %d: Polyline.At(%v) = %v, old At %v", seed, f, got, want)
			}
		}
		if cum := pl.Cumulative(); cum[len(cum)-1] != pl.Length() {
			t.Fatalf("seed %d: cumulative length %v, Length %v", seed, cum[len(cum)-1], pl.Length())
		}
	}
}
