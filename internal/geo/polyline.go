package geo

import "math"

// Polyline is an ordered sequence of points, e.g. a route or a simplified
// trajectory.
type Polyline []Point

// Length returns the total great-circle length of the polyline in meters.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += Distance(pl[i-1], pl[i])
	}
	return total
}

// Bounds returns the bounding box of the polyline. It returns the zero
// Rect for an empty polyline.
func (pl Polyline) Bounds() Rect {
	if len(pl) == 0 {
		return Rect{}
	}
	r := PointRect(pl[0])
	for _, p := range pl[1:] {
		r = r.Extend(p)
	}
	return r
}

// Cumulative returns the arc length from the first vertex to each
// vertex. cum[len-1] equals Length() exactly: the same additions in the
// same order.
func (pl Polyline) Cumulative() []float64 {
	cum := make([]float64, len(pl))
	for i := 1; i < len(pl); i++ {
		cum[i] = cum[i-1] + Distance(pl[i-1], pl[i])
	}
	return cum
}

// At returns the point a fraction f ∈ [0,1] along the polyline by arc
// length. f is clamped to [0,1]. An empty polyline yields the zero Point;
// a single-point polyline yields that point. To sample one polyline many
// times, use a Sampler.
func (pl Polyline) At(f float64) Point {
	return pl.Sampler().At(f)
}

// Sampler samples a polyline at fractions of its arc length. It sums the
// arc lengths once and walks a cursor forward, so n samples taken at
// non-decreasing fractions of a v-vertex polyline cost O(v + n), where n
// calls of Polyline.At cost O(v·n).
type Sampler struct {
	pl  Polyline
	cum []float64
	i   int // every vertex before i lies short of the last target
}

// Sampler returns a sampler over pl.
func (pl Polyline) Sampler() *Sampler {
	return &Sampler{pl: pl, cum: pl.Cumulative(), i: 1}
}

// At returns the point a fraction f ∈ [0,1] along the polyline, as
// Polyline.At defines it. A fraction below the previous one restarts the
// cursor at the first vertex.
func (s *Sampler) At(f float64) Point {
	pl, cum := s.pl, s.cum
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
	target := cum[len(cum)-1] * f
	if cum[s.i-1] >= target {
		s.i = 1
	}
	for ; s.i < len(pl); s.i++ {
		if cum[s.i] >= target {
			seg := Distance(pl[s.i-1], pl[s.i])
			if seg == 0 {
				return pl[s.i]
			}
			return Interpolate(pl[s.i-1], pl[s.i], (target-cum[s.i-1])/seg)
		}
	}
	return pl[len(pl)-1]
}

// DistanceToSegment returns the minimum distance in meters from p to the
// segment ab, using a local equirectangular projection around a, which is
// accurate for the sub-kilometer segments that GPS traces produce.
func DistanceToSegment(p, a, b Point) float64 {
	// Project into a local tangent plane (meters) centered at a.
	cosLat := math.Cos(radians(a.Lat))
	ax, ay := 0.0, 0.0
	bx := radians(b.Lon-a.Lon) * cosLat * EarthRadiusMeters
	by := radians(b.Lat-a.Lat) * EarthRadiusMeters
	px := radians(p.Lon-a.Lon) * cosLat * EarthRadiusMeters
	py := radians(p.Lat-a.Lat) * EarthRadiusMeters

	dx, dy := bx-ax, by-ay
	segLen2 := dx*dx + dy*dy
	if segLen2 == 0 {
		return math.Hypot(px-ax, py-ay)
	}
	t := ((px-ax)*dx + (py-ay)*dy) / segLen2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	cx, cy := ax+t*dx, ay+t*dy
	return math.Hypot(px-cx, py-cy)
}

// DistanceToPolyline returns the minimum distance in meters from p to any
// segment of pl. It returns +Inf for an empty polyline and the point
// distance for a single-point polyline.
func DistanceToPolyline(p Point, pl Polyline) float64 {
	switch len(pl) {
	case 0:
		return math.Inf(1)
	case 1:
		return Distance(p, pl[0])
	}
	best := math.Inf(1)
	for i := 1; i < len(pl); i++ {
		if d := DistanceToSegment(p, pl[i-1], pl[i]); d < best {
			best = d
		}
	}
	return best
}

// Centroid returns the arithmetic mean of the points (adequate at city
// scale; the tracking compactor uses it for stay-point centers). The zero
// Point is returned for an empty input.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var lat, lon float64
	for _, p := range pts {
		lat += p.Lat
		lon += p.Lon
	}
	n := float64(len(pts))
	return Point{Lat: lat / n, Lon: lon / n}
}
