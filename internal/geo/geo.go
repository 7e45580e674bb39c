// Package geo provides the geodesy primitives used throughout PPHCR:
// WGS84 latitude/longitude points, great-circle (haversine) distances,
// destination points, polylines and bounding boxes.
//
// All distances are in meters, all angles in degrees unless a name says
// otherwise. The accuracy of the spherical model (≪0.5% error) is far
// beyond what GPS-noise-driven mobility modeling needs.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the spherical model.
const EarthRadiusMeters = 6371008.8

// Point is a WGS84 coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, degrees, positive north
	Lon float64 // longitude, degrees, positive east
}

// String renders the point as "lat,lon" with 6 decimal places (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the legal lat/lon ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Distance returns the great-circle distance between a and b in meters,
// computed with the haversine formula (numerically stable for small
// separations, which dominate GPS traces).
func Distance(a, b Point) float64 {
	la1, lo1 := radians(a.Lat), radians(a.Lon)
	la2, lo2 := radians(b.Lat), radians(b.Lon)
	sinLat := math.Sin((la2 - la1) / 2)
	sinLon := math.Sin((lo2 - lo1) / 2)
	h := sinLat*sinLat + math.Cos(la1)*math.Cos(la2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Destination returns the point reached by traveling dist meters from p
// along the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, dist float64) Point {
	la1, lo1 := radians(p.Lat), radians(p.Lon)
	brg := radians(bearingDeg)
	ad := dist / EarthRadiusMeters
	la2 := math.Asin(math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(
		math.Sin(brg)*math.Sin(ad)*math.Cos(la1),
		math.Cos(ad)-math.Sin(la1)*math.Sin(la2),
	)
	// Normalize longitude to [-180, 180).
	lon := math.Mod(degrees(lo2)+540, 360) - 180
	return Point{Lat: degrees(la2), Lon: lon}
}

// Interpolate returns the point a fraction f of the way from a to b along
// the straight (equirectangular) segment. f outside [0,1] extrapolates.
// For the sub-kilometer segments of GPS traces this is indistinguishable
// from great-circle interpolation.
func Interpolate(a, b Point, f float64) Point {
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*f,
		Lon: a.Lon + (b.Lon-a.Lon)*f,
	}
}

// Rect is an axis-aligned bounding box in lat/lon space.
// Boxes never wrap the antimeridian; the synthetic city does not either.
type Rect struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// RectAround returns a Rect that conservatively contains the disc of
// radius r meters around center. Near the poles the longitude span is
// clamped to the full range.
func RectAround(center Point, r float64) Rect {
	dLat := degrees(r / EarthRadiusMeters)
	cosLat := math.Cos(radians(center.Lat))
	var dLon float64
	if cosLat < 1e-9 {
		dLon = 180
	} else {
		dLon = degrees(r / (EarthRadiusMeters * cosLat))
	}
	return Rect{
		MinLat: math.Max(center.Lat-dLat, -90),
		MinLon: math.Max(center.Lon-dLon, -180),
		MaxLat: math.Min(center.Lat+dLat, 90),
		MaxLon: math.Min(center.Lon+dLon, 180),
	}
}

// Union returns the smallest Rect containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, o.MinLat),
		MinLon: math.Min(r.MinLon, o.MinLon),
		MaxLat: math.Max(r.MaxLat, o.MaxLat),
		MaxLon: math.Max(r.MaxLon, o.MaxLon),
	}
}

// Extend returns the smallest Rect containing r and p.
func (r Rect) Extend(p Point) Rect {
	return r.Union(Rect{MinLat: p.Lat, MinLon: p.Lon, MaxLat: p.Lat, MaxLon: p.Lon})
}

// PointRect returns the degenerate Rect covering exactly p.
func PointRect(p Point) Rect {
	return Rect{MinLat: p.Lat, MinLon: p.Lon, MaxLat: p.Lat, MaxLon: p.Lon}
}
