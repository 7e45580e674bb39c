// Package trajectory processes raw GPS traces into the compact discrete
// model the paper's tracking component extracts (§1.2): trips with
// destination, simplified trajectory, speed profile, frequency,
// time-of-day and complexity. Simplification uses the Ramer–Douglas–
// Peucker algorithm (RDP) as in the paper; stay points are found with
// density-based clustering (DBSCAN on a grid, staypoints.go).
package trajectory

import (
	"time"

	"pphcr/internal/geo"
)

// Fix is one GPS sample.
type Fix struct {
	Point geo.Point
	Time  time.Time
}

// Trace is a time-ordered sequence of fixes.
type Trace []Fix

// Points extracts the raw polyline of the trace.
func (tr Trace) Points() geo.Polyline {
	pl := make(geo.Polyline, len(tr))
	for i, f := range tr {
		pl[i] = f.Point
	}
	return pl
}

// Duration returns the elapsed time between the first and last fix.
func (tr Trace) Duration() time.Duration {
	if len(tr) < 2 {
		return 0
	}
	return tr[len(tr)-1].Time.Sub(tr[0].Time)
}

// Head returns the fixes within d of the first: the first minutes of a
// drive, as a tracker has seen them so far. Its capacity is capped, so
// an append to the head copies rather than writing into tr.
func (tr Trace) Head(d time.Duration) Trace {
	n := 0
	for n < len(tr) && tr[n].Time.Sub(tr[0].Time) <= d {
		n++
	}
	return tr[:n:n]
}

// Length returns the path length in meters.
func (tr Trace) Length() float64 { return tr.Points().Length() }

// AverageSpeed returns the mean speed in m/s (0 for degenerate traces).
func (tr Trace) AverageSpeed() float64 {
	d := tr.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return tr.Length() / d
}

// RDP simplifies a polyline with the Ramer–Douglas–Peucker algorithm:
// the result keeps the endpoints and every point whose removal would
// introduce more than epsilon meters of perpendicular error. The output
// is a subsequence of the input.
func RDP(pl geo.Polyline, epsilon float64) geo.Polyline {
	if len(pl) <= 2 {
		return append(geo.Polyline(nil), pl...)
	}
	keep := make([]bool, len(pl))
	keep[0], keep[len(pl)-1] = true, true
	rdpMark(pl, 0, len(pl)-1, epsilon, keep)
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	// Right-sized: compaction keeps every route it simplifies.
	out := make(geo.Polyline, 0, kept)
	for i, k := range keep {
		if k {
			out = append(out, pl[i])
		}
	}
	return out
}

// rdpMark recursively marks points to keep between indexes lo and hi.
// An explicit stack avoids deep recursion on long traces.
func rdpMark(pl geo.Polyline, lo, hi int, epsilon float64, keep []bool) {
	type span struct{ lo, hi int }
	stack := []span{{lo, hi}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		maxDist, maxIdx := -1.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			d := geo.DistanceToSegment(pl[i], pl[s.lo], pl[s.hi])
			if d > maxDist {
				maxDist, maxIdx = d, i
			}
		}
		if maxDist > epsilon {
			keep[maxIdx] = true
			stack = append(stack, span{s.lo, maxIdx}, span{maxIdx, s.hi})
		}
	}
}

// Complexity scores a trajectory's geometric complexity in [0, 1] as the
// paper computes it: the trajectory is simplified with RDP and the score
// grows with the density of retained direction-change vertices per
// kilometer. 0 means a straight run; dense urban zig-zags approach 1.
func Complexity(pl geo.Polyline, epsilonMeters float64) float64 {
	return RouteComplexity(RDP(pl, epsilonMeters))
}

// RouteComplexity is Complexity for a route RDP has already simplified:
// Complexity(pl, ε) == RouteComplexity(RDP(pl, ε)).
//
// The normalization constant (6 vertices/km saturates the score) was
// chosen so that the synthetic city's downtown grid routes score ~0.7
// and ring-road routes score ~0.2, matching the qualitative split the
// distraction model needs.
func RouteComplexity(simplified geo.Polyline) float64 {
	lengthKm := simplified.Length() / 1000
	if lengthKm <= 0 {
		return 0
	}
	interior := float64(len(simplified) - 2)
	score := interior / lengthKm / 6.0
	if score > 1 {
		score = 1
	}
	return score
}

// SegmentTrips splits a trace into trips at temporal gaps (engine-off,
// indoor dwell) of at least gap, discarding fragments with fewer than
// minFixes fixes. This mirrors the paper's periodic processing of raw
// tracking data into per-drive units.
func SegmentTrips(tr Trace, gap time.Duration, minFixes int) []Trace {
	if len(tr) == 0 {
		return nil
	}
	var trips []Trace
	start := 0
	for i := 1; i < len(tr); i++ {
		if tr[i].Time.Sub(tr[i-1].Time) >= gap {
			if i-start >= minFixes {
				trips = append(trips, tr[start:i])
			}
			start = i
		}
	}
	if len(tr)-start >= minFixes {
		trips = append(trips, tr[start:])
	}
	return trips
}

// StayPoint is a location where the listener repeatedly dwells (home,
// work, gym...). Visits counts distinct trips that start or end there.
type StayPoint struct {
	Center geo.Point
	Visits int
}
