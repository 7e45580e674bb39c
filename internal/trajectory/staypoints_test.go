package trajectory

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pphcr/internal/cluster"
	"pphcr/internal/geo"
	"pphcr/internal/spatial"
)

// dbscanOracle is how stay points were labelled before the grid: the
// breadth-first cluster.DBSCAN over spatial.Grid ε-queries.
func dbscanOracle(pts []geo.Point, eps float64, minPts int) []int {
	grid := spatial.NewGrid(eps, pts[0].Lat)
	for i, p := range pts {
		grid.Insert(p, i)
	}
	return cluster.DBSCAN(len(pts), minPts, func(i int) []int {
		return grid.Within(pts[i], eps, nil)
	})
}

// extractOracle is ExtractStayPoints over dbscanOracle's labels.
func extractOracle(pts []geo.Point, params StayPointParams) []StayPoint {
	groups, _ := cluster.Groups(dbscanOracle(pts, params.EpsMeters, params.MinPts))
	out := make([]StayPoint, 0, len(groups))
	for _, g := range groups {
		members := make([]geo.Point, len(g))
		for i, idx := range g {
			members[i] = pts[idx]
		}
		out = append(out, StayPoint{Center: geo.Centroid(members), Visits: len(g)})
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

// sweepEps is the default ε and every ε of the staying-point sweep in
// the experiments (quant.go).
var sweepEps = []float64{150, 25, 80, 300, 600}

// atDistance returns a point on the bearing from p (0 or 90) whose
// geo.Distance from p is the largest float at most d: a pair exactly ε
// apart as the neighbourhood test sees it.
func atDistance(p geo.Point, bearing, d float64) geo.Point {
	q := geo.Destination(p, bearing, d)
	coord := &q.Lat
	if bearing == 90 {
		coord = &q.Lon
	}
	for geo.Distance(p, q) > d {
		*coord = math.Nextafter(*coord, math.Inf(-1))
	}
	for {
		next := q
		if bearing == 90 {
			next.Lon = math.Nextafter(q.Lon, math.Inf(1))
		} else {
			next.Lat = math.Nextafter(q.Lat, math.Inf(1))
		}
		if geo.Distance(p, next) > d {
			return q
		}
		q = next
	}
}

// endpointSets builds the seeded candidate sets for one ε: clustered
// trip endpoints with noise, duplicate points, chains of pairs exactly
// ε apart, points on the corners of both grids' cells, and pairs of
// dense places a border point between them can reach.
func endpointSets(seed int64, eps float64) map[string][]geo.Point {
	rng := rand.New(rand.NewSource(seed))
	sets := make(map[string][]geo.Point)
	scatter := func(center geo.Point, n int, radius float64) []geo.Point {
		out := make([]geo.Point, n)
		for i := range out {
			out[i] = geo.Destination(center, rng.Float64()*360, rng.Float64()*radius)
		}
		return out
	}

	var pts []geo.Point
	for c := 0; c < 2+rng.Intn(5); c++ {
		center := geo.Destination(torino, rng.Float64()*360, rng.Float64()*6*eps)
		pts = append(pts, scatter(center, 1+rng.Intn(12), eps*(0.3+rng.Float64()))...)
	}
	pts = append(pts, scatter(torino, 1+rng.Intn(8), 20*eps)...)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	sets["clustered"] = pts

	var dups []geo.Point
	for _, p := range scatter(torino, 4+rng.Intn(4), 2*eps) {
		for k := 0; k < 1+rng.Intn(4); k++ {
			dups = append(dups, p)
		}
	}
	rng.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
	sets["duplicates"] = dups

	var chain []geo.Point
	p := geo.Destination(torino, rng.Float64()*360, rng.Float64()*eps)
	for k := 0; k < 8; k++ {
		chain = append(chain, p)
		if rng.Intn(3) == 0 {
			chain = append(chain, p) // a duplicate makes the link core
		}
		bearing := 0.0
		if rng.Intn(2) == 0 {
			bearing = 90
		}
		p = atDistance(p, bearing, eps)
	}
	sets["exactly ε apart"] = chain

	g := newCellGrid([]geo.Point{torino}, eps)
	oracleGrid := eps / 111320.0 // spatial.Grid's cell edge in degrees latitude
	var edges []geo.Point
	row, col := math.Floor(torino.Lat/g.latCell), math.Floor(torino.Lon/g.lonCell)
	for k := 0; k < 14; k++ {
		r, c := row+float64(rng.Intn(4)), col+float64(rng.Intn(4))
		edges = append(edges, geo.Point{Lat: r * g.latCell, Lon: c * g.lonCell})
		edges = append(edges, geo.Point{Lat: math.Floor(torino.Lat/oracleGrid+float64(rng.Intn(3))) * oracleGrid, Lon: c * g.lonCell})
	}
	sets["cell edges"] = edges

	// Two dense places 1.6–2 ε apart and border points between them.
	var two []geo.Point
	a := geo.Destination(torino, rng.Float64()*360, rng.Float64()*eps)
	b := geo.Destination(a, rng.Float64()*360, eps*(1.6+0.4*rng.Float64()))
	two = append(two, scatter(a, 3+rng.Intn(3), 0.3*eps)...)
	two = append(two, scatter(b, 3+rng.Intn(3), 0.3*eps)...)
	for k := 0; k < 3; k++ {
		two = append(two, geo.Interpolate(a, b, 0.35+0.3*rng.Float64()))
	}
	rng.Shuffle(len(two), func(i, j int) { two[i], two[j] = two[j], two[i] })
	sets["shared border"] = two
	return sets
}

// TestStayLabelsMatchDBSCAN: the grid labels equal the breadth-first
// DBSCAN's label for label, and ExtractStayPoints equals the stay
// points built from those labels bit for bit, at the default ε and at
// every ε of the experiments' sweep.
func TestStayLabelsMatchDBSCAN(t *testing.T) {
	var contested, boundaryPairs int
	for _, eps := range sweepEps {
		for seed := int64(1); seed <= 60; seed++ {
			for name, pts := range endpointSets(seed, eps) {
				for _, minPts := range []int{1, 2, 3, 4, 6} {
					want := dbscanOracle(pts, eps, minPts)
					got := stayLabels(pts, eps, minPts)
					if !slices.Equal(got, want) {
						t.Fatalf("ε=%v seed %d %s minPts %d:\n got %v\nwant %v", eps, seed, name, minPts, got, want)
					}
					contested += contestedBorders(pts, want, eps)
					params := StayPointParams{EpsMeters: eps, MinPts: minPts}
					if a, b := ExtractStayPoints(pts, params), extractOracle(pts, params); !stayPointsIdentical(a, b) {
						t.Fatalf("ε=%v seed %d %s minPts %d: stay points\n got %v\nwant %v", eps, seed, name, minPts, a, b)
					}
				}
				if name == "exactly ε apart" {
					for i := 1; i < len(pts); i++ {
						if d := geo.Distance(pts[i-1], pts[i]); d <= eps && d > eps*(1-1e-12) {
							boundaryPairs++
						}
					}
				}
			}
		}
	}
	// The sets must exercise what they are built for.
	if contested == 0 || boundaryPairs == 0 {
		t.Fatalf("%d border points two clusters reach, %d pairs exactly ε apart", contested, boundaryPairs)
	}
	t.Logf("%d border points two clusters reach, %d pairs exactly ε apart", contested, boundaryPairs)
}

// contestedBorders counts the non-core points within ε of cores of two
// different clusters.
func contestedBorders(pts []geo.Point, labels []int, eps float64) int {
	n := 0
	for i := range pts {
		if labels[i] == noise {
			continue
		}
		reach := map[int]bool{}
		for j := range pts {
			if labels[j] != noise && geo.Distance(pts[i], pts[j]) <= eps {
				reach[labels[j]] = true
			}
		}
		if len(reach) > 1 {
			n++
		}
	}
	return n
}

func stayPointsIdentical(a, b []StayPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Visits != b[i].Visits ||
			math.Float64bits(a[i].Center.Lat) != math.Float64bits(b[i].Center.Lat) ||
			math.Float64bits(a[i].Center.Lon) != math.Float64bits(b[i].Center.Lon) {
			return false
		}
	}
	return true
}

// TestCellDiameterBelowEps: every pair in one grid cell is within ε
// (the fact the grid's dense-cell shortcut rests on), checked on the
// corners of cells over a span of latitudes.
func TestCellDiameterBelowEps(t *testing.T) {
	for _, eps := range append([]float64{1, 5}, sweepEps...) {
		for _, lat := range []float64{-70, -45, 0, 12.5, 45.0703, 60, 80} {
			pts := []geo.Point{{Lat: lat, Lon: 7.6869}, {Lat: lat + 0.01, Lon: 7.7}}
			g := newCellGrid(pts, eps)
			for _, p := range pts {
				r, c := math.Floor(p.Lat/g.latCell), math.Floor(p.Lon/g.lonCell)
				lo := geo.Point{Lat: r * g.latCell, Lon: c * g.lonCell}
				hi := geo.Point{Lat: (r + 1) * g.latCell, Lon: (c + 1) * g.lonCell}
				for _, pair := range [][2]geo.Point{{lo, hi}, {{Lat: lo.Lat, Lon: hi.Lon}, {Lat: hi.Lat, Lon: lo.Lon}}} {
					if d := geo.Distance(pair[0], pair[1]); d > eps {
						t.Fatalf("ε=%v lat %v: cell diagonal %v m", eps, lat, d)
					}
				}
			}
		}
	}
}

func BenchmarkStayLabels(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		rng := rand.New(rand.NewSource(1))
		pts := make([]geo.Point, n)
		for i := range pts {
			// Trip endpoints pile up at a few places.
			center := geo.Destination(torino, float64(i%4)*90, 9000)
			pts[i] = geo.Destination(center, rng.Float64()*360, rng.Float64()*60)
		}
		b.Run(fmt.Sprintf("grid/%d", n), func(b *testing.B) {
			for b.Loop() {
				stayLabels(pts, 150, 3)
			}
		})
		if n > 1000 {
			continue // the breadth-first search takes seconds
		}
		b.Run(fmt.Sprintf("bfs/%d", n), func(b *testing.B) {
			for b.Loop() {
				dbscanOracle(pts, 150, 3)
			}
		})
	}
}
