package trajectory

import (
	"math"
	"sort"

	"pphcr/internal/geo"
)

// StayPointParams configures density-based stay-point extraction.
type StayPointParams struct {
	// EpsMeters is the DBSCAN neighborhood radius. The paper clusters
	// trip endpoints; 150 m absorbs parking scatter around a place.
	EpsMeters float64
	// MinPts is the DBSCAN core-point threshold: a place must be visited
	// at least this many times to count as a major staying point.
	MinPts int
}

// DefaultStayPointParams matches the defaults used by the experiments.
func DefaultStayPointParams() StayPointParams {
	return StayPointParams{EpsMeters: 150, MinPts: 3}
}

// ExtractStayPoints clusters candidate dwell locations (typically trip
// endpoints) with DBSCAN and returns one StayPoint per cluster, ordered
// by descending visit count. Noise points are dropped — they are one-off
// destinations, not "major staying points".
func ExtractStayPoints(candidates []geo.Point, params StayPointParams) []StayPoint {
	if len(candidates) == 0 {
		return nil
	}
	if params.EpsMeters <= 0 || params.MinPts <= 0 {
		params = DefaultStayPointParams()
	}
	labels := stayLabels(candidates, params.EpsMeters, params.MinPts)
	var groups [][]geo.Point
	for i, l := range labels {
		if l == noise {
			continue
		}
		for l >= len(groups) {
			groups = append(groups, nil)
		}
		groups[l] = append(groups[l], candidates[i])
	}
	out := make([]StayPoint, 0, len(groups))
	for _, g := range groups {
		out = append(out, StayPoint{Center: geo.Centroid(g), Visits: len(g)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		// Deterministic tie-break.
		if out[i].Center.Lat != out[j].Center.Lat {
			return out[i].Center.Lat < out[j].Center.Lat
		}
		return out[i].Center.Lon < out[j].Center.Lon
	})
	return out
}

// noise is stayLabels' label for a point in no cluster.
const noise = -1

// cellSlack shrinks a grid cell below ε/2 on each side, so rounding in
// geo.Distance (about a nanometre) never lets two points of one cell
// read as more than ε apart. It holds for any ε above a millimetre.
const cellSlack = 1 - 1e-6

// stayLabels labels pts exactly as breadth-first DBSCAN does under the
// neighbourhood {q : geo.Distance(p, q) ≤ eps}, itself included, in
// time linear in len(pts) for the endpoint sets compaction feeds it
// (Gan & Tao, "DBSCAN revisited", SIGMOD 2015). Points go on a grid
// whose cells have a diameter below eps, so the points of one cell are
// mutual neighbours: a cell holding minPts points is all core, and the
// cores of one cell are one cluster. The labels follow from how the
// breadth-first search assigns them:
//   - a cluster is one connected component of core points;
//   - clusters are numbered by their smallest core index;
//   - a border point joins the lowest-numbered cluster with a core
//     point within eps of it;
//   - every other point is noise.
func stayLabels(pts []geo.Point, eps float64, minPts int) []int {
	g := newCellGrid(pts, eps)
	core := make([]bool, len(pts))
	hasCore := make([]bool, len(g.cells))
	for ci, c := range g.cells {
		members := g.order[c.start:c.end]
		if len(members) >= minPts {
			for _, i := range members {
				core[i] = true
			}
			hasCore[ci] = true
			continue
		}
		for _, i := range members {
			count := len(members)
			g.neighbours(ci, func(d int) bool {
				if d == ci {
					return true
				}
				for _, j := range g.order[g.cells[d].start:g.cells[d].end] {
					if geo.Distance(pts[i], pts[j]) <= eps {
						count++
						if count >= minPts {
							return false
						}
					}
				}
				return true
			})
			if count >= minPts {
				core[i] = true
				hasCore[ci] = true
			}
		}
	}

	// Union the cells whose cores reach each other.
	parent := make([]int, len(g.cells))
	for i := range parent {
		parent[i] = i
	}
	find := func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	for a := range g.cells {
		if !hasCore[a] {
			continue
		}
		g.neighbours(a, func(b int) bool {
			if b <= a || !hasCore[b] || find(a) == find(b) {
				return true
			}
			if g.coresMeet(pts, core, a, b, eps) {
				parent[find(b)] = find(a)
			}
			return true
		})
	}

	labels := make([]int, len(pts))
	clusterOf := make([]int, len(g.cells))
	for i := range clusterOf {
		clusterOf[i] = noise
	}
	next := 0
	for i := range pts {
		labels[i] = noise
		if !core[i] {
			continue
		}
		r := find(g.cellOf[i])
		if clusterOf[r] == noise {
			clusterOf[r] = next
			next++
		}
		labels[i] = clusterOf[r]
	}
	for i := range pts {
		if core[i] {
			continue
		}
		g.neighbours(g.cellOf[i], func(d int) bool {
			if !hasCore[d] {
				return true
			}
			l := clusterOf[find(d)]
			if labels[i] != noise && l >= labels[i] {
				return true
			}
			for _, j := range g.order[g.cells[d].start:g.cells[d].end] {
				if core[j] && geo.Distance(pts[i], pts[j]) <= eps {
					labels[i] = l
					break
				}
			}
			return true
		})
	}
	return labels
}

// cellGrid buckets points into lat/lon cells of diameter below ε.
type cellGrid struct {
	latCell, lonCell float64 // cell edges, degrees
	eps              float64
	cells            []gridCell // sorted by (row, col)
	rows             map[int]rowSpan
	order            []int // point indices grouped by cell, ascending within one
	cellOf           []int // point index → cell index
}

type gridCell struct {
	row, col   int
	start, end int // span of order
}

type rowSpan struct{ lo, hi int } // span of cells

// newCellGrid builds the grid. A cell spans s = ε/2·cellSlack metres of
// latitude and, at the point set's latitude closest to the equator,
// s metres of longitude. Two points of one cell are then joined by a
// path along a meridian (≤ s) and a parallel (≤ s), so their
// great-circle distance is below ε.
func newCellGrid(pts []geo.Point, eps float64) *cellGrid {
	side := eps / 2 * cellSlack
	cosMax := 0.0
	for _, p := range pts {
		cosMax = math.Max(cosMax, math.Cos(p.Lat*math.Pi/180))
	}
	g := &cellGrid{
		latCell: side / geo.EarthRadiusMeters * 180 / math.Pi,
		lonCell: 360,
		eps:     eps,
		rows:    make(map[int]rowSpan),
		cellOf:  make([]int, len(pts)),
	}
	if lon := side / (geo.EarthRadiusMeters * cosMax) * 180 / math.Pi; lon < 360 {
		g.lonCell = lon
	}
	type keyed struct{ row, col, i int }
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		ks[i] = keyed{int(math.Floor(p.Lat / g.latCell)), int(math.Floor(p.Lon / g.lonCell)), i}
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].row != ks[b].row {
			return ks[a].row < ks[b].row
		}
		if ks[a].col != ks[b].col {
			return ks[a].col < ks[b].col
		}
		return ks[a].i < ks[b].i
	})
	g.order = make([]int, len(pts))
	for k, kp := range ks {
		g.order[k] = kp.i
		if n := len(g.cells); n == 0 || g.cells[n-1].row != kp.row || g.cells[n-1].col != kp.col {
			g.cells = append(g.cells, gridCell{row: kp.row, col: kp.col, start: k})
			span := g.rows[kp.row]
			if n == 0 || g.cells[n-1].row != kp.row {
				span.lo = n
			}
			span.hi = n + 1
			g.rows[kp.row] = span
		}
		g.cells[len(g.cells)-1].end = k + 1
		g.cellOf[kp.i] = len(g.cells) - 1
	}
	return g
}

// neighbours calls f on every cell (c included) that may hold a point
// within ε of a point of cell c, until f returns false.
func (g *cellGrid) neighbours(c int, f func(d int) bool) {
	cell := g.cells[c]
	// ε spans just over two cells of latitude.
	const rowReach = 3
	// The widest longitude span of an ε-disc centred in this row is
	// asin(sin(ε/R)/cos φ) at its pole-most latitude φ; a disc that
	// holds a pole spans every longitude.
	poleward := math.Min(90, math.Max(math.Abs(float64(cell.row)*g.latCell), math.Abs(float64(cell.row+1)*g.latCell)))
	colReach := math.MaxInt
	if sinEps, cosLat := math.Sin(g.eps/geo.EarthRadiusMeters), math.Cos(poleward*math.Pi/180); sinEps < cosLat {
		colReach = int(math.Ceil(math.Asin(sinEps/cosLat)*180/math.Pi/g.lonCell)) + 1
	}
	for row := cell.row - rowReach; row <= cell.row+rowReach; row++ {
		span, ok := g.rows[row]
		if !ok {
			continue
		}
		lo := span.lo
		if colReach != math.MaxInt {
			lo += sort.Search(span.hi-span.lo, func(k int) bool { return g.cells[span.lo+k].col >= cell.col-colReach })
		}
		for d := lo; d < span.hi; d++ {
			if colReach != math.MaxInt && g.cells[d].col > cell.col+colReach {
				break
			}
			if !f(d) {
				return
			}
		}
	}
}

// coresMeet reports whether a core point of cell a lies within ε of a
// core point of cell b.
func (g *cellGrid) coresMeet(pts []geo.Point, core []bool, a, b int, eps float64) bool {
	for _, i := range g.order[g.cells[a].start:g.cells[a].end] {
		if !core[i] {
			continue
		}
		for _, j := range g.order[g.cells[b].start:g.cells[b].end] {
			if core[j] && geo.Distance(pts[i], pts[j]) <= eps {
				return true
			}
		}
	}
	return false
}

// NearestStayPoint returns the index of the stay point nearest to p and
// its distance in meters, or (-1, +Inf) when the list is empty.
func NearestStayPoint(points []StayPoint, p geo.Point) (int, float64) {
	best, bestD := -1, -1.0
	for i, sp := range points {
		d := geo.Distance(p, sp.Center)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, bestD
}
