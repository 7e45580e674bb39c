// Package spatial holds Grid, a uniform spatial hash answering radius
// queries over WGS84 coordinates. It is not safe for concurrent use. Only
// the stay-point test oracle queries it: the breadth-first DBSCAN that
// internal/trajectory's grid labelling must equal.
package spatial

import (
	"math"

	"pphcr/internal/geo"
)

// Grid is a uniform spatial hash over lat/lon cells. It is the cheap
// index for dense, city-scale point sets, where a fixed cell size near
// the neighborhood radius makes ε-queries O(points per 3×3 cells); the
// breadth-first DBSCAN oracle for stay points queries it.
type Grid struct {
	cell   float64 // cell edge in degrees latitude
	lonDiv float64 // cell edge in degrees longitude (latitude-corrected)
	cells  map[[2]int][]gridItem
}

type gridItem struct {
	p  geo.Point
	id int
}

// NewGrid returns a grid with cells approximately cellMeters on each side
// at the given reference latitude. cellMeters must be positive.
func NewGrid(cellMeters, refLatDeg float64) *Grid {
	cellLat := cellMeters / 111320.0 // meters per degree latitude
	cosLat := math.Cos(refLatDeg * math.Pi / 180)
	if cosLat < 0.01 {
		cosLat = 0.01
	}
	return &Grid{
		cell:   cellLat,
		lonDiv: cellLat / cosLat,
		cells:  make(map[[2]int][]gridItem),
	}
}

func (g *Grid) key(p geo.Point) [2]int {
	return [2]int{
		int(math.Floor(p.Lat / g.cell)),
		int(math.Floor(p.Lon / g.lonDiv)),
	}
}

// Insert adds a point with an item ID.
func (g *Grid) Insert(p geo.Point, id int) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], gridItem{p: p, id: id})
}

// Within appends to dst the IDs of all points within radius meters of
// center (inclusive) and returns the extended slice.
func (g *Grid) Within(center geo.Point, radius float64, dst []int) []int {
	if radius < 0 {
		return dst
	}
	r := geo.RectAround(center, radius)
	kMin := g.key(geo.Point{Lat: r.MinLat, Lon: r.MinLon})
	kMax := g.key(geo.Point{Lat: r.MaxLat, Lon: r.MaxLon})
	for i := kMin[0]; i <= kMax[0]; i++ {
		for j := kMin[1]; j <= kMax[1]; j++ {
			for _, it := range g.cells[[2]int{i, j}] {
				if geo.Distance(center, it.p) <= radius {
					dst = append(dst, it.id)
				}
			}
		}
	}
	return dst
}
