package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"pphcr/internal/geo"
)

var torino = geo.Point{Lat: 45.0703, Lon: 7.6869}

// randomPoints scatters n points within ~radius meters of center.
func randomPoints(rng *rand.Rand, center geo.Point, radius float64, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		brg := rng.Float64() * 360
		d := rng.Float64() * radius
		pts[i] = geo.Destination(center, brg, d)
	}
	return pts
}

// bruteWithin is the oracle for range queries.
func bruteWithin(pts []geo.Point, center geo.Point, radius float64) []int {
	var out []int
	for i, p := range pts {
		if geo.Distance(center, p) <= radius {
			out = append(out, i)
		}
	}
	return out
}

func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, torino, 8000, 400)
	g := NewGrid(250, torino.Lat)
	for i, p := range pts {
		g.Insert(p, i)
	}
	for trial := 0; trial < 25; trial++ {
		c := geo.Destination(torino, rng.Float64()*360, rng.Float64()*6000)
		r := rng.Float64() * 3000
		got := g.Within(c, r, nil)
		want := bruteWithin(pts, c, r)
		if !sortedEqual(got, want) {
			t.Fatalf("trial %d: Within mismatch: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func BenchmarkGridWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, torino, 10000, 10000)
	g := NewGrid(250, torino.Lat)
	for i, p := range pts {
		g.Insert(p, i)
	}
	b.ResetTimer()
	var dst []int
	for i := 0; i < b.N; i++ {
		dst = g.Within(torino, 1500, dst[:0])
	}
}
