package spatial

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

func TestRTreeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, torino, 10000, 500)
	tree := NewRTree()
	for i, p := range pts {
		tree.Insert(geo.PointRect(p), i)
	}
	for trial := 0; trial < 25; trial++ {
		q := geo.RectAround(geo.Destination(torino, rng.Float64()*360, rng.Float64()*8000), 2000)
		got := tree.Search(q, nil)
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		if !sortedEqual(got, want) {
			t.Fatalf("trial %d: search mismatch: got %d items, want %d", trial, len(got), len(want))
		}
	}
}

func TestRTreeEmptyAndDegenerate(t *testing.T) {
	tree := NewRTree()
	if got := tree.Search(geo.RectAround(torino, 1000), nil); len(got) != 0 {
		t.Fatal("empty tree search should be empty")
	}
	tree.Insert(geo.PointRect(torino), 42)
	got := tree.Search(geo.RectAround(torino, 1000), nil)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("single item search = %v", got)
	}
}

func TestRTreeManyIdenticalPoints(t *testing.T) {
	tree := NewRTree()
	for i := 0; i < 100; i++ {
		tree.Insert(geo.PointRect(torino), i)
	}
	got := tree.Search(geo.PointRect(torino), nil)
	if len(got) != 100 {
		t.Fatalf("identical-point search returned %d", len(got))
	}
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

func TestRTreeGridAgreement(t *testing.T) {
	// Property: both indexes answer radius queries identically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, torino, 4000, 120)
		tree := NewRTree()
		g := NewGrid(350, torino.Lat)
		for i, p := range pts {
			tree.Insert(geo.PointRect(p), i)
			g.Insert(p, i)
		}
		c := geo.Destination(torino, rng.Float64()*360, rng.Float64()*3000)
		r := rng.Float64() * 2000
		ids := tree.Search(geo.RectAround(c, r), nil)
		var fromTree []int
		for _, id := range ids {
			if geo.Distance(c, pts[id]) <= r {
				fromTree = append(fromTree, id)
			}
		}
		fromGrid := g.Within(c, r, nil)
		return sortedEqual(fromTree, fromGrid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, torino, 10000, b.N+1)
	b.ResetTimer()
	tree := NewRTree()
	for i := 0; i < b.N; i++ {
		tree.Insert(geo.PointRect(pts[i]), i)
	}
}

func BenchmarkRTreeSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, torino, 10000, 10000)
	tree := NewRTree()
	for i, p := range pts {
		tree.Insert(geo.PointRect(p), i)
	}
	q := geo.RectAround(torino, 1500)
	b.ResetTimer()
	var dst []int
	for i := 0; i < b.N; i++ {
		dst = tree.Search(q, dst[:0])
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
