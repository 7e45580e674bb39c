package roadnet

import (
	"math"
	"testing"
	"time"

	"pphcr/internal/geo"
)

var torino = geo.Point{Lat: 45.0703, Lon: 7.6869}

// lineGraph builds src -(1km)- mid -(1km)- dst at the given speed.
func lineGraph(speed float64) (*Graph, NodeID, NodeID, NodeID) {
	g := NewGraph()
	a := g.AddNode(torino, Plain)
	b := g.AddNode(geo.Destination(torino, 90, 1000), Intersection)
	c := g.AddNode(geo.Destination(torino, 90, 2000), Plain)
	g.AddRoad(a, b, speed)
	g.AddRoad(b, c, speed)
	return g, a, b, c
}

func TestShortestPathLine(t *testing.T) {
	g, a, _, c := lineGraph(10)
	r, err := g.ShortestPath(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 3 {
		t.Fatalf("nodes = %v", r.Nodes)
	}
	if math.Abs(r.Length-2000) > 3 {
		t.Fatalf("Length = %v", r.Length)
	}
	wantT := 200 * time.Second
	if d := r.TravelTime - wantT; d < -2*time.Second || d > 2*time.Second {
		t.Fatalf("TravelTime = %v, want ~%v", r.TravelTime, wantT)
	}
	if len(r.Junctions) != 1 || r.Junctions[0].Kind != Intersection {
		t.Fatalf("Junctions = %+v", r.Junctions)
	}
	if math.Abs(r.Junctions[0].DistAlong-1000) > 3 {
		t.Fatalf("junction DistAlong = %v", r.Junctions[0].DistAlong)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g, a, _, _ := lineGraph(10)
	r, err := g.ShortestPath(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 1 || r.Length != 0 || r.TravelTime != 0 {
		t.Fatalf("self route = %+v", r)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(torino, Plain)
	b := g.AddNode(geo.Destination(torino, 90, 1000), Plain)
	// no road between them
	if _, err := g.ShortestPath(a, b); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if _, err := g.ShortestPath(a, NodeID(99)); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
}

func TestShortestPathPrefersFasterRoad(t *testing.T) {
	// Two routes from A to B: direct slow road (2 km at 5 m/s = 400 s) vs
	// detour over fast road (3 km at 25 m/s = 120 s).
	g := NewGraph()
	a := g.AddNode(torino, Plain)
	b := g.AddNode(geo.Destination(torino, 90, 2000), Plain)
	via := g.AddNode(geo.Destination(torino, 45, 1500), Roundabout)
	g.AddRoad(a, b, 5)
	g.AddRoad(a, via, 25)
	g.AddRoad(via, b, 25)
	r, err := g.ShortestPath(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 3 || r.Nodes[1] != via {
		t.Fatalf("expected detour through %d, got %v", via, r.Nodes)
	}
	if len(r.Junctions) != 1 || r.Junctions[0].Kind != Roundabout {
		t.Fatalf("Junctions = %+v", r.Junctions)
	}
}

func TestJunctionKindString(t *testing.T) {
	if Plain.String() != "plain" || Intersection.String() != "intersection" ||
		Roundabout.String() != "roundabout" {
		t.Fatal("kind strings wrong")
	}
	if JunctionKind(9).String() == "" {
		t.Fatal("unknown kind should not be empty")
	}
}

func TestNearestNode(t *testing.T) {
	g, a, b, _ := lineGraph(10)
	if got := g.NearestNode(geo.Destination(torino, 90, 100)); got != a {
		t.Fatalf("NearestNode = %d, want %d", got, a)
	}
	if got := g.NearestNode(geo.Destination(torino, 90, 900)); got != b {
		t.Fatalf("NearestNode = %d, want %d", got, b)
	}
}

func TestGenerateCityStructure(t *testing.T) {
	city := GenerateCity(CityParams{})
	p := city.Params
	wantNodes := p.Rows*p.Cols + p.RingSegments
	if city.Graph.NumNodes() != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", city.Graph.NumNodes(), wantNodes)
	}
	if len(city.RingNodes) != p.RingSegments {
		t.Fatalf("RingNodes = %d", len(city.RingNodes))
	}
	for _, id := range city.RingNodes {
		if city.Graph.Node(id).Kind != Roundabout {
			t.Fatal("ring node is not a roundabout")
		}
		// Each roundabout: 2 ring arcs + 1 arterial = degree >= 3.
		if deg := len(city.Graph.adj[id]); deg < 3 {
			t.Fatalf("roundabout degree = %d", deg)
		}
	}
	// Interior grid nodes are intersections with degree 4.
	mid := city.GridNodes[p.Rows/2][p.Cols/2]
	if city.Graph.Node(mid).Kind != Intersection {
		t.Fatal("interior grid node should be an intersection")
	}
	if deg := len(city.Graph.adj[mid]); deg != 4 {
		t.Fatalf("interior degree = %d, want 4", deg)
	}
}

func TestGenerateCityConnectivity(t *testing.T) {
	city := GenerateCity(CityParams{})
	// Every node must be reachable from node 0.
	g := city.Graph
	seen := make([]bool, g.NumNodes())
	queue := []NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[n] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				queue = append(queue, e.To)
			}
		}
	}
	if count != g.NumNodes() {
		t.Fatalf("only %d/%d nodes reachable", count, g.NumNodes())
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	a := GenerateCity(CityParams{})
	b := GenerateCity(CityParams{})
	if a.Graph.NumNodes() != b.Graph.NumNodes() {
		t.Fatal("node counts differ")
	}
	for i := 0; i < a.Graph.NumNodes(); i++ {
		if a.Graph.Node(NodeID(i)).Point != b.Graph.Node(NodeID(i)).Point {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestCityCommuteRoute(t *testing.T) {
	city := GenerateCity(CityParams{})
	// Suburb home (NE, beyond ring) to downtown work.
	home := city.Graph.NearestNode(city.RandomSuburb(45, 100))
	work := city.GridNodes[5][5]
	r, err := city.Graph.ShortestPath(home, work)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length < 3000 {
		t.Fatalf("commute suspiciously short: %v m", r.Length)
	}
	if len(r.Junctions) == 0 {
		t.Fatal("commute should pass junctions")
	}
	// Junction distances must be increasing and within route length.
	prev := -1.0
	for _, j := range r.Junctions {
		if j.DistAlong <= prev || j.DistAlong > r.Length+1 {
			t.Fatalf("junction ordering broken: %+v (len=%v)", r.Junctions, r.Length)
		}
		prev = j.DistAlong
	}
}

func BenchmarkShortestPathCity(b *testing.B) {
	city := GenerateCity(CityParams{})
	home := city.Graph.NearestNode(city.RandomSuburb(45, 100))
	work := city.GridNodes[5][5]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := city.Graph.ShortestPath(home, work); err != nil {
			b.Fatal(err)
		}
	}
}
