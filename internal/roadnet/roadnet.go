// Package roadnet provides the synthetic road-network substrate. The
// paper's prototype consumes real driving traces in Torino; since those
// are proprietary, PPHCR generates commutes over a synthetic city graph
// that preserves the structure the models rely on: repeated home↔work
// routes, junctions (intersections and roundabouts) where the paper's
// distraction model forbids content transitions, grid-like complex
// downtown streets and a fast, simple ring road.
package roadnet

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"pphcr/internal/geo"
)

// NodeID identifies a graph node.
type NodeID int

// JunctionKind classifies a node for the distraction model.
type JunctionKind int

// Junction kinds. Plain nodes are geometric shape points; Intersection
// and Roundabout demand driver attention (paper §1.2: "driver's projected
// distraction levels at intersections and roundabouts").
const (
	Plain JunctionKind = iota
	Intersection
	Roundabout
)

// String returns the kind name.
func (k JunctionKind) String() string {
	switch k {
	case Plain:
		return "plain"
	case Intersection:
		return "intersection"
	case Roundabout:
		return "roundabout"
	default:
		return fmt.Sprintf("junction(%d)", int(k))
	}
}

// Node is a road-network vertex.
type Node struct {
	ID    NodeID
	Point geo.Point
	Kind  JunctionKind
}

// Edge is a directed road segment; AddRoad adds both directions.
type Edge struct {
	From, To NodeID
	Length   float64 // meters
	Speed    float64 // free-flow speed, m/s
}

// Graph is a mutable road network. It is not safe for concurrent
// mutation; build it once, then share it read-only.
type Graph struct {
	nodes []Node
	adj   [][]Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode inserts a node and returns its ID.
func (g *Graph) AddNode(p geo.Point, kind JunctionKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Point: p, Kind: kind})
	g.adj = append(g.adj, nil)
	return id
}

// AddRoad connects a and b in both directions at the given free-flow
// speed (m/s). The length is the great-circle distance.
func (g *Graph) AddRoad(a, b NodeID, speed float64) {
	length := geo.Distance(g.nodes[a].Point, g.nodes[b].Point)
	g.adj[a] = append(g.adj[a], Edge{From: a, To: b, Length: length, Speed: speed})
	g.adj[b] = append(g.adj[b], Edge{From: b, To: a, Length: length, Speed: speed})
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// NearestNode returns the node closest to p. The graph is small (a few
// thousand nodes), so a linear scan is fine and keeps the package free of
// index bookkeeping.
func (g *Graph) NearestNode(p geo.Point) NodeID {
	best := NodeID(-1)
	bestD := 0.0
	for _, n := range g.nodes {
		d := geo.Distance(p, n.Point)
		if best == -1 || d < bestD {
			best, bestD = n.ID, d
		}
	}
	return best
}

// RouteJunction is a non-plain node along a route, positioned by distance
// from the route start.
type RouteJunction struct {
	Kind      JunctionKind
	Point     geo.Point
	DistAlong float64 // meters from route start
}

// Route is a path through the graph with the derived geometry the rest of
// PPHCR consumes.
type Route struct {
	Nodes      []NodeID
	Polyline   geo.Polyline
	Length     float64       // meters
	TravelTime time.Duration // free-flow
	Junctions  []RouteJunction
}

// ErrNoPath is returned when the destination is unreachable.
var ErrNoPath = errors.New("roadnet: no path")

// ShortestPath computes the minimum travel-time route from src to dst
// with Dijkstra's algorithm over free-flow edge times.
func (g *Graph) ShortestPath(src, dst NodeID) (Route, error) {
	n := len(g.nodes)
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return Route{}, fmt.Errorf("roadnet: node out of range (src=%d dst=%d n=%d)", src, dst, n)
	}
	const unreached = -1.0
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = unreached
		prev[i] = -1
	}
	dist[src] = 0
	pq := &pathQueue{{node: src, cost: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pathItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == dst {
			break
		}
		for _, e := range g.adj[it.node] {
			if e.Speed <= 0 {
				continue
			}
			c := it.cost + e.Length/e.Speed
			if dist[e.To] == unreached || c < dist[e.To] {
				dist[e.To] = c
				prev[e.To] = it.node
				heap.Push(pq, pathItem{node: e.To, cost: c})
			}
		}
	}
	if dist[dst] == unreached {
		return Route{}, ErrNoPath
	}
	// Reconstruct the node sequence.
	var rev []NodeID
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	nodes := make([]NodeID, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return g.buildRoute(nodes, dist[dst]), nil
}

func (g *Graph) buildRoute(nodes []NodeID, seconds float64) Route {
	r := Route{
		Nodes:      nodes,
		TravelTime: time.Duration(seconds * float64(time.Second)),
	}
	r.Polyline = make(geo.Polyline, len(nodes))
	var walked float64
	for i, id := range nodes {
		node := g.nodes[id]
		r.Polyline[i] = node.Point
		if i > 0 {
			walked += geo.Distance(g.nodes[nodes[i-1]].Point, node.Point)
		}
		// Junctions at the very start/end are where the car is parked;
		// they do not distract a driver who is not yet/no longer moving.
		if node.Kind != Plain && i > 0 && i < len(nodes)-1 {
			r.Junctions = append(r.Junctions, RouteJunction{
				Kind:      node.Kind,
				Point:     node.Point,
				DistAlong: walked,
			})
		}
	}
	r.Length = walked
	return r
}

type pathItem struct {
	node NodeID
	cost float64
}

type pathQueue []pathItem

func (q pathQueue) Len() int            { return len(q) }
func (q pathQueue) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q pathQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pathQueue) Push(x interface{}) { *q = append(*q, x.(pathItem)) }
func (q *pathQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
