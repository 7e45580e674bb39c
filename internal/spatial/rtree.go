// Package spatial holds the two in-memory indexes the system queries
// over WGS84 coordinates. Neither is safe for concurrent use:
//
//   - Grid, a uniform spatial hash answering radius queries, indexes the
//     trip endpoints that staying-point extraction clusters with DBSCAN
//     during tracking compaction (internal/trajectory);
//   - RTree, a dynamic R-tree answering rectangle queries, indexes the
//     geographic scopes of media items (internal/content's GeoItems).
//
// Listener GPS fixes, the paper's PostGIS tracking DB (§1.2), are not
// indexed here: internal/tracking keeps them once, as per-user raw
// traces, which is all compaction and recovery read.
package spatial

import (
	"math"

	"pphcr/internal/geo"
)

// rtree constants: classic Guttman parameters. Small fanout keeps the
// quadratic split cheap while staying shallow for tens of thousands of
// rectangles.
const (
	maxEntries = 16
	minEntries = maxEntries / 4
)

// RTree is a dynamic R-tree (Guttman 1984, quadratic split) mapping
// bounding rectangles to integer item IDs. The zero value is not usable;
// call NewRTree.
type RTree struct {
	root *rnode
	// path records the ancestors visited by the last chooseLeaf call so
	// splits can propagate upward without parent pointers. RTree is not
	// safe for concurrent use; its owner locks.
	path []*rnode
}

type rentry struct {
	rect  geo.Rect
	child *rnode // nil for leaf entries
	id    int    // valid for leaf entries
}

type rnode struct {
	leaf    bool
	entries []rentry
}

// NewRTree returns an empty R-tree.
func NewRTree() *RTree {
	return &RTree{root: &rnode{leaf: true}}
}

// Insert adds an item with the given bounding rectangle.
func (t *RTree) Insert(r geo.Rect, id int) {
	leaf := t.chooseLeaf(t.root, r)
	leaf.entries = append(leaf.entries, rentry{rect: r, id: id})
	t.splitUpward(leaf)
}

// chooseLeaf descends from n to the leaf whose enlargement to include r
// is minimal (ties broken by smaller area).
func (t *RTree) chooseLeaf(n *rnode, r geo.Rect) *rnode {
	t.path = t.path[:0]
	for !n.leaf {
		t.path = append(t.path, n)
		best := 0
		bestEnlarge := math.Inf(1)
		bestArea := math.Inf(1)
		for i, e := range n.entries {
			area := e.rect.Area()
			enlarged := e.rect.Union(r).Area() - area
			if enlarged < bestEnlarge || (enlarged == bestEnlarge && area < bestArea) {
				best, bestEnlarge, bestArea = i, enlarged, area
			}
		}
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
	}
	return n
}

func (t *RTree) splitUpward(n *rnode) {
	// Walk back up the recorded path splitting any overflowing node.
	for level := len(t.path); ; level-- {
		if len(n.entries) <= maxEntries {
			return
		}
		left, right := splitNode(n)
		if level == 0 {
			// n was the root: grow the tree.
			t.root = &rnode{
				leaf: false,
				entries: []rentry{
					{rect: nodeRect(left), child: left},
					{rect: nodeRect(right), child: right},
				},
			}
			return
		}
		parent := t.path[level-1]
		// Replace the entry pointing at n with the two halves.
		for i := range parent.entries {
			if parent.entries[i].child == n {
				parent.entries[i] = rentry{rect: nodeRect(left), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, rentry{rect: nodeRect(right), child: right})
		n = parent
	}
}

// splitNode performs Guttman's quadratic split of an overflowing node.
func splitNode(n *rnode) (*rnode, *rnode) {
	entries := n.entries
	// Pick the two seeds wasting the most area if grouped together.
	si, sj := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, si, sj = d, i, j
			}
		}
	}
	left := &rnode{leaf: n.leaf, entries: []rentry{entries[si]}}
	right := &rnode{leaf: n.leaf, entries: []rentry{entries[sj]}}
	lRect, rRect := entries[si].rect, entries[sj].rect

	for k, e := range entries {
		if k == si || k == sj {
			continue
		}
		remaining := len(entries) - k - 1
		// Force assignment if one group must absorb the rest to reach
		// the minimum fill.
		switch {
		case len(left.entries)+remaining+1 <= minEntries:
			left.entries = append(left.entries, e)
			lRect = lRect.Union(e.rect)
			continue
		case len(right.entries)+remaining+1 <= minEntries:
			right.entries = append(right.entries, e)
			rRect = rRect.Union(e.rect)
			continue
		}
		dl := lRect.Union(e.rect).Area() - lRect.Area()
		dr := rRect.Union(e.rect).Area() - rRect.Area()
		if dl < dr || (dl == dr && lRect.Area() < rRect.Area()) {
			left.entries = append(left.entries, e)
			lRect = lRect.Union(e.rect)
		} else {
			right.entries = append(right.entries, e)
			rRect = rRect.Union(e.rect)
		}
	}
	return left, right
}

func nodeRect(n *rnode) geo.Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Search appends to dst the IDs of all items whose rectangles intersect q
// and returns the extended slice.
func (t *RTree) Search(q geo.Rect, dst []int) []int {
	return searchNode(t.root, q, dst)
}

func searchNode(n *rnode, q geo.Rect, dst []int) []int {
	for _, e := range n.entries {
		if !e.rect.Intersects(q) {
			continue
		}
		if n.leaf {
			dst = append(dst, e.id)
		} else {
			dst = searchNode(e.child, q, dst)
		}
	}
	return dst
}
