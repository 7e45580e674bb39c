// Package replicate is the multi-node layer: a static consistent-hash
// topology partitioning users across pphcr-server nodes, per-node WAL
// shipping to a warm standby, promotion of that standby when a leader
// dies, and WAL-slice rebalancing when the topology changes. The
// replication log is the PR 5 WAL itself — its total per-node sequence
// order means a follower that applies shipped records in sequence order
// reconstructs the leader bit for bit, and a follower's directory is a
// valid recovery directory at every instant.
package replicate

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
)

// Node is one partition in the topology: a leader serving its user
// slice and (optionally) a warm standby tailing the leader's WAL.
type Node struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Standby is the follower's base URL; empty runs the partition
	// unreplicated (no ack barrier, no failover target).
	Standby string `json:"standby,omitempty"`
}

// Topology is the static cluster layout: a versioned node list. Version
// strictly increases across topology changes; the router refuses to
// "reload" to an older or equal version, so a stale file cannot undo a
// rebalance.
type Topology struct {
	Version int `json:"version"`
	// VNodes is the number of ring points per node (default 64): enough
	// that ownership splits roughly evenly and a membership change moves
	// only ~1/N of the users.
	VNodes int    `json:"vnodes,omitempty"`
	Nodes  []Node `json:"nodes"`
}

// defaultVNodes balances ring-lookup cost against ownership skew.
const defaultVNodes = 64

// MaxVNodes bounds Topology.VNodes, which NewRing allocates per node.
const MaxVNodes = 1024

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replicate: reading topology: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("replicate: parsing topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("replicate: topology %s: %w", path, err)
	}
	return &t, nil
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 || t.VNodes < 0 || t.VNodes > MaxVNodes {
		return fmt.Errorf("%d nodes and %d vnodes: want nodes, and vnodes in [0, %d]", len(t.Nodes), t.VNodes, MaxVNodes)
	}
	seen := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.ID == "" || n.URL == "" {
			return fmt.Errorf("node needs id and url: %+v", n)
		}
		if seen[n.ID] {
			return fmt.Errorf("duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		for _, raw := range []string{n.URL, n.Standby} { // no standby: unreplicated
			if u, err := url.Parse(raw); raw != "" && (err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Host == "") {
				return fmt.Errorf("node %q: %q is not an http(s) URL with a host", n.ID, raw)
			}
		}
	}
	return nil
}

// Ring is the consistent-hash ownership function derived from a
// Topology: VNodes points per node on a 64-bit ring, a user owned by
// the first point at or clockwise of the user's hash. Immutable after
// construction — a topology change builds a new Ring.
type Ring struct {
	points []ringPoint
	byID   map[string]Node
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 is FNV-1a over s, then mixed. Written out because hash/fnv's
// hasher is two allocations behind an interface, and Owner runs once per
// forwarded request.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer. Raw FNV-1a of short sequential
// keys ("user-0001", "user-0002", ...) differs only in the low ~48 bits
// (the final byte's xor is followed by a single multiply with a ~2^40
// prime), so whole user blocks would collapse into one ring arc. The
// avalanche spreads them across the full 64-bit ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds the ring for a validated topology.
func NewRing(t *Topology) *Ring {
	vn := t.VNodes
	if vn <= 0 {
		vn = defaultVNodes
	}
	r := &Ring{
		points: make([]ringPoint, 0, vn*len(t.Nodes)),
		byID:   make(map[string]Node, len(t.Nodes)),
	}
	for _, n := range t.Nodes {
		r.byID[n.ID] = n
		for i := 0; i < vn; i++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", n.ID, i)),
				node: n.ID,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break deterministically so every process agrees.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node ID owning user.
func (r *Ring) Owner(user string) string {
	h := hash64(user)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}

// Node resolves a node ID to its topology entry.
func (r *Ring) Node(id string) (Node, bool) {
	n, ok := r.byID[id]
	return n, ok
}

// Nodes returns the topology entries in ID order.
func (r *Ring) Nodes() []Node {
	out := make([]Node, 0, len(r.byID))
	for _, n := range r.byID {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
