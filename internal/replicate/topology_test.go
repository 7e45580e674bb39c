package replicate

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

func threeNodeTopo() *Topology {
	return &Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: "http://a:8080"},
		{ID: "b", URL: "http://b:8080"},
		{ID: "c", URL: "http://c:8080"},
	}}
}

// TestRingDeterministic: ownership is a pure function of the topology —
// two rings over the same nodes agree on every user, regardless of node
// listing order.
func TestRingDeterministic(t *testing.T) {
	r1 := NewRing(threeNodeTopo())
	shuffled := &Topology{Version: 1, Nodes: []Node{
		{ID: "c", URL: "http://c:8080"},
		{ID: "a", URL: "http://a:8080"},
		{ID: "b", URL: "http://b:8080"},
	}}
	r2 := NewRing(shuffled)
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("user-%04d", i)
		if r1.Owner(u) != r2.Owner(u) {
			t.Fatalf("owner of %s depends on node order: %s vs %s", u, r1.Owner(u), r2.Owner(u))
		}
	}
}

// TestRingBalance: with the default vnode count no node owns a
// degenerate share.
func TestRingBalance(t *testing.T) {
	r := NewRing(threeNodeTopo())
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("user-%04d", i))]++
	}
	for id, c := range counts {
		if c < n/10 {
			t.Errorf("node %s owns only %d/%d users", id, c, n)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own users: %v", len(counts), counts)
	}
}

// TestRingStability: adding a fourth node reassigns roughly 1/4 of the
// keyspace — consistent hashing must not reshuffle everything.
func TestRingStability(t *testing.T) {
	before := NewRing(threeNodeTopo())
	bigger := threeNodeTopo()
	bigger.Nodes = append(bigger.Nodes, Node{ID: "d", URL: "http://d:8080"})
	after := NewRing(bigger)
	const n = 3000
	moved, toNew := 0, 0
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("user-%04d", i)
		if before.Owner(u) != after.Owner(u) {
			moved++
			if after.Owner(u) == "d" {
				toNew++
			}
		}
	}
	if moved != toNew {
		t.Errorf("%d users moved between surviving nodes; only moves to the new node are allowed", moved-toNew)
	}
	if moved == 0 || moved > n/2 {
		t.Fatalf("adding one node to three moved %d/%d users, want roughly n/4", moved, n)
	}
}

func TestLoadTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topology.json")
	good := `{"version": 3, "vnodes": 32, "nodes": [
		{"id": "a", "url": "http://a:8080", "standby": "http://a2:8080"},
		{"id": "b", "url": "http://b:8080"}
	]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Version != 3 || topo.VNodes != 32 || len(topo.Nodes) != 2 || topo.Nodes[0].Standby != "http://a2:8080" {
		t.Fatalf("loaded topology: %+v", topo)
	}

	for name, bad := range map[string]string{
		"no nodes":  `{"version": 1, "nodes": []}`,
		"dup id":    `{"version": 1, "nodes": [{"id":"a","url":"http://a"},{"id":"a","url":"http://b"}]}`,
		"empty id":  `{"version": 1, "nodes": [{"id":"","url":"http://a"}]}`,
		"empty url": `{"version": 1, "nodes": [{"id":"a","url":""}]}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTopology(path); err == nil {
			t.Errorf("%s: LoadTopology accepted invalid topology", name)
		}
	}
	if _, err := LoadTopology(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file: LoadTopology returned nil error")
	}
}

// TestHash64IsFNV1a: the written-out loop places every user where
// hash/fnv did, so no ring moved.
func TestHash64IsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "user-000", "user-1999", "a#0", "b#63", "ünï"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := hash64(s), mix64(h.Sum64()); got != want {
			t.Fatalf("hash64(%q) = %x, hash/fnv says %x", s, got, want)
		}
	}
}
