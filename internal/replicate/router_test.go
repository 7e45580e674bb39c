package replicate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
)

// fakeNode is a scripted pphcr-server stand-in: enough surface for the
// router (readyz, writes stamping a WAL sequence header, the follower
// wait/promote endpoints) without the weight of a real System.
type fakeNode struct {
	srv *httptest.Server

	mu        sync.Mutex
	users     []string // users whose writes landed here
	walSeq    uint64   // stamped on write responses; 0 omits the header
	ready     atomic.Bool
	waits     []uint64 // /replication/wait seq values observed
	waitCode  int      // response code for /replication/wait (default 200)
	promotes  int
	rebalance []RebalanceRequest
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	f := &fakeNode{waitCode: http.StatusOK}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			http.Error(w, `{"ready":false}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"ready":true}`)
	})
	write := func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var probe struct {
			UserID string `json:"user_id"`
		}
		json.Unmarshal(body, &probe)
		f.mu.Lock()
		if probe.UserID != "" {
			f.users = append(f.users, probe.UserID)
		}
		seq := f.walSeq
		f.mu.Unlock()
		if seq > 0 {
			w.Header().Set("X-Pphcr-Wal-Seq", fmt.Sprint(seq))
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	}
	mux.HandleFunc("POST /api/feedback", write)
	mux.HandleFunc("POST /api/users", write)
	mux.HandleFunc("GET /api/users", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		users := append([]string(nil), f.users...)
		f.mu.Unlock()
		json.NewEncoder(w).Encode(users)
	})
	mux.HandleFunc("GET /api/plan", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"served":"leader"}`)
	})
	mux.HandleFunc("GET /replication/wait", func(w http.ResponseWriter, r *http.Request) {
		seq, _ := parseUint(r.URL.Query().Get("seq"))
		f.mu.Lock()
		f.waits = append(f.waits, seq)
		code := f.waitCode
		f.mu.Unlock()
		if code != http.StatusOK {
			http.Error(w, `{"error":"lagging"}`, code)
			return
		}
		fmt.Fprintln(w, `{"applied":true}`)
	})
	mux.HandleFunc("POST /replication/promote", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.promotes++
		f.mu.Unlock()
		fmt.Fprintln(w, `{"promoted":true}`)
	})
	mux.HandleFunc("POST /replication/rebalance", func(w http.ResponseWriter, r *http.Request) {
		var req RebalanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.rebalance = append(f.rebalance, req)
		f.users = append(f.users, req.Users...)
		f.mu.Unlock()
		json.NewEncoder(w).Encode(RebalanceResponse{Users: len(req.Users), Applied: len(req.Users)})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func parseUint(s string) (uint64, error) {
	var v uint64
	_, err := fmt.Sscanf(s, "%d", &v)
	return v, err
}

func (f *fakeNode) seenUsers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.users...)
}

func (f *fakeNode) setWalSeq(seq uint64) {
	f.mu.Lock()
	f.walSeq = seq
	f.mu.Unlock()
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body)
	return resp
}

// TestRouterRoutesByOwnership: every user's writes land on the ring
// owner, consistently.
func TestRouterRoutesByOwnership(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	topo := &Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: a.srv.URL},
		{ID: "b", URL: b.srv.URL},
	}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(topo)
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	ring := NewRing(topo)

	byNode := map[string]*fakeNode{"a": a, "b": b}
	want := map[string][]string{}
	for i := 0; i < 40; i++ {
		user := fmt.Sprintf("user-%03d", i)
		owner := ring.Owner(user)
		want[owner] = append(want[owner], user)
		resp := postJSON(t, front.URL+"/api/feedback", fmt.Sprintf(`{"user_id":%q,"item_id":"it","kind":"like"}`, user))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write for %s: http %d", user, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Pphcr-Node"); got != owner {
			t.Fatalf("user %s forwarded to %s, ring owner is %s", user, got, owner)
		}
	}
	if len(want["a"]) == 0 || len(want["b"]) == 0 {
		t.Fatalf("degenerate ring: ownership %v", map[string]int{"a": len(want["a"]), "b": len(want["b"])})
	}
	for id, node := range byNode {
		got := node.seenUsers()
		if len(got) != len(want[id]) {
			t.Fatalf("node %s saw %d writes, want %d", id, len(got), len(want[id]))
		}
	}
}

// TestRouterAckBarrier: a write response carrying a WAL sequence holds
// the client ack until the follower confirms; a lagging follower turns
// the ack into 504.
func TestRouterAckBarrier(t *testing.T) {
	leader, standby := newFakeNode(t), newFakeNode(t)
	leader.setWalSeq(42)
	topo := &Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: leader.srv.URL, Standby: standby.srv.URL},
	}}
	router := NewRouter(topo)
	router.AckTimeout = 500 * time.Millisecond
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp := postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it","kind":"like"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acked write: http %d", resp.StatusCode)
	}
	standby.mu.Lock()
	waits := append([]uint64(nil), standby.waits...)
	standby.mu.Unlock()
	if len(waits) != 1 || waits[0] != 42 {
		t.Fatalf("follower wait calls: %v, want [42]", waits)
	}
	if got := resp.Header.Get("X-Pphcr-Wal-Seq"); got != "42" {
		t.Fatalf("wal seq header not propagated: %q", got)
	}

	// Reads do not touch the barrier.
	readResp, err := http.Get(front.URL + "/api/plan?user=u1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, readResp.Body)
	readResp.Body.Close()
	standby.mu.Lock()
	nWaits := len(standby.waits)
	standby.mu.Unlock()
	if nWaits != 1 {
		t.Fatalf("read triggered the ack barrier: %d waits", nWaits)
	}

	// A follower that cannot confirm turns the write into 504 — NOT
	// acknowledged.
	standby.mu.Lock()
	standby.waitCode = http.StatusGatewayTimeout
	standby.mu.Unlock()
	resp = postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it2","kind":"like"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unconfirmed write: http %d, want 504", resp.StatusCode)
	}
}

// TestRouterRefusesWriteToCrashedLeader: a leader whose Durability has
// crashed refuses a write rather than applying it unlogged, so the
// router answers it non-2xx although the follower holds the leader's
// last sequence, the stamp an unlogged write would carry.
func TestRouterRefusesWriteToCrashedLeader(t *testing.T) {
	leader, _, cfg := newWorldSystem(t, 47)
	dir := t.TempDir()
	dur, err := openLeader(t, leader, dir)
	if err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewServer(leader)
	api.SetWALSeq(dur.WALSeq)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	NewSource(dir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	leaderSrv := httptest.NewServer(mux)
	defer leaderSrv.Close()

	standby, err := NewStandby(freshSystem(t, cfg), t.TempDir(), leaderSrv.URL, "/replication")
	if err != nil {
		t.Fatal(err)
	}
	fmux := http.NewServeMux()
	standby.Mount(fmux, "/replication")
	followerSrv := httptest.NewServer(fmux)
	defer followerSrv.Close()
	stop := make(chan struct{})
	defer close(stop)
	go standby.Run(stop)

	front := httptest.NewServer(NewRouter(&Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: leaderSrv.URL, Standby: followerSrv.URL},
	}}).Handler())
	defer front.Close()
	if resp := postJSON(t, front.URL+"/api/users", `{"user_id":"u1","name":"U","age":30,"interests":["news"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register through the router: http %d", resp.StatusCode)
	}
	dur.Crash()
	resp := postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it","kind":"like","unix":1479200000}`)
	if resp.StatusCode < 300 {
		t.Fatalf("write to a crashed leader: http %d, want a refusal", resp.StatusCode)
	}
}

// TestRouterFailover: SIGKILL semantics — the leader's listener goes
// away, the router detects it past the threshold, promotes the standby,
// and traffic flows there with the barrier disabled (the promoted node
// has no follower).
func TestRouterFailover(t *testing.T) {
	leader, standby := newFakeNode(t), newFakeNode(t)
	leader.setWalSeq(7)
	topo := &Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: leader.srv.URL, Standby: standby.srv.URL},
	}}
	router := NewRouter(topo)
	router.HealthInterval = 5 * time.Millisecond
	router.HealthTimeout = 200 * time.Millisecond
	router.FailThreshold = 2
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	stop := make(chan struct{})
	defer close(stop)
	go router.Run(stop)

	resp := postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it","kind":"like"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-failover write: http %d", resp.StatusCode)
	}
	standby.mu.Lock()
	waitsBefore := len(standby.waits) // the pre-failover write's barrier
	standby.mu.Unlock()

	leader.srv.Close() // the kill

	deadline := time.Now().Add(10 * time.Second)
	for router.failovers.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never promoted the standby")
		}
		time.Sleep(5 * time.Millisecond)
	}
	standby.mu.Lock()
	promotes := standby.promotes
	standby.mu.Unlock()
	if promotes != 1 {
		t.Fatalf("standby promoted %d times, want 1", promotes)
	}
	if ms := router.lastFailoverMs.Load(); ms < 0 {
		t.Fatalf("negative failover duration %d", ms)
	}

	// Post-promotion traffic reaches the standby; the ack barrier is off
	// (no /replication/wait calls — the standby IS the leader now).
	standby.setWalSeq(9)
	resp = postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it3","kind":"like"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover write: http %d", resp.StatusCode)
	}
	if got := standby.seenUsers(); len(got) == 0 {
		t.Fatal("post-failover write did not reach the promoted standby")
	}
	standby.mu.Lock()
	nWaits := len(standby.waits)
	standby.mu.Unlock()
	if nWaits != waitsBefore {
		t.Fatalf("promoted partition still ran the ack barrier: %d waits, want %d", nWaits, waitsBefore)
	}

	// /router/stats reflects the failover.
	var st RouterStats
	statsResp, err := http.Get(front.URL + "/router/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Failovers != 1 || len(st.Nodes) != 1 || !st.Nodes[0].Promoted {
		t.Fatalf("stats after failover: %+v", st)
	}
}

// TestRouterDegradedWrites: between detection and promotion, writes get
// 503 + Retry-After while reads are served stale by the standby.
func TestRouterDegradedWrites(t *testing.T) {
	leader, standby := newFakeNode(t), newFakeNode(t)
	topo := &Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: leader.srv.URL, Standby: standby.srv.URL},
	}}
	router := NewRouter(topo)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// Force the degraded window by hand: leader marked dead, not yet
	// promoted (exactly the state between detection and promote-OK).
	ns := router.ownerFor("u1")
	ns.mu.Lock()
	ns.healthy = false
	ns.mu.Unlock()

	resp := postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it","kind":"like"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write during promotion window: http %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	readResp, err := http.Get(front.URL + "/api/plan?user=u1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, readResp.Body)
	readResp.Body.Close()
	if readResp.StatusCode != http.StatusOK {
		t.Fatalf("stale read during promotion window: http %d, want 200", readResp.StatusCode)
	}
}

// TestReloadTopologyRebalance: adding a node moves exactly the users
// whose ring owner changed, by replaying their slice on the new owner.
func TestReloadTopologyRebalance(t *testing.T) {
	a, b, c := newFakeNode(t), newFakeNode(t), newFakeNode(t)
	topoV1 := &Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: a.srv.URL},
		{ID: "b", URL: b.srv.URL},
	}}
	router := NewRouter(topoV1)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	oldRing := NewRing(topoV1)
	users := make([]string, 60)
	for i := range users {
		users[i] = fmt.Sprintf("user-%03d", i)
		postJSON(t, front.URL+"/api/feedback", fmt.Sprintf(`{"user_id":%q,"item_id":"it","kind":"like"}`, users[i]))
	}

	topoV2 := &Topology{Version: 2, Nodes: []Node{
		{ID: "a", URL: a.srv.URL},
		{ID: "b", URL: b.srv.URL},
		{ID: "c", URL: c.srv.URL},
	}}
	newRing := NewRing(topoV2)
	wantMoved := map[string]bool{}
	for _, u := range users {
		if oldRing.Owner(u) != newRing.Owner(u) {
			wantMoved[u] = true
		}
	}
	if len(wantMoved) == 0 {
		t.Fatal("degenerate test: adding a node moved no users")
	}

	moved, err := router.ReloadTopology(topoV2)
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(wantMoved) {
		t.Fatalf("moved %d users, ring says %d changed owner", moved, len(wantMoved))
	}
	// Every moved user was requested for replay on its new owner.
	gotMoved := map[string]bool{}
	for _, node := range []*fakeNode{a, b, c} {
		node.mu.Lock()
		for _, req := range node.rebalance {
			for _, u := range req.Users {
				gotMoved[u] = true
			}
		}
		node.mu.Unlock()
	}
	for u := range wantMoved {
		if !gotMoved[u] {
			t.Errorf("user %s changed owner but was not rebalanced", u)
		}
	}
	for u := range gotMoved {
		if !wantMoved[u] {
			t.Errorf("user %s was rebalanced but did not change owner", u)
		}
	}

	// Stale version reload is refused.
	if _, err := router.ReloadTopology(topoV2); err == nil {
		t.Fatal("reloading the same topology version must fail")
	}

	// New traffic for a moved user now routes to its new owner.
	for _, u := range users {
		if newRing.Owner(u) == "c" {
			resp := postJSON(t, front.URL+"/api/feedback", fmt.Sprintf(`{"user_id":%q,"item_id":"x","kind":"like"}`, u))
			if got := resp.Header.Get("X-Pphcr-Node"); got != "c" {
				t.Fatalf("post-rebalance write for %s routed to %s, want c", u, got)
			}
			break
		}
	}
}

// TestRebalanceFiltersUsers runs the real Rebalance against a real
// leader WAL: only the moved users' history lands on the destination,
// and it is re-logged durably there.
func TestRebalanceFiltersUsers(t *testing.T) {
	leader, w, cfg := newWorldSystem(t, 45)
	leaderDir := t.TempDir()
	dur, err := openLeader(t, leader, leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	users := driveLeader(t, leader, w, 4, 20)

	mux := http.NewServeMux()
	NewSource(leaderDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dest := freshSystem(t, cfg)
	destDir := t.TempDir()
	if _, err := openLeader(t, dest, destDir); err != nil {
		t.Fatal(err)
	}
	movedUsers := users[:2]
	applied, err := Rebalance(t.Context(), dest, srv.URL, "/replication", movedUsers)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("rebalance applied nothing")
	}
	for _, u := range movedUsers {
		if got, want := dest.Feedback.ByUser(u), leader.Feedback.ByUser(u); len(got) != len(want) {
			t.Fatalf("user %s: dest has %d events, source has %d", u, len(got), len(want))
		}
	}
	for _, u := range users[2:] {
		if got := dest.Feedback.ByUser(u); len(got) != 0 {
			t.Fatalf("unmoved user %s leaked %d events to dest", u, len(got))
		}
	}
	// The replay went through the destination's entry points with its
	// mutation hook attached: the moved history is in its own WAL, so a
	// recovery of the destination directory still has it.
	recovered := freshSystem(t, cfg)
	if _, err := openDir(t, recovered, copyDir(t, destDir)); err != nil {
		t.Fatal(err)
	}
	for _, u := range movedUsers {
		if got, want := recovered.Feedback.ByUser(u), leader.Feedback.ByUser(u); len(got) != len(want) {
			t.Fatalf("user %s after dest recovery: %d events, want %d", u, len(got), len(want))
		}
	}
}

// openLeader opens leader-shaped durability (synchronous, retained
// segments) on dir; openDir opens plain recovery durability.
func openLeader(t *testing.T, sys *pphcr.System, dir string) (*pphcr.Durability, error) {
	t.Helper()
	return pphcr.OpenDurability(sys, pphcr.DurabilityOptions{
		Dir: dir, Sync: durable.SyncAlways, SegmentBytes: 16 << 10, RetainSegments: true,
	})
}

func openDir(t *testing.T, sys *pphcr.System, dir string) (*pphcr.Durability, error) {
	t.Helper()
	return pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: dir})
}
