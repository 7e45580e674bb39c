package node

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/replicate"
	"pphcr/internal/synth"
)

var testWorld *synth.World

func newSystem(t *testing.T) *pphcr.System {
	t.Helper()
	if testWorld == nil {
		w, err := synth.GenerateWorld(synth.Params{
			Seed: 3, Days: 2, Users: 2, Stations: 2, PodcastsPerDay: 10,
			TrainingDocsPerCategory: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		testWorld = w
	}
	sys, err := pphcr.NewWorld(testWorld, 3)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// started is one node behind a live listener. drain closes the
// listener, then drains the node; Cleanup calls it too.
type started struct {
	n     *Node
	url   string
	drain func()
}

// start builds a node with o over a fresh System, runs boot (leader when
// leaderURL is empty, else follower of it) and serves it. Cleanup drains
// it after its listener closed, as pphcr-server does.
func start(t *testing.T, o Options, leaderURL string) started {
	t.Helper()
	sys := newSystem(t)
	api := httpapi.NewServer(sys)
	n := New(sys, api, o)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	if leaderURL == "" {
		if _, err := n.Open(); err != nil {
			t.Fatal(err)
		}
		if err := n.Lead(mux); err != nil {
			t.Fatal(err)
		}
	} else if err := n.Follow(mux, leaderURL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	drain := sync.OnceFunc(func() {
		ts.Close()
		n.Drain()
	})
	t.Cleanup(drain)
	return started{n: n, url: ts.URL, drain: drain}
}

// leading is the WAL n leads with, read under the lock promotion
// writes it under.
func leading(n *Node) *pphcr.Durability {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dur
}

// cluster starts a leader holding one acknowledged write and a follower
// with followerOpts that has applied it.
func cluster(t *testing.T, followerOpts Options) (follower started) {
	t.Helper()
	leader := start(t, Options{Dir: t.TempDir(), Sync: durable.SyncAlways, RetainWAL: true}, "")
	if code, _ := do(t, http.MethodPost, leader.url+"/api/users", `{"user_id":"u1","name":"U","age":30,"interests":["news"]}`); code != http.StatusCreated {
		t.Fatalf("register on leader: http %d", code)
	}
	follower = start(t, followerOpts, leader.url)
	deadline := time.Now().Add(10 * time.Second)
	for follower.n.standby.AppliedSeq() < leader.n.dur.WALSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower applied %d of %d", follower.n.standby.AppliedSeq(), leader.n.dur.WALSeq())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return follower
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// promoteView is the promote endpoint's answer.
type promoteView struct {
	Promoted   bool   `json:"promoted"`
	AppliedSeq uint64 `json:"applied_seq"`
	Already    bool   `json:"already"`
}

func promote(t *testing.T, url string) (int, promoteView) {
	t.Helper()
	code, body := do(t, http.MethodPost, url+"/replication/promote", "")
	var v promoteView
	if code == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("promote body %q: %v", body, err)
		}
	}
	return code, v
}

var walFamilies = []string{
	"pphcr_wal_append_duration_seconds",
	"pphcr_wal_fsync_duration_seconds",
	"pphcr_checkpoint_pause_seconds",
}

// TestPromoteStartsWhatABootedLeaderRuns: a promoted follower exports
// the WAL and checkpoint families and reports its warmer, as a booted
// leader with the same options does, and neither before promotion.
func TestPromoteStartsWhatABootedLeaderRuns(t *testing.T) {
	follower := cluster(t, Options{
		Dir: t.TempDir(), Sync: durable.SyncAlways, WarmWorkers: 1,
	})
	check := func(promoted bool) {
		t.Helper()
		_, metrics := do(t, http.MethodGet, follower.url+"/metrics", "")
		for _, fam := range walFamilies {
			if strings.Contains(metrics, fam) != promoted {
				t.Errorf("promoted=%v: /metrics has %s = %v", promoted, fam, !promoted)
			}
		}
		_, stats := do(t, http.MethodGet, follower.url+"/stats", "")
		var sv struct {
			Warmer     json.RawMessage `json:"warmer"`
			Durability json.RawMessage `json:"durability"`
		}
		if err := json.Unmarshal([]byte(stats), &sv); err != nil {
			t.Fatal(err)
		}
		if (sv.Warmer != nil) != promoted || (sv.Durability != nil) != promoted {
			t.Errorf("promoted=%v: /stats warmer %s, durability %s", promoted, sv.Warmer, sv.Durability)
		}
	}
	check(false)
	if code, _ := promote(t, follower.url); code != http.StatusOK {
		t.Fatalf("promote: http %d", code)
	}
	check(true)
	if code, body := do(t, http.MethodGet, follower.url+"/readyz", ""); code != http.StatusOK || !strings.Contains(body, `"role":"leader"`) {
		t.Fatalf("/readyz after promotion: http %d %s", code, body)
	}
}

// TestPromoteOpensTheWriteGate: a follower refuses writes with 503 and
// takes them once promoted, stamping the ack with its own WAL sequence.
func TestPromoteOpensTheWriteGate(t *testing.T) {
	follower := cluster(t, Options{Dir: t.TempDir(), Sync: durable.SyncAlways})
	body := `{"user_id":"u1","item_id":"x","kind":"like","unix":1479081600}`
	if code, _ := do(t, http.MethodPost, follower.url+"/api/feedback", body); code != http.StatusServiceUnavailable {
		t.Fatalf("write on follower: http %d, want 503", code)
	}
	if code, _ := promote(t, follower.url); code != http.StatusOK {
		t.Fatalf("promote: http %d", code)
	}
	before := leading(follower.n).WALSeq()
	if code, _ := do(t, http.MethodPost, follower.url+"/api/feedback", body); code != http.StatusAccepted {
		t.Fatalf("write after promotion: http %d, want 202", code)
	}
	if after := leading(follower.n).WALSeq(); after <= before {
		t.Fatalf("promoted write not in the promoted WAL: seq %d → %d", before, after)
	}
}

// TestPromoteTwiceAnswersAlready: a repeated promote (a router retrying
// a lost response) answers 200 with "already" and the same applied
// sequence, and keeps the WAL promotion opened. Drain then checkpoints
// that WAL.
func TestPromoteTwiceAnswersAlready(t *testing.T) {
	dir := t.TempDir()
	follower := cluster(t, Options{Dir: dir, Sync: durable.SyncAlways})
	code, first := promote(t, follower.url)
	if code != http.StatusOK || !first.Promoted || first.Already {
		t.Fatalf("first promote: http %d %+v", code, first)
	}
	dur := leading(follower.n)
	code, second := promote(t, follower.url)
	if code != http.StatusOK || !second.Already || second.AppliedSeq != first.AppliedSeq {
		t.Fatalf("second promote: http %d %+v, want already at applied_seq %d", code, second, first.AppliedSeq)
	}
	if leading(follower.n) != dur {
		t.Fatal("second promote reopened the WAL")
	}
	if ok, err := durable.Initialized(dir); err != nil || ok {
		t.Fatalf("checkpoint before Drain: %v %v", ok, err)
	}
	follower.drain()
	if ok, err := durable.Initialized(dir); err != nil || !ok {
		t.Fatalf("no final checkpoint after Drain: %v %v", ok, err)
	}
}

// TestPromoteRefusesAWedgedStandby: a standby that stopped applying
// (here: its leader speaks a WAL format it cannot parse) answers promote
// with 500, goes back to the follower role with /readyz at 503, and
// answers a retry the same way rather than "already".
func TestPromoteRefusesAWedgedStandby(t *testing.T) {
	foreign := http.NewServeMux()
	foreign.HandleFunc("GET /replication/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"format":"pphcr-wal-v0","wal_seq":0,"segments":[],"checkpoints":[]}`)
	})
	leader := httptest.NewServer(foreign)
	t.Cleanup(leader.Close)
	follower := start(t, Options{Dir: t.TempDir(), Sync: durable.SyncAlways}, leader.URL)
	deadline := time.Now().Add(10 * time.Second)
	for follower.n.standby.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("standby never wedged on a foreign WAL format")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if code, body := do(t, http.MethodPost, follower.url+"/replication/promote", ""); code != http.StatusInternalServerError || strings.Contains(body, "already") {
			t.Fatalf("promote %d: http %d %s, want 500", i+1, code, body)
		}
		code, body := do(t, http.MethodGet, follower.url+"/readyz", "")
		if code != http.StatusServiceUnavailable || !strings.Contains(body, `"role":"follower"`) {
			t.Fatalf("/readyz after refused promote %d: http %d %s, want 503 follower", i+1, code, body)
		}
	}
	if leading(follower.n) != nil {
		t.Fatal("a refused promotion left a WAL open")
	}
}

// TestOpenResetsAnUninitializedDirectory: WAL segments with no
// checkpoint are a boot that died mid-preload, so Open discards them and
// recovers nothing; once a checkpoint exists, Open recovers it.
func TestOpenResetsAnUninitializedDirectory(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, Sync: durable.SyncAlways}
	reopen := func() (*pphcr.System, *pphcr.Durability) {
		t.Helper()
		sys := newSystem(t)
		dur, err := New(sys, httpapi.NewServer(sys), o).Open()
		if err != nil {
			t.Fatal(err)
		}
		return sys, dur
	}

	sys, dur := reopen()
	if err := sys.RegisterUser(testWorld.Personas[0].Profile); err != nil {
		t.Fatal(err)
	}
	dur.Crash()
	sys, dur = reopen()
	if dur.Recovered() || sys.Profiles.Len() != 0 {
		t.Fatalf("uninitialized directory recovered %d users", sys.Profiles.Len())
	}

	if err := sys.RegisterUser(testWorld.Personas[0].Profile); err != nil {
		t.Fatal(err)
	}
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dur.Crash()
	sys, dur = reopen()
	defer dur.Crash()
	if !dur.Recovered() || sys.Profiles.Len() != 1 {
		t.Fatalf("checkpointed directory: recovered=%v users=%d, want true/1", dur.Recovered(), sys.Profiles.Len())
	}
}

// TestDrainReportsTheFinalCheckpoint: Drain over an open WAL writes the
// final checkpoint and says so, and the next boot replays nothing; Drain
// over a crashed WAL (the kill-node scenario's leader) says none was
// written.
func TestDrainReportsTheFinalCheckpoint(t *testing.T) {
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		sys := newSystem(t)
		n := New(sys, httpapi.NewServer(sys), Options{Dir: dir, Sync: durable.SyncAlways})
		dur, err := n.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RegisterUser(testWorld.Personas[0].Profile); err != nil {
			t.Fatal(err)
		}
		if crash {
			dur.Crash()
		}
		var log bytes.Buffer
		prev := slog.Default()
		slog.SetDefault(slog.New(slog.NewTextHandler(&log, nil)))
		n.Drain()
		slog.SetDefault(prev)

		want, not := "final checkpoint written", "no final checkpoint (crashed)"
		if crash {
			want, not = not, want
		}
		if !strings.Contains(log.String(), want) || strings.Contains(log.String(), not) {
			t.Fatalf("crash=%v: Drain logged %q, want %q", crash, log.String(), want)
		}
		if crash {
			continue
		}
		again := newSystem(t)
		rdur, err := New(again, httpapi.NewServer(again), Options{Dir: dir, Sync: durable.SyncAlways}).Open()
		if err != nil {
			t.Fatal(err)
		}
		if rdur.ReplayedEvents() != 0 || again.Profiles.Len() != 1 {
			t.Fatalf("after a drained shutdown: replayed %d, users %d; want 0 and 1", rdur.ReplayedEvents(), again.Profiles.Len())
		}
		rdur.Crash()
	}
}

// TestRouterAcksInjectOnceTheFollowerHasIt: an editorial injection sent
// through the router answers 2xx only once the partition's follower
// holds it, as every write does: the route table declares
// /dashboard/inject a write, so the router holds its ack for the
// follower.
func TestRouterAcksInjectOnceTheFollowerHasIt(t *testing.T) {
	leader := start(t, Options{Dir: t.TempDir(), Sync: durable.SyncAlways, RetainWAL: true}, "")
	var items []string
	for _, raw := range testWorld.Corpus[:3] {
		it, err := leader.n.sys.IngestPodcast(raw)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, it.ID)
	}
	follower := start(t, Options{Dir: t.TempDir(), Sync: durable.SyncAlways}, leader.url)
	router := replicate.NewRouter(&replicate.Topology{Version: 1, Nodes: []replicate.Node{
		{ID: "a", URL: leader.url, Standby: follower.url},
	}})
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	for i, item := range items {
		code, body := do(t, http.MethodPost, front.URL+"/dashboard/inject", `{"user_id":"u1","item_id":"`+item+`"}`)
		if code != http.StatusAccepted {
			t.Fatalf("inject %s through the router: http %d %s", item, code, body)
		}
		if got := follower.n.sys.PendingInjections("u1"); len(got) != i+1 || got[i] != item {
			t.Fatalf("acked inject %d: the follower holds %v", i, got)
		}
	}
}
