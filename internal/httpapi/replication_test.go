package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pphcr"
	"pphcr/internal/synth"
)

func newReplServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 2, Users: 2, Stations: 2, PodcastsPerDay: 10,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.NewWorld(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One catalog item, for the tests that inject it.
	if _, err := sys.IngestPodcast(w.Corpus[0]); err != nil {
		t.Fatal(err)
	}
	api := NewServer(sys)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, api
}

// TestWriteAckHeader: with a WAL-sequence source attached, successful
// writes carry HeaderWalSeq; without one the header is absent.
func TestWriteAckHeader(t *testing.T) {
	ts, api := newReplServer(t)
	body := `{"user_id":"u1","name":"U","age":30,"interests":["news"]}`
	resp, err := http.Post(ts.URL+"/api/users", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: http %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderWalSeq); got != "" {
		t.Fatalf("header %q stamped with no WAL attached", got)
	}

	api.SetWALSeq(func() uint64 { return 17 })
	resp, err = http.Post(ts.URL+"/api/feedback", "application/json",
		strings.NewReader(`{"user_id":"u1","item_id":"x","kind":"like","unix":1479081600}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback: http %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderWalSeq); got != "17" {
		t.Fatalf("wal seq header = %q, want 17", got)
	}
}

// TestFollowerWriteGate: a follower answers 503 to every mutation but
// still serves reads, reports its role on /readyz and /stats, and flips
// the pphcr_role metric series.
func TestFollowerWriteGate(t *testing.T) {
	ts, api := newReplServer(t)
	api.SetRole(RoleFollower)
	api.SetReplicationLag(func() float64 { return 1.5 })
	item := api.sys.Repo.All()[0].ID

	for _, req := range []struct{ method, path, body string }{
		{"POST", "/api/users", `{"user_id":"u2"}`},
		{"POST", "/api/track", `{"user_id":"u2","lat":1,"lon":1,"unix":1479081600}`},
		{"POST", "/api/feedback", `{"user_id":"u2","item_id":"x","kind":"like"}`},
		{"POST", "/api/compact?user=u2", ""},
		{"POST", "/dashboard/inject", `{"user_id":"u2","item_id":"` + item + `"}`},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s on follower: http %d, want 503", req.method, req.path, resp.StatusCode)
		}
	}
	if got := api.sys.PendingInjections("u2"); len(got) != 0 {
		t.Fatalf("follower queued injections %v outside the leader's WAL", got)
	}

	readResp, err := http.Get(ts.URL + "/api/users")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, readResp.Body)
	readResp.Body.Close()
	if readResp.StatusCode != http.StatusOK {
		t.Fatalf("read on follower: http %d", readResp.StatusCode)
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rv readyView
	if err := json.NewDecoder(ready.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if rv.Role != RoleFollower {
		t.Fatalf("/readyz role = %q, want follower", rv.Role)
	}

	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sv StatsView
	if err := json.NewDecoder(stats.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if sv.Role != RoleFollower || sv.ReplicationLagSeconds != 1.5 {
		t.Fatalf("/stats role=%q lag=%v, want follower/1.5", sv.Role, sv.ReplicationLagSeconds)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`pphcr_role{role="follower"} 1`,
		`pphcr_role{role="leader"} 0`,
		`pphcr_role{role="promoting"} 0`,
		`pphcr_replication_lag_seconds 1.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Promotion flips everything back to a writable leader.
	api.SetRole(RoleLeader)
	resp, err := http.Post(ts.URL+"/api/users", "application/json",
		strings.NewReader(`{"user_id":"u3"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("write after promotion: http %d", resp.StatusCode)
	}
}

// TestFollowerRecommendationsKeepInjections: a follower's
// /api/recommendations pins a pending injection first without consuming
// it — a consume is a logged mutation only the leader makes — and the
// leader's consumes it.
func TestFollowerRecommendationsKeepInjections(t *testing.T) {
	ts, api := newReplServer(t)
	item := api.sys.Repo.All()[0].ID
	if err := api.sys.Inject("u1", item); err != nil {
		t.Fatal(err)
	}
	first := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/recommendations?user=u1&unix=1479081600")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var recs []RecommendationView
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil || len(recs) == 0 {
			t.Fatalf("recommendations: %v (%d items)", err, len(recs))
		}
		return recs[0].ItemID
	}
	api.SetRole(RoleFollower)
	for i := 0; i < 2; i++ {
		if got := first(); got != item {
			t.Fatalf("follower read %d: first item %s, want the injected %s", i, got, item)
		}
		if got := api.sys.PendingInjections("u1"); len(got) != 1 || got[0] != item {
			t.Fatalf("follower read %d changed the pending injections: %v", i, got)
		}
	}
	api.SetRole(RoleLeader)
	if got := first(); got != item {
		t.Fatalf("leader read: first item %s, want the injected %s", got, item)
	}
	if got := api.sys.PendingInjections("u1"); len(got) != 0 {
		t.Fatalf("leader read left %v pending", got)
	}
}

// TestPromoteSwapsChecksOnALiveServer: promotion replaces the readiness,
// degraded and /stats providers while /readyz, /metrics and /stats are
// being served. Under -race every setter must be ordered against the
// handlers that read it.
func TestPromoteSwapsChecksOnALiveServer(t *testing.T) {
	_, api := newReplServer(t)
	h := api.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			api.SetReadinessCheck(func() error { return nil })
			api.SetDegradedCheck(func() error { return nil })
			api.SetDurabilityStats(func() interface{} { return i })
			api.SetWarmerStats(func() interface{} { return i })
		}
	}()
	for _, path := range []string{"/readyz", "/metrics", "/stats"} {
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: http %d", path, rec.Code)
			}
		}
	}
	<-done
}
