package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/feedback"
	"pphcr/internal/synth"
)

// newWarmableServer builds a REST server whose backing system can serve
// warm plans: dense candidate corpus, registered persona, compacted
// commute history.
func newWarmableServer(t *testing.T) (*httptest.Server, *Server, *pphcr.System, *synth.World, string) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 21, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 40,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.NewWorld(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	persona := w.Personas[0]
	user := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	commutes, err := w.Commutes(persona, w.Params.StartDate, w.Params.Days)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, sys, w, user
}

// planBody builds the /api/plan payload for the first few minutes of the
// next Monday's morning commute.
func planBody(t *testing.T, w *synth.World, user string) PlanRequest {
	t.Helper()
	day := w.Params.StartDate.AddDate(0, 0, 7)
	full, _, err := w.CommuteTrace(w.Personas[0], day, true)
	if err != nil {
		t.Fatal(err)
	}
	var fixes []TrackBody
	for _, fix := range full.Head(3 * time.Minute) {
		fixes = append(fixes, TrackBody{
			UserID: user, Lat: fix.Point.Lat, Lon: fix.Point.Lon, Unix: fix.Time.Unix(),
		})
	}
	return PlanRequest{UserID: user, Fixes: fixes}
}

func TestPlanEndpointServesWarmPlan(t *testing.T) {
	ts, _, _, w, user := newWarmableServer(t)
	body := planBody(t, w, user)

	// First request computes cold and populates the cache.
	resp := postJSON(t, ts.URL+"/api/plan", body)
	var first PlanView
	decode(t, resp, &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !first.Proactive || len(first.Items) == 0 {
		t.Fatalf("cold plan unusable: %+v", first)
	}
	if first.Served != pphcr.PlanSourceCold {
		t.Fatalf("first serve = %q, want cold", first.Served)
	}

	// Second identical request is served from the warm cache with the
	// same items.
	resp2 := postJSON(t, ts.URL+"/api/plan", body)
	var second PlanView
	decode(t, resp2, &second)
	if second.Served != pphcr.PlanSourceWarm {
		t.Fatalf("second serve = %q, want warm", second.Served)
	}
	if len(second.Items) != len(first.Items) {
		t.Fatalf("warm items = %d, cold items = %d", len(second.Items), len(first.Items))
	}
	for i := range second.Items {
		if second.Items[i].ItemID != first.Items[i].ItemID ||
			second.Items[i].StartSeconds != first.Items[i].StartSeconds {
			t.Fatalf("warm item %d = %+v, cold = %+v", i, second.Items[i], first.Items[i])
		}
	}
}

func TestPlanEndpointRegeneratesStalePlan(t *testing.T) {
	ts, _, sys, w, user := newWarmableServer(t)
	body := planBody(t, w, user)

	resp := postJSON(t, ts.URL+"/api/plan", body)
	var first PlanView
	decode(t, resp, &first)
	if first.Served != pphcr.PlanSourceCold {
		t.Fatalf("first serve = %q", first.Served)
	}

	// Feedback invalidates the user's warm plans: the next request must
	// regenerate (cold), not serve the stale entry.
	it := sys.Repo.All()[0]
	if err := sys.AddFeedback(feedback.Event{
		UserID: user, ItemID: it.ID, Kind: feedback.Dislike,
		At: time.Unix(body.Fixes[len(body.Fixes)-1].Unix, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	resp2 := postJSON(t, ts.URL+"/api/plan", body)
	var second PlanView
	decode(t, resp2, &second)
	if second.Served != pphcr.PlanSourceCold {
		t.Fatalf("post-feedback serve = %q, want cold", second.Served)
	}
	// And the regenerated plan re-arms the cache.
	resp3 := postJSON(t, ts.URL+"/api/plan", body)
	var third PlanView
	decode(t, resp3, &third)
	if third.Served != pphcr.PlanSourceWarm {
		t.Fatalf("re-warmed serve = %q, want warm", third.Served)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, srv, sys, w, user := newWarmableServer(t)
	srv.SetWarmerStats(func() interface{} {
		return map[string]int{"plans_warmed": 7}
	})
	if err := sys.AddFeedback(feedback.Event{
		UserID: user, ItemID: "it", Kind: feedback.Like,
		At: w.Params.StartDate, Categories: map[string]float64{"food": 1},
	}); err != nil {
		t.Fatal(err)
	}
	body := planBody(t, w, user)
	postJSON(t, ts.URL+"/api/plan", body).Body.Close()
	postJSON(t, ts.URL+"/api/plan", body).Body.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Cache struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			Entries int     `json:"entries"`
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
		Plan struct {
			Warm LatencyView `json:"warm"`
			Cold LatencyView `json:"cold"`
		} `json:"plan"`
		Feedback struct {
			Users      int   `json:"users"`
			LiveEvents int64 `json:"live_events"`
			IndexReads int64 `json:"index_reads"`
		} `json:"feedback"`
		Locks struct {
			Shards int   `json:"shards"`
			Ops    int64 `json:"ops"`
		} `json:"locks"`
		Warmer map[string]int `json:"warmer"`
	}
	decode(t, resp, &view)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if view.Cache.Hits < 1 || view.Cache.Misses < 1 || view.Cache.Entries == 0 {
		t.Fatalf("cache stats = %+v", view.Cache)
	}
	if view.Cache.HitRate <= 0 || view.Cache.HitRate >= 1 {
		t.Fatalf("hit rate = %v", view.Cache.HitRate)
	}
	if view.Plan.Cold.Count != 1 || view.Plan.Warm.Count != 1 {
		t.Fatalf("latency counts = %+v", view.Plan)
	}
	if view.Plan.Cold.AvgMicros <= 0 {
		t.Fatalf("cold latency not recorded: %+v", view.Plan.Cold)
	}
	if view.Warmer["plans_warmed"] != 7 {
		t.Fatalf("warmer stats = %v", view.Warmer)
	}
	// The preference-index and lock-contention counters are live: the
	// cold plan read preferences off the index, and the plan requests
	// went through the sharded per-user state.
	if view.Feedback.Users != 1 || view.Feedback.LiveEvents != 1 || view.Feedback.IndexReads == 0 {
		t.Fatalf("feedback stats = %+v", view.Feedback)
	}
	if view.Locks.Shards == 0 || view.Locks.Ops == 0 {
		t.Fatalf("lock stats = %+v", view.Locks)
	}
	// /api/stats serves the same view; bad method rejected.
	resp2, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/api/stats status = %d", resp2.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/stats", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /stats status = %d", resp3.StatusCode)
	}
}
