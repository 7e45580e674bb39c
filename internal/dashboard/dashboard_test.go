package dashboard_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pphcr"
	"pphcr/internal/dashboard"
	"pphcr/internal/durable"
	"pphcr/internal/geo"
	"pphcr/internal/httpapi"
	"pphcr/internal/profile"
	"pphcr/internal/synth"
)

// newTestDashboard serves the dashboard as the server binary does:
// through httpapi, which mounts its pages and its inject endpoint.
func newTestDashboard(t *testing.T) (*httptest.Server, *pphcr.System, *synth.World) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 15,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.NewWorld(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServer(sys).Handler())
	t.Cleanup(ts.Close)
	return ts, sys, w
}

// trackCommutes feeds several days of commutes into the system.
func trackCommutes(t *testing.T, sys *pphcr.System, w *synth.World, user string, days int) {
	t.Helper()
	persona := w.Personas[0]
	commutes, err := w.Commutes(persona, w.Params.StartDate, days)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		t.Fatal(err)
	}
}

func TestTrajectorySVG(t *testing.T) {
	ts, sys, w := newTestDashboard(t)
	trackCommutes(t, sys, w, "lilly", 5)
	if _, err := sys.CompactTracking("lilly"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/dashboard/trajectory?user=lilly&w=640&h=480")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	svg := string(body)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	// Raw GPS, simplified route and stay points all drawn.
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatalf("polylines = %d, want 2", strings.Count(svg, "<polyline"))
	}
	if !strings.Contains(svg, "<circle") {
		t.Fatal("no stay-point circles")
	}
	if !strings.Contains(svg, "visits") {
		t.Fatal("no visit labels")
	}
}

func TestTrajectorySVGUnknownUser(t *testing.T) {
	ts, _, _ := newTestDashboard(t)
	resp, err := http.Get(ts.URL + "/dashboard/trajectory?user=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRenderSVGDegenerate(t *testing.T) {
	// A single fix must still render (degenerate bounds get padding).
	v := dashboard.TrajectoryView{Fixes: geo.Polyline{{Lat: 45.07, Lon: 7.68}}}
	svg := dashboard.RenderSVG(v, 0, 0) // default size
	if !strings.Contains(svg, `width="800"`) {
		t.Fatal("default width not applied")
	}
}

func TestRecommendationsHTML(t *testing.T) {
	ts, sys, w := newTestDashboard(t)
	if err := sys.RegisterUser(profile.Profile{UserID: "greg", Interests: []string{"technology"}}); err != nil {
		t.Fatal(err)
	}
	nowUnix := w.Params.StartDate.AddDate(0, 0, w.Params.Days).Unix()
	resp, err := http.Get(ts.URL + "/dashboard/recommendations?user=greg&unix=" + itoa(nowUnix))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	html := string(body)
	if !strings.Contains(html, "Recommendations for greg") {
		t.Fatal("title missing")
	}
	if !strings.Contains(html, "<table") || !strings.Contains(html, "Compound") {
		t.Fatal("table missing")
	}
	// Missing user.
	resp2, err := http.Get(ts.URL + "/dashboard/recommendations")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user status = %d", resp2.StatusCode)
	}
}

func TestInjectEndpoint(t *testing.T) {
	ts, sys, _ := newTestDashboard(t)
	itemID := sys.Repo.All()[0].ID
	buf, err := json.Marshal(httpapi.InjectBody{UserID: "greg", ItemID: itemID})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/dashboard/inject", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["pending"]) != 1 || out["pending"][0] != itemID {
		t.Fatalf("pending = %v", out)
	}
	// Unknown item rejected.
	buf2, _ := json.Marshal(httpapi.InjectBody{UserID: "greg", ItemID: "missing"})
	resp2, err := http.Post(ts.URL+"/dashboard/inject", "application/json", bytes.NewReader(buf2))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown item status = %d", resp2.StatusCode)
	}
	// GET not allowed.
	resp3, err := http.Get(ts.URL + "/dashboard/inject")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp3.StatusCode)
	}
}

// TestPreviewKeepsInjection: the dashboard's preview shows a pending
// injection pinned first without consuming it, so the listener's app
// still gets it pinned first from /api/recommendations.
func TestPreviewKeepsInjection(t *testing.T) {
	ts, sys, w := newTestDashboard(t)
	item := sys.Repo.All()[0]
	if err := sys.RegisterUser(profile.Profile{UserID: "greg", Interests: []string{"technology"}}); err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(httpapi.InjectBody{UserID: "greg", ItemID: item.ID})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/dashboard/inject", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("inject: http %d", resp.StatusCode)
	}
	unix := itoa(w.Params.StartDate.AddDate(0, 0, w.Params.Days).Unix())
	resp, err = http.Get(ts.URL + "/dashboard/recommendations?user=greg&unix=" + unix)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "<td>0</td><td>"+item.Title+"</td>") {
		t.Fatalf("preview does not pin %q first", item.Title)
	}
	if got := sys.PendingInjections("greg"); len(got) != 1 || got[0] != item.ID {
		t.Fatalf("pending after the preview = %v, want [%s]", got, item.ID)
	}
	resp, err = http.Get(ts.URL + "/api/recommendations?user=greg&unix=" + unix)
	if err != nil {
		t.Fatal(err)
	}
	var recs []httpapi.RecommendationView
	err = json.NewDecoder(resp.Body).Decode(&recs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].ItemID != item.ID {
		t.Fatalf("/api/recommendations after the preview = %v, want %s first", recs, item.ID)
	}
	if got := sys.PendingInjections("greg"); len(got) != 0 {
		t.Fatalf("the listener's fetch left %v pending", got)
	}
}

// TestInjectUnloggedAnswers503: an injection the durability hook
// refused is the node's fault, so the dashboard answers it 503; an
// unknown item is still a 400.
func TestInjectUnloggedAnswers503(t *testing.T) {
	ts, sys, _ := newTestDashboard(t)
	sys.SetMutationHook(func(durable.Event) error { return errors.New("disk full") })
	for item, want := range map[string]int{
		sys.Repo.All()[0].ID: http.StatusServiceUnavailable,
		"missing":            http.StatusBadRequest,
	} {
		buf, err := json.Marshal(httpapi.InjectBody{UserID: "greg", ItemID: item})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/dashboard/inject", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("inject %q: http %d, want %d", item, resp.StatusCode, want)
		}
	}
}

func TestPreferencesEndpoint(t *testing.T) {
	ts, sys, _ := newTestDashboard(t)
	if err := sys.RegisterUser(profile.Profile{UserID: "greg", Interests: []string{"technology", "economics"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/dashboard/preferences?user=greg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var prefs map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&prefs); err != nil {
		t.Fatal(err)
	}
	if prefs["technology"] <= 0 {
		t.Fatalf("prefs = %v", prefs)
	}
	resp2, err := http.Get(ts.URL + "/dashboard/preferences")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user status = %d", resp2.StatusCode)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
