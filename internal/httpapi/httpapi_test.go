package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/synth"
)

var apiEpoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

func newTestServer(t *testing.T) (*httptest.Server, *pphcr.System, *synth.World) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 2, Stations: 2, PodcastsPerDay: 15,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.New(pphcr.Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab})
	if err != nil {
		t.Fatal(err)
	}
	horizon := w.Params.StartDate.AddDate(0, 0, w.Params.Days+1)
	for _, svc := range w.Directory.Services() {
		if err := sys.Directory.AddService(svc); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.Directory.ProgramsBetween(svc.ID, w.Params.StartDate, horizon) {
			if err := sys.Directory.AddProgram(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, raw := range w.Corpus {
		if _, err := sys.IngestPodcast(raw); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(sys).Handler())
	t.Cleanup(ts.Close)
	return ts, sys, w
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, into interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func TestHealth(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	decode(t, resp, &body)
	if resp.StatusCode != 200 || body["status"] != "ok" {
		t.Fatalf("health = %d %v", resp.StatusCode, body)
	}
}

func TestUserLifecycle(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/users", UserBody{
		UserID: "lilly", Name: "Lilly", Age: 29,
		Lat: 45.07, Lon: 7.68,
		Interests: []string{"food", "culture"}, FavoriteService: "radio2",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Fetch it back.
	resp2, err := http.Get(ts.URL + "/api/users/lilly")
	if err != nil {
		t.Fatal(err)
	}
	var prof struct {
		UserID string   `json:"UserID"`
		Name   string   `json:"Name"`
		Inter  []string `json:"Interests"`
	}
	decode(t, resp2, &prof)
	if prof.Name != "Lilly" || len(prof.Inter) != 2 {
		t.Fatalf("profile = %+v", prof)
	}
	// Listing includes the user.
	resp3, err := http.Get(ts.URL + "/api/users")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	decode(t, resp3, &ids)
	if len(ids) != 1 || ids[0] != "lilly" {
		t.Fatalf("ids = %v", ids)
	}
	// Unknown user 404s.
	resp4, err := http.Get(ts.URL + "/api/users/greg")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("missing user status = %d", resp4.StatusCode)
	}
	// Bad method.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/users", nil)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("bad method status = %d", resp5.StatusCode)
	}
	// Invalid registration (no user id).
	resp6 := postJSON(t, ts.URL+"/api/users", UserBody{})
	resp6.Body.Close()
	if resp6.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid registration status = %d", resp6.StatusCode)
	}
}

func TestTrackAndCompact(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	// A fix lands in the tracker.
	resp := postJSON(t, ts.URL+"/api/track", TrackBody{
		UserID: "u1", Lat: 45.07, Lon: 7.68, Unix: apiEpoch.Unix(),
	})
	var counts map[string]int
	decode(t, resp, &counts)
	if resp.StatusCode != http.StatusAccepted || counts["fixes"] != 1 {
		t.Fatalf("track = %d %v", resp.StatusCode, counts)
	}
	if sys.Tracker.FixCount("u1") != 1 {
		t.Fatal("fix not stored")
	}
	// Invalid fix rejected.
	resp2 := postJSON(t, ts.URL+"/api/track", TrackBody{UserID: "u1", Lat: 999})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid fix status = %d", resp2.StatusCode)
	}
	// Compaction with insufficient data errors politely.
	resp3, err := http.Post(ts.URL+"/api/compact?user=u1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("compact status = %d", resp3.StatusCode)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	itemID := sys.Repo.All()[0].ID
	resp := postJSON(t, ts.URL+"/api/feedback", FeedbackBody{
		UserID: "u1", ItemID: itemID, Kind: "like", Unix: apiEpoch.Unix(),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	if sys.Feedback.Len() != 1 {
		t.Fatal("feedback not stored")
	}
	events := sys.Feedback.ByUser("u1")
	if len(events[0].Categories) == 0 {
		t.Fatal("item categories not denormalized into the event")
	}
	// Unknown kind rejected.
	resp2 := postJSON(t, ts.URL+"/api/feedback", FeedbackBody{UserID: "u1", Kind: "meh"})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind status = %d", resp2.StatusCode)
	}
}

func TestRecommendationsEndpoint(t *testing.T) {
	ts, _, w := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/users", UserBody{
		UserID: "u1", Interests: []string{"food"},
	})
	resp.Body.Close()
	nowUnix := w.Params.StartDate.AddDate(0, 0, w.Params.Days).Unix()
	url := fmt.Sprintf("%s/api/recommendations?user=u1&k=5&unix=%d&lat=45.07&lon=7.68", ts.URL, nowUnix)
	resp2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var recs []RecommendationView
	decode(t, resp2, &recs)
	if len(recs) == 0 || len(recs) > 5 {
		t.Fatalf("recs = %d", len(recs))
	}
	if recs[0].Category != "food" {
		t.Fatalf("top category = %q, want food", recs[0].Category)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Compound > recs[i-1].Compound {
			t.Fatal("recommendations not sorted")
		}
	}
	// Missing user parameter.
	resp3, err := http.Get(ts.URL + "/api/recommendations")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user status = %d", resp3.StatusCode)
	}
	// Bad k.
	resp4, err := http.Get(ts.URL + "/api/recommendations?user=u1&k=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k status = %d", resp4.StatusCode)
	}
}

func TestServicesAndSchedule(t *testing.T) {
	ts, _, w := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/services")
	if err != nil {
		t.Fatal(err)
	}
	var services []map[string]interface{}
	decode(t, resp, &services)
	if len(services) != 2 {
		t.Fatalf("services = %d", len(services))
	}
	day := w.Params.StartDate
	url := fmt.Sprintf("%s/api/schedule?service=radio1&from=%d&to=%d",
		ts.URL, day.Add(8*time.Hour).Unix(), day.Add(10*time.Hour).Unix())
	resp2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var progs []map[string]interface{}
	decode(t, resp2, &progs)
	if len(progs) == 0 {
		t.Fatal("empty schedule window")
	}
	// Missing params.
	resp3, err := http.Get(ts.URL + "/api/schedule?service=radio1")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing range status = %d", resp3.StatusCode)
	}
}

func TestItemEndpoint(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	id := sys.Repo.All()[0].ID
	resp, err := http.Get(ts.URL + "/api/items/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var it map[string]interface{}
	decode(t, resp, &it)
	if it["ID"] != id {
		t.Fatalf("item = %v", it)
	}
	resp2, err := http.Get(ts.URL + "/api/items/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("missing item status = %d", resp2.StatusCode)
	}
}

// TestOversizedBodyRejected: a request body past maxBodyBytes answers 413
// on every route that decodes one, without reaching the System (no
// mutation is logged); the same body at normal size is handled as before.
func TestOversizedBodyRejected(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	var logged atomic.Int64
	sys.SetMutationHook(func(uint32, durable.Event) error {
		logged.Add(1)
		return nil
	})
	routes := []struct {
		path, body string // body has one %s, inside an ignored field
		normal     int    // status without the padding
	}{
		{"/api/users", `{"user_id":"big","name":"Big","age":30,"pad":"%s"}`, http.StatusCreated},
		{"/api/track", `{"user_id":"big","lat":45,"lon":7.6,"unix":1479110400,"pad":"%s"}`, http.StatusAccepted},
		{"/api/feedback", `{"user_id":"big","item_id":"x","kind":"like","unix":1479110400,"pad":"%s"}`, http.StatusAccepted},
		// Decoded and planned: "big" has no mobility model.
		{"/api/plan", `{"user_id":"big","fixes":[{"lat":45,"lon":7.6,"unix":1479110400}],"pad":"%s"}`, http.StatusBadRequest},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	pad := strings.Repeat("x", maxBodyBytes)
	for _, rt := range routes {
		if code, _ := post(rt.path, fmt.Sprintf(rt.body, pad)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d, want 413", rt.path, len(pad), code)
		}
	}
	if n := logged.Load(); n != 0 {
		t.Fatalf("oversized requests logged %d mutations", n)
	}
	for _, rt := range routes {
		code, msg := post(rt.path, fmt.Sprintf(rt.body, ""))
		if code != rt.normal || strings.Contains(msg, "bad json") {
			t.Errorf("%s with a normal body = %d %s, want %d", rt.path, code, msg, rt.normal)
		}
	}
	if n := logged.Load(); n != 3 {
		t.Fatalf("normal requests logged %d mutations, want 3 (user, fix, feedback)", n)
	}
}
