package httpapi

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestPlanEndpoint(t *testing.T) {
	ts, sys, w := newTestServer(t)
	persona := w.Personas[0]
	user := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		t.Fatal(err)
	}
	// Feed commute history through the REST surface's backing system.
	for d := 0; d < w.Params.Days; d++ {
		day := w.Params.StartDate.AddDate(0, 0, d)
		if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		for _, morning := range []bool{true, false} {
			trace, _, err := w.CommuteTrace(persona, day, morning)
			if err != nil {
				t.Fatal(err)
			}
			for _, fix := range trace {
				if err := sys.RecordFix(user, fix); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	// A new morning trip: send the first 3 minutes as the plan request.
	day := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	for day.Weekday() == time.Saturday || day.Weekday() == time.Sunday {
		day = day.AddDate(0, 0, 1)
	}
	full, _, err := w.CommuteTrace(persona, day, true)
	if err != nil {
		t.Fatal(err)
	}
	var fixes []TrackBody
	for _, fix := range full {
		if fix.Time.Sub(full[0].Time) > 3*time.Minute {
			break
		}
		fixes = append(fixes, TrackBody{
			UserID: user, Lat: fix.Point.Lat, Lon: fix.Point.Lon, Unix: fix.Time.Unix(),
		})
	}
	resp := postJSON(t, ts.URL+"/api/plan", PlanRequest{UserID: user, Fixes: fixes})
	var view PlanView
	decode(t, resp, &view)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if view.Confidence <= 0 || view.DeltaTSeconds <= 0 {
		t.Fatalf("prediction missing: %+v", view)
	}
	if view.Proactive && len(view.Items) == 0 {
		t.Fatal("proactive without items")
	}
	for _, it := range view.Items {
		if it.StartSeconds < 0 || it.Seconds <= 0 {
			t.Fatalf("bad item: %+v", it)
		}
	}
	// The plan is remembered for the dashboard.
	if _, ok := sys.LastPlan(user); !ok {
		t.Fatal("plan not remembered")
	}
}

func TestPlanEndpointValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/plan", PlanRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status = %d", resp.StatusCode)
	}
	// Unknown user (no mobility model).
	resp2 := postJSON(t, ts.URL+"/api/plan", PlanRequest{
		UserID: "ghost",
		Fixes:  []TrackBody{{Lat: 45, Lon: 7, Unix: apiEpoch.Unix()}},
	})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown user status = %d", resp2.StatusCode)
	}
	// Bad method.
	resp3, err := http.Get(ts.URL + "/api/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp3.StatusCode)
	}
}

// TestPlanEndpointRejectsInvalidFixes: a coordinate /api/track refuses is
// refused by /api/plan too, before the predictor sees it.
func TestPlanEndpointRejectsInvalidFixes(t *testing.T) {
	ts, _, sys, w, user := newWarmableServer(t)
	good := planBody(t, w, user)
	for name, spoil := range map[string]func(*TrackBody){
		"lat above 90":   func(f *TrackBody) { f.Lat = 900 },
		"lat below -90":  func(f *TrackBody) { f.Lat = -90.5 },
		"lon above 180":  func(f *TrackBody) { f.Lon = 180.001 },
		"lon below -180": func(f *TrackBody) { f.Lon = -1e9 },
	} {
		body := PlanRequest{UserID: user, Fixes: append([]TrackBody(nil), good.Fixes...)}
		spoil(&body.Fixes[len(body.Fixes)/2])
		before := sys.PipelineStats().Tasks
		resp := postJSON(t, ts.URL+"/api/plan", body)
		var e apiError
		decode(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "invalid point") {
			t.Errorf("%s: http %d %q, want 400 naming the invalid point", name, resp.StatusCode, e.Error)
		}
		if ran := sys.PipelineStats().Tasks - before; ran != 0 {
			t.Errorf("%s: %d pipeline task(s) ran on a refused request", name, ran)
		}
	}
	// The same trace unspoiled still plans.
	resp := postJSON(t, ts.URL+"/api/plan", good)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid trace: http %d", resp.StatusCode)
	}
}
