package dashboard_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pphcr/internal/synth"
)

func TestPlanView(t *testing.T) {
	ts, sys, w := newTestDashboard(t)
	persona := w.Personas[0]
	user := persona.Profile.UserID
	trackCommutes(t, sys, w, user, w.Params.Days)
	if _, err := sys.CompactTracking(user); err != nil {
		t.Fatal(err)
	}
	day := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, w.Params.Days))
	full, _, err := w.CommuteTrace(persona, day, true)
	if err != nil {
		t.Fatal(err)
	}
	partial := full.Head(3 * time.Minute)
	if _, err := sys.PlanTrip(user, partial, partial[len(partial)-1].Time, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/dashboard/plan?user=" + user)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	html := string(body)
	for _, want := range []string{"Last proactive plan", "destination place", "ΔT", "Scheduled items"} {
		if !strings.Contains(html, want) {
			t.Fatalf("plan view missing %q:\n%s", want, html)
		}
	}
}

func TestPlanViewErrors(t *testing.T) {
	ts, _, _ := newTestDashboard(t)
	resp, err := http.Get(ts.URL + "/dashboard/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user status = %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/dashboard/plan?user=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("no-plan status = %d", resp2.StatusCode)
	}
}
