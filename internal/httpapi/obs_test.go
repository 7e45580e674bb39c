package httpapi

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/pipeline"
	"pphcr/internal/synth"
)

// newObsServer is newTestServer plus access to the *Server, for tests
// that flip readiness or tracing switches.
func newObsServer(t *testing.T) (*httptest.Server, *Server, *pphcr.System, *synth.World) {
	t.Helper()
	_, sys, w := newTestServer(t)
	srv := NewServer(sys)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, sys, w
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// TestMetricsEndpoint scrapes /metrics and checks the families every
// dashboard and the CI smoke step depend on are present and well
// formed.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)

	// Generate some traffic so the endpoint histograms have samples.
	for i := 0; i < 3; i++ {
		code, _, _ := getBody(t, ts.URL+"/healthz")
		if code != 200 {
			t.Fatalf("healthz = %d", code)
		}
	}

	code, text, hdr := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE pphcr_http_request_duration_seconds histogram",
		`pphcr_http_request_duration_seconds_bucket{endpoint="healthz",le="+Inf"}`,
		`pphcr_http_request_duration_seconds_count{endpoint="healthz"} 3`,
		`pphcr_http_requests_total{code="2xx",endpoint="healthz"} 3`,
		`pphcr_pipeline_stage_duration_seconds_bucket{stage="rank",le="+Inf"}`,
		`pphcr_plan_serve_duration_seconds_count{source="warm"}`,
		"# TYPE pphcr_barrier_quiesce_seconds histogram",
		"pphcr_barrier_acquire_wait_seconds_count",
		"pphcr_plancache_hits_total",
		"pphcr_feedback_appends_total",
		"pphcr_usershard_lock_ops_total",
		"pphcr_ready 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestReadyzSplitFromHealthz checks the liveness/readiness split: the
// boot gate and a failing dependency turn /readyz 503 while /healthz
// keeps answering 200 (restart-worthy vs eject-worthy are different
// questions).
func TestReadyzSplitFromHealthz(t *testing.T) {
	ts, srv, _, _ := newObsServer(t)

	code, body, _ := getBody(t, ts.URL+"/readyz")
	if code != 200 || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("default readyz = %d %s", code, body)
	}

	srv.SetReady(false)
	code, body, _ = getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"ready":false`) {
		t.Fatalf("unready readyz = %d %s", code, body)
	}
	if !strings.Contains(body, "recovery") {
		t.Fatalf("unready reason = %s", body)
	}
	if code, _, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("liveness must stay 200 while unready, got %d", code)
	}
	code, text, _ := getBody(t, ts.URL+"/metrics")
	if code != 200 || !strings.Contains(text, "pphcr_ready 0") {
		t.Fatalf("pphcr_ready should read 0 while unready")
	}

	srv.SetReady(true)
	srv.SetReadinessCheck(func() error { return errors.New("wal wedged: disk gone") })
	code, body, _ = getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "wedged") {
		t.Fatalf("wedged readyz = %d %s", code, body)
	}

	srv.SetReadinessCheck(nil)
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("recovered readyz = %d", code)
	}
}

// TestReadyzDegradedDistinctFromDead checks the third readiness state:
// a degraded node (e.g. WAL in injected-slow-fsync mode) answers 200 —
// the load balancer keeps routing — but the body carries degraded=true
// with a reason, and pphcr_degraded flips to 1.
func TestReadyzDegradedDistinctFromDead(t *testing.T) {
	ts, srv, _, _ := newObsServer(t)

	code, body, _ := getBody(t, ts.URL+"/readyz")
	if code != 200 || strings.Contains(body, "degraded") {
		t.Fatalf("healthy readyz = %d %s", code, body)
	}

	srv.SetDegradedCheck(func() error { return errors.New("wal fsync degraded: injected 5ms stall") })
	code, body, _ = getBody(t, ts.URL+"/readyz")
	if code != 200 {
		t.Fatalf("degraded must stay 200 (distinguishable from dead), got %d", code)
	}
	if !strings.Contains(body, `"degraded":true`) || !strings.Contains(body, "5ms stall") {
		t.Fatalf("degraded body = %s", body)
	}
	if code, text, _ := getBody(t, ts.URL+"/metrics"); code != 200 || !strings.Contains(text, "pphcr_degraded 1") {
		t.Fatalf("pphcr_degraded should read 1 while degraded")
	}

	// Degradation does not mask death: a failing readiness check still
	// wins with a 503.
	srv.SetReadinessCheck(func() error { return errors.New("wal wedged") })
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("dead+degraded readyz = %d, want 503", code)
	}
	srv.SetReadinessCheck(nil)

	srv.SetDegradedCheck(nil)
	code, body, _ = getBody(t, ts.URL+"/readyz")
	if code != 200 || strings.Contains(body, "degraded") {
		t.Fatalf("recovered readyz = %d %s", code, body)
	}
}

// slowRank delays the Rank stage — the slow-stage injection for the
// trace-ring test.
type slowRank struct {
	inner pipeline.Rank
	delay time.Duration
}

func (s slowRank) Rank(t *pipeline.Task) {
	time.Sleep(s.delay)
	s.inner.Rank(t)
}

// TestSlowRequestTraced injects a slow Rank stage and checks the
// request surfaces in /debug/traces with the stage span carrying the
// time.
func TestSlowRequestTraced(t *testing.T) {
	ts, srv, sys, w, user := newWarmableServer(t)
	srv.EnableTracing(8, 5*time.Millisecond)
	pipe := sys.Pipeline()
	pipe.Rank = slowRank{inner: pipe.Rank, delay: 20 * time.Millisecond}

	// A fast request below the threshold must not enter the ring.
	code, body, _ := getBody(t, ts.URL+"/debug/traces")
	if code != 200 || !strings.Contains(body, `"enabled":true`) {
		t.Fatalf("traces before = %d %s", code, body)
	}

	resp := postJSON(t, ts.URL+"/api/plan", planBody(t, w, user))
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("plan = %d", resp.StatusCode)
	}

	code, _, _ = getBody(t, ts.URL+"/debug/traces")
	if code != 200 {
		t.Fatalf("traces = %d", code)
	}
	resp2, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var view tracesView
	decode(t, resp2, &view)
	if !view.Enabled || len(view.Traces) == 0 {
		t.Fatalf("slow plan request not captured: %+v", view)
	}
	tr := view.Traces[0]
	if tr.Op != "plan" || tr.User != user {
		t.Fatalf("trace identity = %q/%q", tr.Op, tr.User)
	}
	if tr.TotalMicros < 5_000 {
		t.Fatalf("trace total %.0fµs below threshold", tr.TotalMicros)
	}
	var rankDur, stages float64
	var noted bool
	for _, sp := range tr.Spans {
		if sp.Name == "stage:rank" {
			rankDur = sp.DurMicros
		}
		if strings.HasPrefix(sp.Name, "stage:") {
			stages += sp.DurMicros
		}
	}
	if stages > tr.TotalMicros {
		t.Fatalf("stage spans sum to %.0fµs, more than the request's %.0fµs: %+v", stages, tr.TotalMicros, tr.Spans)
	}
	for _, n := range tr.Notes {
		if n == "cache:miss" || n == "cache:hit" {
			noted = true
		}
	}
	if rankDur < 15_000 {
		t.Fatalf("stage:rank span %.0fµs does not attribute the injected 20ms delay (spans: %+v)", rankDur, tr.Spans)
	}
	if !noted {
		t.Fatalf("cache outcome note missing: %+v", tr.Notes)
	}
}

// TestStatsReportsQuantiles checks /stats carries p50/p95/p99 for
// endpoints, plan paths and pipeline stages.
func TestStatsReportsQuantiles(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for i := 0; i < 5; i++ {
		getBody(t, ts.URL+"/healthz")
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var view StatsView
	decode(t, resp, &view)
	hz, ok := view.HTTP["healthz"]
	if !ok {
		t.Fatalf("no healthz endpoint stats: %+v", view.HTTP)
	}
	if hz.Count < 5 || hz.Codes["2xx"] < 5 {
		t.Fatalf("healthz stats = %+v", hz)
	}
	if hz.P99Micros < hz.P50Micros || hz.MaxMicros <= 0 {
		t.Fatalf("healthz quantiles inconsistent: %+v", hz)
	}
	if _, ok := view.HTTP["plan"]; !ok {
		t.Fatal("plan endpoint missing from /stats http block")
	}
	// Quantile fields exist on the pipeline block (zero counts are fine
	// here — no plan ran).
	if view.Pipeline.Rank.Count != 0 {
		t.Fatalf("unexpected rank executions: %+v", view.Pipeline.Rank)
	}
}
