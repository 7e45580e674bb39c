package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/client"
	"pphcr/internal/httpapi"
	"pphcr/internal/synth"
)

// newWarmLeader builds a real node — a System behind httpapi — holding
// one persona's commute history, and that persona's plan body for the
// next Monday morning. The first request for it is cold, every later one
// warm.
func newWarmLeader(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 21, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 40,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := pphcr.New(pphcr.Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab})
	if err != nil {
		tb.Fatal(err)
	}
	persona := w.Personas[0]
	user := persona.Profile.UserID
	if err := sys.RegisterUser(persona.Profile); err != nil {
		tb.Fatal(err)
	}
	for _, raw := range w.Corpus {
		if _, err := sys.IngestPodcast(raw); err != nil {
			tb.Fatal(err)
		}
	}
	for d := 0; d < w.Params.Days; d++ {
		day := w.Params.StartDate.AddDate(0, 0, d)
		if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		for _, morning := range []bool{true, false} {
			trace, _, err := w.CommuteTrace(persona, day, morning)
			if err != nil {
				tb.Fatal(err)
			}
			for _, fix := range trace {
				if err := sys.RecordFix(user, fix); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	if _, err := sys.CompactTracking(user); err != nil {
		tb.Fatal(err)
	}
	full, _, err := w.CommuteTrace(persona, w.Params.StartDate.AddDate(0, 0, 7), true)
	if err != nil {
		tb.Fatal(err)
	}
	req := httpapi.PlanRequest{UserID: user}
	for _, fix := range full {
		if fix.Time.Sub(full[0].Time) > 3*time.Minute {
			break
		}
		req.Fixes = append(req.Fixes, httpapi.TrackBody{Lat: fix.Point.Lat, Lon: fix.Point.Lon, Unix: fix.Time.Unix()})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return httpapi.NewServer(sys).Handler(), body
}

// frontOf serves a one-partition router over leader and returns the
// router's URL.
func frontOf(tb testing.TB, leader *httptest.Server) string {
	tb.Helper()
	router := NewRouter(&Topology{Version: 1, Nodes: []Node{{ID: "a", URL: leader.URL}}})
	front := httptest.NewServer(router.Handler())
	tb.Cleanup(front.Close)
	return front.URL
}

// keepAliveClient is a client that holds n connections open, as a load
// driver's does.
func keepAliveClient(tb testing.TB, n int) *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: n}
	tb.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// BenchmarkWarmPlanThroughRouter is the request a listener feels: a
// cached plan fetched through the router from a real node, everything on
// loopback HTTP. B/op and allocs/op count client, router and node
// together.
func BenchmarkWarmPlanThroughRouter(b *testing.B) {
	handler, body := newWarmLeader(b)
	leader := httptest.NewServer(handler)
	defer leader.Close()
	url := frontOf(b, leader) + "/api/plan"
	hc := keepAliveClient(b, 1)
	for i := 0; i < 2; i++ { // cold, then warm
		status, out, err := post(hc, url, body)
		if err != nil || status != http.StatusOK {
			b.Fatalf("priming plan: http %d %s %v", status, out, err)
		}
		if i == 1 && !bytes.Contains(out, []byte(`"served":"warm"`)) {
			b.Fatalf("second plan is not warm: %s", out)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _, err := post(hc, url, body); err != nil || status != http.StatusOK {
			b.Fatalf("plan: http %d %v", status, err)
		}
	}
}

// echoNode answers every POST with the user_id of the body it received
// and a padding whose length depends on the user, so two replies that
// swapped buffers differ in content and in length.
func echoNode(tb testing.TB, state func(net.Conn, http.ConnState)) *httptest.Server {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		user, _ := httpapi.BodyUser(body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"user":%q,"received":%d,"pad":%q}`, user, len(body), strings.Repeat("x", 17*len(user)))
	}))
	srv.Config.ConnState = state
	srv.Start()
	tb.Cleanup(srv.Close)
	return srv
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestForwardAllocs bounds what one forward allocates: forward called in
// process against a minimal node over loopback, so the count is forward,
// the transport's round trip and that node's server loop. The bounds are
// 1.25 × what was measured when they were set (9 162 B, 100 mallocs;
// 12 021 B and 117 with per-request io.ReadAll, url.Parse and Client.Do).
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	router := NewRouter(&Topology{Version: 1, Nodes: []Node{{ID: "a", URL: echoNode(t, nil).URL}}})
	body := []byte(`{"user_id":"user-007","fixes":[` + // nine fixes, as a bench plan body has
		strings.Repeat(`{"user_id":"","lat":45.070312,"lon":7.686856,"unix":1479369600},`, 8) +
		`{"user_id":"","lat":45.07,"lon":7.68,"unix":1479369600}],"now_unix":1479369600}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/api/plan", rd)
	req.Header.Set("Content-Type", "application/json")
	out := &discardWriter{h: make(http.Header)}
	run := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(out.h)
		router.forward(out, req)
		if out.h.Get("X-Pphcr-Node") != "a" {
			t.Fatalf("forward did not reach the node: %v", out.h)
		}
	}
	run() // connection and pools
	run()
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	mallocsPer := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("one forward: %.0f B, %.1f mallocs", bytesPer, mallocsPer)
	if bytesPer > 9162*1.25 || mallocsPer > 100*1.25 {
		t.Fatalf("one forward allocates %.0f B in %.1f mallocs, bounds %d B and %d",
			bytesPer, mallocsPer, 9162*5/4, 100*5/4)
	}
}

// TestForwardConcurrentBodiesDoNotMix: many users through one router at
// once, each with a body and a reply of its own length. A pooled buffer
// handed back while a request still uses it shows up as a reply carrying
// someone else's user, a wrong length, or a race report.
func TestForwardConcurrentBodiesDoNotMix(t *testing.T) {
	url := frontOf(t, echoNode(t, nil)) + "/api/feedback"
	const clients, rounds = 64, 40
	hc := keepAliveClient(t, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := "user-" + strings.Repeat("z", c%7) + fmt.Sprint(c)
			for i := 0; i < rounds; i++ {
				body := []byte(fmt.Sprintf(`{"user_id":%q,"note":%q}`, user, strings.Repeat("n", (c*31+i)%900)))
				want := fmt.Sprintf(`{"user":%q,"received":%d,"pad":%q}`, user, len(body), strings.Repeat("x", 17*len(user)))
				status, got, err := post(hc, url, body)
				if err != nil || status != http.StatusOK || string(got) != want {
					errs <- fmt.Errorf("client %d round %d: http %d %v\n got %s\nwant %s", c, i, status, err, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestForwardReusesConnections: the router keeps as many connections to
// a node as it has concurrent forwards. On http.DefaultTransport it kept
// two, and every forward beyond them opened and closed its own.
func TestForwardReusesConnections(t *testing.T) {
	var opened atomic.Int64
	node := echoNode(t, func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	})
	url := frontOf(t, node) + "/api/plan"
	const clients, rounds = 8, 200
	hc := keepAliveClient(t, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"user_id":"user-%d"}`, c))
			for i := 0; i < rounds; i++ {
				if status, _, err := post(hc, url, body); err != nil || status != http.StatusOK {
					t.Errorf("client %d: http %d %v", c, status, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := opened.Load(); n > 2*clients {
		t.Fatalf("%d forwards from %d clients opened %d connections to the node, want at most %d",
			clients*rounds, clients, n, 2*clients)
	}
}

// TestRouterErrorsAreJSON: the router's own refusals are JSON under a
// JSON content type, whatever they quote. The 504 of a timed-out ack
// quotes the follower's JSON error inside its message; a client must be
// able to read it.
func TestRouterErrorsAreJSON(t *testing.T) {
	leader, standby := newFakeNode(t), newFakeNode(t)
	leader.setWalSeq(42)
	standby.mu.Lock()
	standby.waitCode = http.StatusGatewayTimeout
	standby.mu.Unlock()
	router := NewRouter(&Topology{Version: 1, Nodes: []Node{
		{ID: "a", URL: leader.srv.URL, Standby: standby.srv.URL},
	}})
	router.AckTimeout = 200 * time.Millisecond
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp := postJSON(t, front.URL+"/api/feedback", `{"user_id":"u1","item_id":"it","kind":"like"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unconfirmed write: http %d, want 504", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("504 Content-Type = %q, want application/json", ct)
	}

	// The same refusal as a client sees it.
	_, err := client.NewAPI(front.URL, 1).Feedback(context.Background(),
		httpapi.FeedbackBody{UserID: "u1", ItemID: "it2", Kind: "like"})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusGatewayTimeout {
		t.Fatalf("client error = %v, want a 504 StatusError", err)
	}
	if !strings.Contains(se.Msg, "replication ack timeout") || !strings.Contains(se.Msg, `{"error":"lagging"}`) {
		t.Fatalf("StatusError.Msg = %q, want the router's message quoting the follower's", se.Msg)
	}
}
