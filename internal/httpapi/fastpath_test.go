package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pphcr/internal/synth"
)

// TestPlanBodiesEitherSideAnswerAlike posts one plan twice, spelled so
// that the fast reader takes the first body and declines the second, and
// expects the same warm plan; then bodies whose answer is the error
// encoding/json words, and a body larger than the limit whose JSON value
// ends inside it (Decoder.Decode never looks at the rest).
func TestPlanBodiesEitherSideAnswerAlike(t *testing.T) {
	ts, _, _, w, user := newWarmableServer(t)
	plain, err := json.Marshal(planBody(t, w, user))
	if err != nil {
		t.Fatal(err)
	}
	var req PlanRequest
	if !readPlan(plain, &req, nil) {
		t.Fatalf("the fast reader declined a marshalled plan body: %s", plain)
	}
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	if code, out := post(plain); code != http.StatusOK || !strings.Contains(out, `"served":"cold"`) {
		t.Fatalf("first plan: http %d %s", code, out)
	}
	_, warm := post(plain)
	if !strings.Contains(warm, `"served":"warm"`) {
		t.Fatalf("second plan is not warm: %s", warm)
	}
	for name, body := range map[string][]byte{
		"escaped key":        bytes.Replace(plain, []byte(`{"user_id"`), []byte(`{"\u0075ser_id"`), 1),
		"shouted keys":       bytes.ReplaceAll(bytes.Replace(plain, []byte(`{"user_id"`), []byte(`{"USER_ID"`), 1), []byte(`"lat"`), []byte(`"LAT"`)),
		"trailing value":     append(append([]byte(nil), plain...), ` {"user_id":"someone-else"}`...),
		"1 MiB of trailer":   append(append([]byte(nil), plain...), bytes.Repeat([]byte(" "), maxBodyBytes)...),
		"unknown deep field": bytes.Replace(plain, []byte(`{"user_id"`), []byte(`{"k":`+strings.Repeat("[", 70)+strings.Repeat("]", 70)+`,"user_id"`), 1),
	} {
		// Shouted keys the fast reader folds itself; the long trailer is
		// white space to it, but the handler's read stops at the limit.
		if readPlan(body, &req, nil) && name != "shouted keys" && name != "1 MiB of trailer" {
			t.Errorf("%s: meant for the encoding/json side, but the fast reader took it", name)
		}
		if code, out := post(body); code != http.StatusOK || out != warm {
			t.Errorf("%s: http %d %s\nwant the warm plan %s", name, code, out, warm)
		}
	}
	for name, tc := range map[string]struct {
		body string
		code int
		msg  string
	}{
		"empty":         {``, 400, `{"error":"bad json: EOF"}`},
		"bom":           {"\xef\xbb\xbf{}", 400, `{"error":"bad json: invalid character 'ï' looking for beginning of value"}`},
		"float unix":    {`{"user_id":"u","fixes":[{"unix":1.5}]}`, 400, `{"error":"bad json: json: cannot unmarshal number 1.5 into Go struct field TrackBody.fixes.unix of type int64"}`},
		"truncated":     {`{"user_id":"u","fixes":[`, 400, `{"error":"bad json: unexpected EOF"}`},
		"no fixes":      {`{"user_id":"u","fixes":[]}`, 400, `{"error":"user_id and fixes required"}`},
		"spaces beyond": {strings.Repeat(" ", maxBodyBytes+1), 413, `{"error":"bad json: http: request body too large"}`},
	} {
		if code, out := post([]byte(tc.body)); code != tc.code || strings.TrimSpace(out) != tc.msg {
			t.Errorf("%s: http %d %s\nwant %d %s", name, code, out, tc.code, tc.msg)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a handler's
// own allocations are all a measurement sees.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWarmPlanHandlerAllocs bounds what the leader's handler allocates to
// serve a cached plan, System included: bytes and mallocs per request at
// 1.25 × what was measured when the bound was set (1 901 B, 23 mallocs;
// 5 333 B and 41 before the body was read once into pooled scratch).
func TestWarmPlanHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	_, srv, _, w, user := newWarmableServer(t)
	body, err := json.Marshal(planBody(t, w, user))
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/api/plan", rd)
	out := &discardWriter{h: make(http.Header)}
	run := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(out.h)
		handler.ServeHTTP(out, req)
	}
	run() // cold
	run() // warm; pools filled
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	mallocsPer := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("warm plan through the handler: %.0f B, %.1f mallocs per request", bytesPer, mallocsPer)
	if bytesPer > 1901*1.25 || mallocsPer > 23*1.25 {
		t.Fatalf("warm plan through the handler allocates %.0f B in %.1f mallocs, bounds %d B and %d",
			bytesPer, mallocsPer, 1901*5/4, 23*5/4)
	}
}

// TestBodyPoolConcurrentRequestsDoNotMix: a plan or track request
// borrows its body bytes, parsed fixes and rendered reply from
// scratchPool, so a scratch handed to two requests at once would answer
// one with the other's body or reply. Drivers post their plan and track
// bodies all at once, and every reply must equal the one the same body
// got on a twin server that served the same requests one at a time.
// Each driver is a listener of its own, so its replies depend on its own
// requests alone; its plans cover a different length of drive, so no two
// drivers send the same plan body.
func TestBodyPoolConcurrentRequestsDoNotMix(t *testing.T) {
	const drivers, rounds = 8, 3
	type request struct {
		path string
		body []byte
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	boot := func() (*httptest.Server, *synth.World) {
		ts, _, sys, w, _ := newWarmableServer(t)
		for g := 0; g < drivers; g++ {
			p := w.Personas[g%len(w.Personas)]
			prof := p.Profile
			prof.UserID = fmt.Sprintf("pool-%d", g)
			if err := sys.RegisterUser(prof); err != nil {
				t.Fatal(err)
			}
			history, err := w.Commutes(p, w.Params.StartDate, w.Params.Days)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RecordTrace(prof.UserID, history); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.CompactTracking(prof.UserID); err != nil {
				t.Fatal(err)
			}
		}
		return ts, w
	}
	alone, w := boot()
	storm, _ := boot()

	// Each round, a driver asks for a plan on a later morning's first
	// minutes, then tracks the fixes it planned on.
	scripts := make([][]request, drivers)
	for g := range scripts {
		p, user := w.Personas[g%len(w.Personas)], fmt.Sprintf("pool-%d", g)
		day := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
		for k := 0; k < rounds; k++ {
			day = synth.NextWeekday(day.AddDate(0, 0, 1))
			full, _, err := w.CommuteTrace(p, day, true)
			if err != nil {
				t.Fatal(err)
			}
			plan := PlanRequest{UserID: user}
			var tracks []request
			for _, f := range full.Head(2*time.Minute + time.Duration(g)*30*time.Second) {
				fix := TrackBody{UserID: user, Lat: f.Point.Lat, Lon: f.Point.Lon, Unix: f.Time.Unix()}
				tracks = append(tracks, request{"/api/track", marshal(fix)})
				fix.UserID = ""
				plan.Fixes = append(plan.Fixes, fix)
			}
			scripts[g] = append(append(scripts[g], request{"/api/plan", marshal(plan)}), tracks...)
		}
	}
	post := func(ts *httptest.Server, r request) (string, error) {
		resp, err := http.Post(ts.URL+r.path, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return fmt.Sprintf("%d %s", resp.StatusCode, out), err
	}

	want := make([][]string, drivers)
	proactive := 0
	for g, script := range scripts {
		for _, r := range script {
			reply, err := post(alone, r)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(reply, "20") {
				t.Fatalf("driver %d: %s %s answered alone: %s", g, r.path, r.body, reply)
			}
			if strings.Contains(reply, `"proactive":true`) {
				proactive++
			}
			want[g] = append(want[g], reply)
		}
	}
	if proactive == 0 {
		t.Fatal("no plan served alone was proactive: the replies would carry no items to mix")
	}

	var wg sync.WaitGroup
	for g, script := range scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range script {
				got, err := post(storm, r)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[g][i] {
					t.Errorf("driver %d, request %d (%s): concurrent reply\n%s\nalone\n%s", g, i, r.path, got, want[g][i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
