package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
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
