package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the harness can see from outside.
// client is the root; router.handle nests in it; httpapi.handle and
// replicate.ack_wait nest in router.handle.
const (
	spanClient  = "client"
	spanRouter  = "router.handle"
	spanHTTPAPI = "httpapi.handle"
	spanAckWait = "replicate.ack_wait"
)

var spanParent = map[string]string{
	spanRouter:  spanClient,
	spanHTTPAPI: spanRouter,
	spanAckWait: spanRouter,
}

// span is one timed layer crossing. Start and End are nanoseconds since
// the tracer was created; Parent indexes the span that caused this one
// (-1 for a root) and Req numbers the client request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Op     string `json:"op,omitempty"` // client spans: plan | write
}

// tracer keeps spans in memory. Recording is off until enable, so the
// untraced windows of a traced pass run through the same wrappers and the
// difference between the two kinds is the cost of recording alone.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	spans  []span
	non2xx map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), non2xx: map[string]int{}}
}

func (t *tracer) enable(on bool) { t.on.Store(on) }

func (t *tracer) record(name, op string, start, end time.Time, status int) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: -1, Req: -1,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	if status >= 300 {
		t.non2xx[name]++
	}
	t.mu.Unlock()
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap returns h with a span recorded round every /api/ and
// /replication/wait call. Health probes and WAL shipping polls cross the
// same handlers on their own clock and would be misread as children of
// whichever client request they overlap. A nil tracer returns h itself.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !(strings.HasPrefix(r.URL.Path, "/api/") || r.URL.Path == "/replication/wait") {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		t.record(name, "", start, time.Now(), sw.status)
	})
}

// link assigns every span its request and parent. The traced pass runs
// one client, so requests do not overlap and a span belongs to the client
// span whose interval holds its start.
func (t *tracer) link() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var roots []int
	for i := range spans {
		if spans[i].Name == spanClient {
			spans[i].Req = len(roots)
			roots = append(roots, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == spanClient {
			continue
		}
		r := sort.Search(len(roots), func(k int) bool { return spans[roots[k]].Start > s.Start }) - 1
		if r < 0 || spans[roots[r]].End < s.Start {
			continue // outside every client request
		}
		s.Req = r
		for j := roots[r]; j < len(spans) && spans[j].Start <= s.Start; j++ {
			if spans[j].Req == r && spans[j].Name == spanParent[s.Name] {
				s.Parent = j
			}
		}
	}
	return spans
}

// requestTimes is one client request's time by layer, in milliseconds.
type requestTimes struct {
	op                               string
	client, router, httpapi, ackWait float64
	// shipApply runs from the leader's handler returning to the
	// follower's wait handler returning: WAL ship plus follower apply.
	shipApply float64
}

func (r requestTimes) clientSelf() float64 { return r.client - r.router }
func (r requestTimes) routerSelf() float64 { return r.router - r.httpapi - r.ackWait }

// perRequest folds linked spans into one row per complete request. link
// numbers requests densely from 0, so Req indexes the rows.
func perRequest(spans []span) []requestTimes {
	var rows []requestTimes
	var handlerEnd, waitEnd []int64 // when the leader's and the wait handler returned
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		for len(rows) <= s.Req {
			rows = append(rows, requestTimes{})
			handlerEnd, waitEnd = append(handlerEnd, 0), append(waitEnd, 0)
		}
		r := &rows[s.Req]
		ms := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case spanClient:
			r.client, r.op = ms, s.Op
		case spanRouter:
			r.router += ms
		case spanHTTPAPI:
			r.httpapi += ms
			handlerEnd[s.Req] = s.End
		case spanAckWait:
			r.ackWait += ms
			waitEnd[s.Req] = s.End
		}
	}
	complete := rows[:0]
	for i, r := range rows {
		if r.client == 0 || r.router == 0 {
			continue
		}
		if waitEnd[i] > 0 && handlerEnd[i] > 0 {
			r.shipApply = float64(waitEnd[i]-handlerEnd[i]) / 1e6
		}
		complete = append(complete, r)
	}
	return complete
}

// writeSpans writes the linked spans as JSON.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
