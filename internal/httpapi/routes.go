package httpapi

// This file is the one place that says which requests write. Every
// endpoint the server mounts is a row of routes; Server.mount runs what
// a row implies (the method check, the follower write gate, the
// write-ack stamp, the per-endpoint metrics), and Classify tells the
// router the same, so the node and the router cannot disagree.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pphcr"
	"pphcr/internal/dashboard"
)

// A route is one endpoint at one method, like ServeMux's "POST
// /api/users": the pattern it is mounted at, the name its metrics carry,
// the method it answers ("" for every method), and whether it writes.
// Routes sharing a pattern are adjacent in routes and share a name.
type route struct {
	pattern string
	name    string
	method  string
	// write marks a mutation: a node that is not the leader refuses it
	// with 503, a 2xx answer carries HeaderWalSeq, and the router holds
	// that answer until the follower has applied the write.
	write  bool
	handle func(*Server, http.ResponseWriter, *http.Request)
}

// UsersPath lists the node's users (GET) and registers one (POST); the
// router's rebalance reads the listing.
const UsersPath = "/api/users"

var routes = [...]route{
	{"/healthz", "healthz", "", false, (*Server).handleHealth},
	{"/readyz", "readyz", "", false, (*Server).handleReady},
	{"/metrics", "metrics", "", false, (*Server).handleMetrics},
	{"/debug/traces", "debug_traces", "", false, (*Server).handleTraces},
	{"/stats", "stats", http.MethodGet, false, (*Server).handleStats},
	{"/api/stats", "stats", http.MethodGet, false, (*Server).handleStats},
	{UsersPath, "users", http.MethodGet, false, (*Server).handleListUsers},
	{UsersPath, "users", http.MethodPost, true, (*Server).handleRegister},
	{"/api/users/", "user_by_id", http.MethodGet, false, (*Server).handleUserByID},
	{"/api/track", "track", http.MethodPost, true, (*Server).handleTrack},
	{"/api/feedback", "feedback", http.MethodPost, true, (*Server).handleFeedback},
	{"/api/compact", "compact", http.MethodPost, true, (*Server).handleCompact},
	{"/api/feedback/events", "feedback_events", http.MethodGet, false, (*Server).handleFeedbackEvents},
	{"/api/recommendations", "recommendations", http.MethodGet, false, (*Server).handleRecommendations},
	{"/api/plan", "plan", http.MethodPost, false, (*Server).handlePlan},
	{"/api/services", "services", http.MethodGet, false, (*Server).handleServices},
	{"/api/schedule", "schedule", http.MethodGet, false, (*Server).handleSchedule},
	{"/api/items/", "item_by_id", http.MethodGet, false, (*Server).handleItemByID},
	{"/dashboard/trajectory", "dashboard_trajectory", http.MethodGet, false, dashboardPage(dashboard.Trajectory)},
	{"/dashboard/recommendations", "dashboard_recommendations", http.MethodGet, false, dashboardPage(dashboard.Recommendations)},
	{"/dashboard/preferences", "dashboard_preferences", http.MethodGet, false, dashboardPage(dashboard.Preferences)},
	{"/dashboard/plan", "dashboard_plan", http.MethodGet, false, dashboardPage(dashboard.Plan)},
	{"/dashboard/inject", "dashboard_inject", http.MethodPost, true, (*Server).handleInject},
}

// dashboardPage mounts a dashboard page, which reads the System and
// nothing else.
func dashboardPage(page func(*pphcr.System, http.ResponseWriter, *http.Request)) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) { page(s.sys, w, r) }
}

// mount serves one pattern's routes: it picks the route for the
// request's method (405 and "use GET", "use POST" or "use GET or POST"
// when none answers it), refuses a write on a node that is not the
// leader, and times and counts every request under the routes' endpoint
// name, its body capped at maxBodyBytes.
func (s *Server) mount(rts []route) {
	em := s.endpoint(rts[0].name)
	var methods []string
	for _, rt := range rts {
		methods = append(methods, rt.method)
	}
	use := errors.New("use " + strings.Join(methods, " or "))
	s.mux.HandleFunc(rts[0].pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		rt, role := methodRoute(rts, r.Method), s.Role()
		switch {
		case rt == nil:
			writeErr(&rec, http.StatusMethodNotAllowed, use)
		case rt.write && role != RoleLeader:
			// A follower's state is a replica of the leader's WAL; a
			// local write would fork it.
			writeErr(&rec, http.StatusServiceUnavailable,
				fmt.Errorf("node is %s: writes go to the partition leader", role))
		default:
			if rt.write {
				rec.walSeq, _ = s.repl.walSeq.Load().(func() uint64)
			}
			rt.handle(s, &rec, r)
		}
		em.hist.Observe(time.Since(start))
		if c := rec.status / 100; c >= 1 && c <= 5 {
			em.statuses[c-1].Add(1)
		}
	})
}

// methodRoute is the route of rts that answers method, nil for none.
func methodRoute(rts []route, method string) *route {
	for i := range rts {
		if rts[i].method == "" || rts[i].method == method {
			return &rts[i]
		}
	}
	return nil
}

// statusRecorder captures the status code a handler produced,
// defaulting to 200 for handlers that never call WriteHeader, and
// stamps a write's 2xx with HeaderWalSeq.
type statusRecorder struct {
	http.ResponseWriter
	status int
	// walSeq, set on a write until its status goes out, reports the
	// WAL sequence ceiling. It is read after the handler's mutation and
	// before the status line: a ceiling read earlier could ack a write
	// the follower has not applied.
	walSeq func() uint64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.walSeq != nil && code/100 == 2 {
		if seq := r.walSeq(); seq > 0 {
			r.Header().Set(HeaderWalSeq, strconv.FormatUint(seq, 10))
		}
	}
	r.walSeq = nil
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.walSeq != nil {
		r.WriteHeader(http.StatusOK)
	}
	return r.ResponseWriter.Write(b)
}

// Classify is the router's view of a request: the user whose partition
// owns it and whether it writes, as the route serving it on a node
// declares. The user is the user query parameter (or user_id), a path
// suffix under /api/users/, or the user_id field of the JSON body, read
// whole by the caller.
func Classify(r *http.Request, body []byte) (user string, write bool) {
	rt := routeFor(r.URL.Path, r.Method)
	write = rt != nil && rt.write
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		if u := q.Get("user"); u != "" {
			return u, write
		}
		if u := q.Get("user_id"); u != "" {
			return u, write
		}
	}
	if rest, ok := strings.CutPrefix(r.URL.Path, UsersPath+"/"); ok && rest != "" {
		return rest, write
	}
	if len(body) > 0 {
		// The fast reader declines what it will not vouch for;
		// encoding/json then decides.
		if u, ok := BodyUser(body); ok {
			return u, write
		}
		var probe struct {
			UserID string `json:"user_id"`
		}
		if err := json.Unmarshal(body, &probe); err == nil {
			return probe.UserID, write
		}
	}
	return "", write
}

// routeFor is the route a node serves path and method with: the route
// of the pattern ServeMux picks (the path's own, else the longest
// subtree pattern above it, such as "/api/users/") that answers method;
// nil when there is none.
func routeFor(path, method string) *route {
	var best *route
	for i := range routes {
		rt := &routes[i]
		if rt.method != "" && rt.method != method {
			continue
		}
		if rt.pattern == path {
			return rt
		}
		if strings.HasSuffix(rt.pattern, "/") && strings.HasPrefix(path, rt.pattern) &&
			(best == nil || len(rt.pattern) > len(best.pattern)) {
			best = rt
		}
	}
	return best
}
