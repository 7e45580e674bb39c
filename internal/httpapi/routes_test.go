package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// methodsBefore is what each API route answered before the route table,
// as its 405 body said it: the table must keep every one of them.
var methodsBefore = map[string]string{
	"/stats":               "use GET",
	"/api/stats":           "use GET",
	"/api/users":           "use GET or POST",
	"/api/users/":          "use GET",
	"/api/track":           "use POST",
	"/api/feedback":        "use POST",
	"/api/compact":         "use POST",
	"/api/feedback/events": "use GET",
	"/api/recommendations": "use GET",
	"/api/plan":            "use POST",
	"/api/services":        "use GET",
	"/api/schedule":        "use GET",
	"/api/items/":          "use GET",
}

// requestPath is a path the route's pattern serves.
func requestPath(pattern string) string {
	if strings.HasSuffix(pattern, "/") {
		return pattern + "x"
	}
	return pattern
}

// TestRouteTable: for every route the server mounts and every method,
// the router's write decision (Classify) is the node's — a follower
// refuses exactly the requests Classify calls writes — and every API
// route answers a method it does not serve with the 405 status and body
// it always has.
func TestRouteTable(t *testing.T) {
	_, api := newReplServer(t)
	h := api.Handler()
	serve := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	methods := []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete}

	api.SetRole(RoleFollower)
	for _, rt := range routes {
		path := requestPath(rt.pattern)
		for _, m := range methods {
			_, write := Classify(httptest.NewRequest(m, path, nil), nil)
			if (m == rt.method || rt.method == "") && write != rt.write {
				t.Errorf("Classify(%s %s) write = %v, the table says %v", m, path, write, rt.write)
			}
			rec := serve(m, path)
			gated := rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "writes go to the partition leader")
			if gated != write {
				t.Errorf("%s %s on a follower: http %d %q; Classify says write = %v", m, path, rec.Code, rec.Body, write)
			}
		}
	}

	api.SetRole(RoleLeader)
	for _, rt := range routes {
		if strings.HasPrefix(rt.pattern, "/api/") && methodsBefore[rt.pattern] == "" {
			t.Errorf("API route %s has no row in methodsBefore", rt.pattern)
		}
	}
	for pattern, use := range methodsBefore {
		path := requestPath(pattern)
		for _, m := range methods {
			rec := serve(m, path)
			if strings.Contains(use, m) {
				if rec.Code == http.StatusMethodNotAllowed {
					t.Errorf("%s %s: 405, but it is served", m, path)
				}
				continue
			}
			if want := `{"error":"` + use + `"}` + "\n"; rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != want {
				t.Errorf("%s %s: http %d %q, want 405 %q", m, path, rec.Code, rec.Body, want)
			}
		}
	}
}
