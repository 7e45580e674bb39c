// Package httpapi implements the "Public Rest API Server" of the paper's
// architecture (Fig 3): the JSON/HTTP surface the PPHCR client app talks
// to — user registration, GPS tracking, feedback, schedule metadata and
// recommendation retrieval.
//
// Bodies are decoded by encoding/json. On the two endpoints a moving car
// calls (/api/plan, /api/track) a fast reader runs first over the body,
// read once into pooled scratch: it accepts the plain bodies clients
// send and declines everything else to encoding/json, which stays the
// reference for what a body means and the only author of error answers.
// The contract, and the encoding/json behaviours it defers to, are on
// scanner in fastjson.go; BodyUser is the same reader, exported for the
// router's partition-key lookup.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pphcr"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/obs"
	"pphcr/internal/profile"
	"pphcr/internal/recommend"
	"pphcr/internal/trajectory"
)

// Server exposes a System over HTTP. Create with NewServer and mount via
// Handler().
type Server struct {
	sys *pphcr.System
	mux *http.ServeMux

	// warm/cold latency histograms of the /api/plan fast and slow paths,
	// reported by /stats (quantiles) and /metrics (buckets).
	warmLat obs.Histogram
	coldLat obs.Histogram
	// warmerStats, when set, contributes the precompute scheduler's
	// counters to /stats; durabilityStats likewise for the WAL and
	// checkpoint counters. Both hold a func() interface{} and, like the
	// checks below, are atomic because promotion sets them on a live
	// server.
	warmerStats     atomic.Value
	durabilityStats atomic.Value

	// registry backs /metrics; endpoints hold the per-endpoint latency
	// histograms and status counters in registration order.
	registry       *obs.Registry
	endpoints      []*endpointMetrics
	endpointByName map[string]*endpointMetrics

	// traceRing, when enabled, keeps the slowest requests' span
	// recordings for /debug/traces. notReady gates /readyz until the
	// process finishes booting; readyCheck (a func() error) adds a
	// dependency probe.
	traceRing  *obs.TraceRing
	notReady   atomic.Bool
	readyCheck atomic.Value

	// degradedCheck reports partial degradation (e.g. the WAL running in
	// injected-slow-fsync mode): the node still serves — /readyz stays
	// 200 — but the body and pphcr_degraded flag it, so scenario runs
	// and dashboards can tell degraded from dead. It holds a func() error.
	degradedCheck atomic.Value

	// repl holds the node's replication role, the WAL-sequence source
	// behind the write-ack header, and the follower lag source — all
	// swappable at runtime because promotion changes them on a live
	// server (see replication.go).
	repl replication
}

// NewServer wraps a System.
func NewServer(sys *pphcr.System) *Server {
	s := &Server{
		sys:            sys,
		mux:            http.NewServeMux(),
		registry:       obs.NewRegistry(),
		endpointByName: make(map[string]*endpointMetrics),
	}
	for i := 0; i < len(routes); {
		j := i + 1
		for j < len(routes) && routes[j].pattern == routes[i].pattern {
			j++
		}
		s.mount(routes[i:j])
		i = j
	}
	s.registerSystemMetrics()
	s.registerReplicationMetrics()
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// HeaderWalSeq is the response header successful writes carry: an upper
// bound on the WAL sequence number the write landed at. A
// replication-aware router uses it as the ack barrier — it holds the
// client response until a follower has applied at least this far, which
// is what makes "acked" mean "survives leader loss".
const HeaderWalSeq = "X-Pphcr-Wal-Seq"

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more can be done.
		_ = err
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// writeWriteErr answers a write entry point's error: 503 when the write
// was not logged (the node's log, not the request, is at fault), 400
// otherwise.
func writeWriteErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, pphcr.ErrNotLogged) {
		status = http.StatusServiceUnavailable
	}
	writeErr(w, status, err)
}

// maxBodyBytes bounds every request body (Server.mount wraps it): two
// orders of magnitude above a 3-minute partial trace, below the 16 MiB
// the router forwards. Nodes are reachable directly, not only through
// the router.
const maxBodyBytes = 1 << 20

// decodeJSON decodes the request body into v. On failure it answers 400,
// or 413 when the body ran past maxBodyBytes, and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("bad json: %w", err))
	return false
}

// bodyScratch is what serving one plan or track request needs and
// nothing keeps afterwards: the body's bytes, the fixes parsed from them
// and the rendered reply.
type bodyScratch struct {
	buf   bytes.Buffer
	fixes []TrackBody
	out   []byte
}

var scratchPool = sync.Pool{New: func() interface{} { return new(bodyScratch) }}

// A scratch that grew past these is dropped, not pooled: a 3-minute
// partial trace is under 16 KiB and 200 fixes.
const (
	maxPooledBody  = 64 << 10
	maxPooledFixes = 1 << 10
)

func putScratch(sc *bodyScratch) {
	if sc.buf.Cap() <= maxPooledBody && cap(sc.fixes) <= maxPooledFixes && cap(sc.out) <= maxPooledBody {
		scratchPool.Put(sc)
	}
}

// decode is decodeJSON with the fast reader in front: it reads the body
// to its end once, and where fast declines what was read, or the read
// failed, hands the same bytes and the rest of the stream to decodeJSON,
// which owns every error answer.
func (sc *bodyScratch) decode(w http.ResponseWriter, r *http.Request, v interface{}, fast func(body []byte) bool) bool {
	sc.buf.Reset()
	if _, err := sc.buf.ReadFrom(r.Body); err == nil && fast(sc.buf.Bytes()) {
		return true
	}
	r.Body = io.NopCloser(io.MultiReader(&sc.buf, r.Body))
	return decodeJSON(w, r, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// UserBody is the registration payload.
type UserBody struct {
	UserID          string   `json:"user_id"`
	Name            string   `json:"name"`
	Age             int      `json:"age"`
	Lat             float64  `json:"lat"`
	Lon             float64  `json:"lon"`
	Interests       []string `json:"interests"`
	FavoriteService string   `json:"favorite_service"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body UserBody
	if !decodeJSON(w, r, &body) {
		return
	}
	p := profile.Profile{
		UserID:          body.UserID,
		Name:            body.Name,
		Age:             body.Age,
		Hometown:        geo.Point{Lat: body.Lat, Lon: body.Lon},
		Interests:       body.Interests,
		FavoriteService: body.FavoriteService,
	}
	if err := s.sys.RegisterUser(p); err != nil {
		writeWriteErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"user_id": p.UserID})
}

func (s *Server) handleListUsers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Profiles.UserIDs())
}

func (s *Server) handleUserByID(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len(UsersPath+"/"):]
	p, err := s.sys.Profiles.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// TrackBody is one GPS fix.
type TrackBody struct {
	UserID string  `json:"user_id"`
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
	Unix   int64   `json:"unix"`
}

func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*bodyScratch)
	defer putScratch(sc)
	var body TrackBody
	if !sc.decode(w, r, &body, func(raw []byte) bool { return readTrack(raw, &body) }) {
		return
	}
	at, err := writeInstant(body.Unix)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fix := trajectory.Fix{Point: geo.Point{Lat: body.Lat, Lon: body.Lon}, Time: at}
	obs.NoteRequestUser(r.Context(), body.UserID)
	tr := s.startTrace("track", body.UserID)
	err = s.sys.RecordFixTraced(body.UserID, fix, tr)
	s.traceRing.Offer(tr)
	if err != nil {
		writeWriteErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{
		"fixes": s.sys.Tracker.FixCount(body.UserID),
	})
}

// FeedbackBody is one feedback event.
type FeedbackBody struct {
	UserID string `json:"user_id"`
	ItemID string `json:"item_id"`
	Kind   string `json:"kind"` // listen | skip | like | dislike
	Unix   int64  `json:"unix"`
}

// writeInstant is a write's `unix` seconds as the instant the stores
// keep. It refuses one outside what Unix nanoseconds hold (years
// 1678–2262): the stores would refuse it too.
func writeInstant(unix int64) (time.Time, error) {
	at := time.Unix(unix, 0).UTC()
	if !time.Unix(0, at.UnixNano()).Equal(at) {
		return time.Time{}, fmt.Errorf("unix %d outside the writable range (years 1678–2262)", unix)
	}
	return at, nil
}

func parseKind(s string) (feedback.Kind, error) {
	switch s {
	case "listen":
		return feedback.ImplicitListen, nil
	case "skip":
		return feedback.Skip, nil
	case "like":
		return feedback.Like, nil
	case "dislike":
		return feedback.Dislike, nil
	default:
		return 0, fmt.Errorf("unknown feedback kind %q", s)
	}
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var body FeedbackBody
	if !decodeJSON(w, r, &body) {
		return
	}
	kind, err := parseKind(body.Kind)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	at, err := writeInstant(body.Unix)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// No Categories: for a catalog item the event means the item's own,
	// and an item the catalog does not hold has none to give.
	e := feedback.Event{
		UserID: body.UserID,
		ItemID: body.ItemID,
		Kind:   kind,
		At:     at,
	}
	obs.NoteRequestUser(r.Context(), body.UserID)
	tr := s.startTrace("feedback", body.UserID)
	err = s.sys.AddFeedbackTraced(e, tr)
	s.traceRing.Offer(tr)
	if err != nil {
		writeWriteErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "recorded"})
}

// FeedbackEventView is one live feedback event in the dump endpoint's
// response — the read side of the failover oracle: a verifier replays
// its acked-write multiset against this list on the promoted node.
type FeedbackEventView struct {
	UserID string `json:"user_id"`
	ItemID string `json:"item_id"`
	Kind   string `json:"kind"`
	Unix   int64  `json:"unix"`
}

func (s *Server) handleFeedbackEvents(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errors.New("user parameter required"))
		return
	}
	events := s.sys.Feedback.Log(user)
	out := make([]FeedbackEventView, len(events))
	for i, e := range events {
		out[i] = FeedbackEventView{
			UserID: user,
			ItemID: e.ItemID,
			Kind:   e.Kind.String(),
			Unix:   e.At.Unix(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	cm, err := s.sys.CompactTracking(user)
	if err != nil {
		writeWriteErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"stay_points": len(cm.StayPoints),
		"trips":       len(cm.Trips),
	})
}

// RecommendationView is one ranked item in API responses.
type RecommendationView struct {
	ItemID   string  `json:"item_id"`
	Title    string  `json:"title"`
	Program  string  `json:"program"`
	Category string  `json:"category"`
	Seconds  int     `json:"seconds"`
	Content  float64 `json:"content_score"`
	Context  float64 `json:"context_score"`
	Compound float64 `json:"compound_score"`
}

func (s *Server) handleRecommendations(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user := q.Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errors.New("user parameter required"))
		return
	}
	k := 10
	if ks := q.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, errors.New("k must be a positive integer"))
			return
		}
		k = v
	}
	now := time.Now().UTC()
	if ts := q.Get("unix"); ts != "" {
		v, err := strconv.ParseInt(ts, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, errors.New("unix must be an integer"))
			return
		}
		now = time.Unix(v, 0).UTC()
	}
	ctx := recommend.Context{Now: now}
	if lat, lon := q.Get("lat"), q.Get("lon"); lat != "" || lon != "" {
		la, err1 := strconv.ParseFloat(lat, 64)
		lo, err2 := strconv.ParseFloat(lon, 64)
		ctx.Position = geo.Point{Lat: la, Lon: lo}
		// What /api/track and /api/plan refuse, the geo score must not
		// be handed: NaN would reach the encoder after the status line.
		if err1 != nil || err2 != nil || !ctx.Position.Valid() {
			writeErr(w, http.StatusBadRequest, errors.New("bad lat/lon"))
			return
		}
	}
	obs.NoteRequestUser(r.Context(), user)
	// Only the leader consumes what it pins: a consume is a logged
	// mutation, and a follower's state is a replica of the leader's WAL.
	recommend := s.sys.Recommend
	if s.Role() != RoleLeader {
		recommend = s.sys.Preview
	}
	ranked := recommend(user, ctx, k)
	out := make([]RecommendationView, len(ranked))
	for i, sc := range ranked {
		out[i] = RecommendationView{
			ItemID:   sc.Item.ID,
			Title:    sc.Item.Title,
			Program:  sc.Item.Program,
			Category: sc.Item.TopCategory(),
			Seconds:  int(sc.Item.Duration.Seconds()),
			Content:  sc.Content,
			Context:  sc.Context,
			Compound: sc.Compound,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleServices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Directory.Services())
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	service := q.Get("service")
	from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
	to, err2 := strconv.ParseInt(q.Get("to"), 10, 64)
	if service == "" || err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, errors.New("service, from, to (unix) required"))
		return
	}
	progs := s.sys.Directory.ProgramsBetween(service, time.Unix(from, 0).UTC(), time.Unix(to, 0).UTC())
	writeJSON(w, http.StatusOK, progs)
}

func (s *Server) handleItemByID(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len("/api/items/"):]
	it, ok := s.sys.Repo.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("item %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, it)
}

// InjectBody is the editorial injection payload (the dashboard's Fig 6
// action).
type InjectBody struct {
	UserID string `json:"user_id"`
	ItemID string `json:"item_id"`
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	var body InjectBody
	if !decodeJSON(w, r, &body) {
		return
	}
	if err := s.sys.Inject(body.UserID, body.ItemID); err != nil {
		writeWriteErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string][]string{
		"pending": s.sys.PendingInjections(body.UserID),
	})
}
