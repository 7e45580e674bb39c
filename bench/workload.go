package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

const (
	wlWarmPlan   = "warm_plan"
	wlColdPlan   = "cold_plan"
	wlAckedWrite = "acked_write"
	wlSkipReplan = "skip_replan"
)

// workloadSpec names a workload and says why it exists; BENCHMARK.json
// carries the same two fields. Window is the length of one measurement
// window: long enough to hold a hundred operations, so that the window's
// p90 has ten samples beyond it, and no longer, because the box changes
// speed every second or two and a short window can fall wholly inside
// one of its fast spells (see bestWindow).
type workloadSpec struct {
	Name   string
	Why    string
	Window time.Duration
}

var workloads = []workloadSpec{
	{wlWarmPlan, "POST /api/plan for drivers whose plan is cached: all time is client, router, httpapi and plancache; pipeline, WAL and replication are bypassed", time.Second},
	{wlColdPlan, "same request after the driver's cached plans are dropped: predict to allocate over 20000 items dominates; router and replication changes should not move it", time.Second},
	{wlAckedWrite, "alternating feedback and track writes, 2xx only once fsynced on the leader and applied on the follower: WAL, ship, apply and the router's ack barrier; reads are bypassed", 3 * time.Second},
	{wlSkipReplan, "the paper's loop, a dislike acked through the router then an immediate re-plan, with the warmer running: writes beside reads, cache as invalidate-and-refill", 3 * time.Second},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// request is one generated operation. The sequence a lane issues is a
// pure function of (workload, seed, lane, lanes) and the population, so
// it can be hashed without running it.
type request struct {
	kind   byte // 'p' plan, 'f' feedback, 't' track, 's' skip→re-plan session
	driver int  // index into cluster.drivers (p, t, s)
	user   string
	item   string
	unix   int64
}

// generator yields one lane's request sequence. Each lane owns the
// drivers and users whose index is congruent to it, so per-user write
// order is serialised client-side and no two lanes race on one driver's
// cache entry.
type generator struct {
	wl           string
	rng          *rand.Rand
	lane         int
	n            int
	users        []string
	t0           int64
	ownedDrivers []int
	ownedUsers   []int
}

func newGenerator(wl string, seed int64, lane, lanes int, c *cluster) *generator {
	g := &generator{
		wl: wl, lane: lane, users: c.users, t0: c.t0.Unix(),
		rng: rand.New(rand.NewSource(seed*1000003 + int64(lane)*7919 + int64(nameHash(wl)%7907))),
	}
	for i := lane; i < len(c.drivers); i += lanes {
		g.ownedDrivers = append(g.ownedDrivers, i)
	}
	for i := lane; i < len(c.users); i += lanes {
		g.ownedUsers = append(g.ownedUsers, i)
	}
	return g
}

func nameHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func (g *generator) next() request {
	n := g.n
	g.n++
	switch g.wl {
	case wlWarmPlan, wlColdPlan:
		return request{kind: 'p', driver: g.ownedDrivers[g.rng.Intn(len(g.ownedDrivers))]}
	case wlAckedWrite:
		if n%2 == 0 {
			return request{
				kind: 'f',
				user: g.users[g.ownedUsers[g.rng.Intn(len(g.ownedUsers))]],
				item: "bench-w" + strconv.Itoa(g.lane) + "-" + strconv.Itoa(n),
				unix: g.t0 - int64(historyStart.Seconds()) + 3600 + int64(n%3600),
			}
		}
		// Fix times rise strictly per driver: the lane walks its drivers
		// round-robin and n only grows.
		return request{kind: 't', driver: g.ownedDrivers[(n/2)%len(g.ownedDrivers)], unix: g.t0 + 3600 + int64(n)}
	default: // wlSkipReplan
		unix := g.t0 - int64(historyStart.Seconds()) + 3600 + int64(n)
		if unix >= g.t0 {
			unix = g.t0 - 1
		}
		return request{kind: 's', driver: g.ownedDrivers[n%len(g.ownedDrivers)], unix: unix}
	}
}

// hashedPrefix is how many requests per lane the sequence hash covers.
const hashedPrefix = 256

// sequenceHash is the FNV-1a hash of the first hashedPrefix requests of
// every lane, bodies included.
func sequenceHash(wl string, seed int64, lanes int, c *cluster) uint64 {
	h := fnv.New64a()
	for lane := 0; lane < lanes; lane++ {
		g := newGenerator(wl, seed, lane, lanes, c)
		for i := 0; i < hashedPrefix; i++ {
			r := g.next()
			fmt.Fprintf(h, "%d|%c|%s|%s|%d|", lane, r.kind, r.user, r.item, r.unix)
			if r.kind != 'f' {
				d := c.drivers[r.driver]
				h.Write([]byte(d.user))
				h.Write(d.planBody)
			}
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// ack is one feedback write the router answered 2xx.
type ack struct {
	user, item string
	unix       int64
}

// heldPlan is the last plan a driver received and how it was served.
type heldPlan struct {
	ids    []string
	served string
}

// lane is one closed-loop client: it sends its next request only after
// the previous one completed.
type lane struct {
	c   *cluster
	wl  string
	gen *generator
	hc  *http.Client

	current map[int]heldPlan // skip_replan: the plan each driver holds now
	resp    bytes.Buffer

	// Sinks, reset per window. Latencies are milliseconds.
	op, plan, write   []float64
	attempted, failed int
	replans, warm     int
	dropped           int // re-plans the disliked item was gone from
	firstFailure      string

	acked []ack // every acked feedback write of the run, for the oracle
}

func (l *lane) reset() {
	l.op, l.plan, l.write = l.op[:0], l.plan[:0], l.write[:0]
	l.attempted, l.failed, l.replans, l.warm, l.dropped = 0, 0, 0, 0, 0
}

func (l *lane) fail(format string, args ...interface{}) {
	l.failed++
	if l.firstFailure == "" {
		l.firstFailure = fmt.Sprintf(format, args...)
	}
}

// post sends one request through the router and reads the whole
// response. The returned latency, in milliseconds, is what the client
// observed; the same interval is the trace's root span.
func (l *lane) post(path, op string, body []byte) (int, float64, error) {
	req, err := http.NewRequest(http.MethodPost, l.c.routerURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := l.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	l.resp.Reset()
	_, err = io.Copy(&l.resp, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return 0, 0, err
	}
	l.c.tr.record(spanClient, op, start, end, resp.StatusCode)
	return resp.StatusCode, float64(end.Sub(start)) / 1e6, nil
}

type planResponse struct {
	Served string `json:"served"`
	Items  []struct {
		ItemID string `json:"item_id"`
	} `json:"items"`
}

// requestPlan posts the driver's plan request and returns the decoded
// plan; ok is false when the request itself failed (already counted).
func (l *lane) requestPlan(d *driver) (planResponse, float64, bool) {
	var pr planResponse
	status, ms, err := l.post("/api/plan", "plan", d.planBody)
	switch {
	case err != nil:
		l.fail("plan %s: %v", d.user, err)
	case status != http.StatusOK:
		l.fail("plan %s: http %d: %s", d.user, status, l.resp.Bytes())
	default:
		if err := json.Unmarshal(l.resp.Bytes(), &pr); err != nil {
			l.fail("plan %s: decoding: %v", d.user, err)
			return pr, ms, false
		}
		l.plan = append(l.plan, ms)
		return pr, ms, true
	}
	return pr, ms, false
}

func (pr planResponse) ids() []string {
	out := make([]string, len(pr.Items))
	for i, it := range pr.Items {
		out[i] = it.ItemID
	}
	return out
}

// write posts one acked write and reports whether the router answered
// 2xx, which means fsynced on the leader and applied on the follower.
func (l *lane) writeReq(path string, body []byte) (float64, bool) {
	status, ms, err := l.post(path, "write", body)
	switch {
	case err != nil:
		l.fail("%s: %v", path, err)
	case status >= 300:
		l.fail("%s: http %d: %s", path, status, l.resp.Bytes())
	default:
		l.write = append(l.write, ms)
		return ms, true
	}
	return ms, false
}

func feedbackBody(user, item, kind string, unix int64) []byte {
	return []byte(`{"user_id":"` + user + `","item_id":"` + item + `","kind":"` + kind + `","unix":` + strconv.FormatInt(unix, 10) + `}`)
}

func trackBody(d *driver, unix int64) []byte {
	return []byte(`{"user_id":"` + d.user +
		`","lat":` + strconv.FormatFloat(d.fix.lat, 'f', -1, 64) +
		`,"lon":` + strconv.FormatFloat(d.fix.lon, 'f', -1, 64) +
		`,"unix":` + strconv.FormatInt(unix, 10) + `}`)
}

// step runs the lane's next operation and checks its output.
func (l *lane) step() {
	r := l.gen.next()
	l.attempted++
	switch l.wl {
	case wlWarmPlan, wlColdPlan:
		d := l.c.drivers[r.driver]
		want := "warm"
		if l.wl == wlColdPlan {
			// What a context shift does to the driver's warm entries;
			// not part of the timed request.
			l.c.leader.PlanCache.InvalidateUser(d.user)
			want = "cold"
		}
		pr, ms, ok := l.requestPlan(d)
		if !ok {
			return
		}
		if pr.Served != want {
			l.fail("plan %s: served %q, want %q", d.user, pr.Served, want)
			return
		}
		if got := pr.ids(); !slices.Equal(got, d.ref) {
			l.fail("plan %s: items %v differ from the reference plan %v", d.user, got, d.ref)
			return
		}
		l.op = append(l.op, ms)

	case wlAckedWrite:
		if r.kind == 'f' {
			ms, ok := l.writeReq("/api/feedback", feedbackBody(r.user, r.item, "like", r.unix))
			if ok {
				l.acked = append(l.acked, ack{r.user, r.item, r.unix})
				l.op = append(l.op, ms)
			}
			return
		}
		if ms, ok := l.writeReq("/api/track", trackBody(l.c.drivers[r.driver], r.unix)); ok {
			l.op = append(l.op, ms)
		}

	case wlSkipReplan:
		d := l.c.drivers[r.driver]
		cur, seen := l.current[r.driver]
		if !seen {
			cur.ids = d.ref
		}
		disliked := cur.ids[0]
		start := time.Now()
		if _, ok := l.writeReq("/api/feedback", feedbackBody(d.user, disliked, "dislike", r.unix)); !ok {
			return
		}
		l.acked = append(l.acked, ack{d.user, disliked, r.unix})
		pr, _, ok := l.requestPlan(d)
		session := float64(time.Since(start)) / 1e6
		if !ok {
			return
		}
		ids := pr.ids()
		if len(ids) == 0 {
			l.fail("skip %s: the re-plan is empty", d.user)
			return
		}
		l.current[r.driver] = heldPlan{ids: ids, served: pr.Served}
		l.replans++
		if pr.Served == "warm" {
			l.warm++
		}
		if !slices.Contains(ids, disliked) {
			l.dropped++
		}
		l.op = append(l.op, session)
	}
}

// windowStats is one measurement window, all lanes merged.
type windowStats struct {
	Seconds   float64 `json:"seconds"`
	Ops       int     `json:"ops"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	OpP50     float64 `json:"op_p50_ms"`
	OpP90     float64 `json:"op_p90_ms"`
	OpP99     float64 `json:"op_p99_ms"`
	OpsPerSec float64 `json:"ops_per_s"`
	// By request kind, whatever the workload's operation is made of.
	PlanP50, PlanP99   float64
	WriteP50, WriteP99 float64
	Replans, Warm      int
	Dropped            int
}

// runWindow drives every lane for d and merges what they recorded.
func runWindow(lanes []*lane, d time.Duration) windowStats {
	for _, l := range lanes {
		l.reset()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.step()
			}
		}(l)
	}
	wg.Wait()
	ws := windowStats{Seconds: time.Since(start).Seconds()}
	var op, plan, write []float64
	for _, l := range lanes {
		op = append(op, l.op...)
		plan = append(plan, l.plan...)
		write = append(write, l.write...)
		ws.Attempted += l.attempted
		ws.Failed += l.failed
		ws.Replans += l.replans
		ws.Warm += l.warm
		ws.Dropped += l.dropped
	}
	ws.Ops = len(op)
	ws.OpP50, ws.OpP90, ws.OpP99 = quantile(op, 0.50), quantile(op, 0.90), quantile(op, 0.99)
	ws.OpsPerSec = float64(len(op)) / ws.Seconds
	ws.PlanP50, ws.PlanP99 = quantile(plan, 0.50), quantile(plan, 0.99)
	ws.WriteP50, ws.WriteP99 = quantile(write, 0.50), quantile(write, 0.99)
	return ws
}

// newLanes builds n closed-loop clients over one keep-alive transport
// with n connections.
func newLanes(c *cluster, wl string, seed int64, n int) ([]*lane, func()) {
	tr := &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = &lane{c: c, wl: wl, hc: hc, gen: newGenerator(wl, seed, i, n, c), current: map[int]heldPlan{}}
	}
	return lanes, tr.CloseIdleConnections
}
