package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/httpapi"
)

// Router is the cluster front door: it owns the consistent-hash
// partition table, forwards each request to the node owning its user,
// health-checks every leader, and promotes a partition's standby when
// its leader dies. Writes are acknowledged through the semi-sync
// barrier: the response is held until the partition's follower has
// applied at least the write's WAL sequence — which is exactly what
// makes "the client saw 2xx" mean "the write survives losing the
// leader".
type Router struct {
	// HealthInterval / HealthTimeout / FailThreshold tune the detector:
	// a leader is declared dead after FailThreshold consecutive probe
	// failures. Defaults: 100ms / 1s / 3.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	FailThreshold  int
	// AckTimeout bounds the semi-sync barrier: a write whose follower
	// ack does not arrive in time returns 504 — NOT acknowledged; it may
	// or may not survive, and an idempotent retry is the client's move.
	// Default 5s.
	AckTimeout time.Duration
	// ProxyTimeout bounds one forwarded request. Default 30s.
	ProxyTimeout time.Duration

	Logger *slog.Logger

	hc *http.Client

	mu    sync.RWMutex
	topo  *Topology
	ring  *Ring
	nodes map[string]*nodeState

	failovers atomic.Int64
	// lastFailoverMs is the detection→promoted duration of the most
	// recent failover, the failover_ms benchmark highlight.
	lastFailoverMs atomic.Int64
}

// nodeState is one partition's runtime state.
type nodeState struct {
	node Node
	// leader and standby are node.URL and node.Standby parsed once, so a
	// forward builds its upstream URL without parsing; nil when the
	// topology's string does not parse.
	leader, standby *url.URL

	mu       sync.Mutex
	fails    int
	promoted bool // standby has taken over
	healthy  bool
	// firstFail marks when the current probe-failure streak began: the
	// start of the client-visible outage the failover_ms highlight
	// measures.
	firstFail time.Time
}

// active reports whether this partition's traffic goes to the standby
// and whether that target is a (still-follower) replica.
func (n *nodeState) active() (toStandby, replica bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted {
		return true, false
	}
	// Leader presumed dead, promotion not yet complete: reads are served
	// stale by the warm standby, flagged as replica.
	degraded := !n.healthy && n.node.Standby != ""
	return degraded, degraded
}

// activeURL returns where this partition's traffic goes.
func (n *nodeState) activeURL() string {
	if toStandby, _ := n.active(); toStandby {
		return n.node.Standby
	}
	return n.node.URL
}

// NewRouter builds a router over a validated topology.
func NewRouter(t *Topology) *Router {
	r := &Router{
		HealthInterval: 100 * time.Millisecond,
		HealthTimeout:  time.Second,
		FailThreshold:  3,
		AckTimeout:     5 * time.Second,
		ProxyTimeout:   30 * time.Second,
		Logger:         slog.Default(),
		hc:             &http.Client{Transport: newTransport()},
	}
	r.install(t)
	return r
}

// maxIdleForwards is how many idle connections the router keeps to one
// node: enough that concurrent forwards reuse connections instead of
// opening one per request, which is what http.DefaultTransport's two
// amount to under more than two clients.
const maxIdleForwards = 256

// newTransport is the router's own connection pool, shared by forwards,
// health probes and ack waits and by nothing else in the process. Nodes
// are addressed directly (no proxy lookup per request), bodies pass
// through as the node wrote them (no gzip negotiation), and idle
// connections are bounded per node only.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: maxIdleForwards,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// install swaps in a topology (initial load or a reload).
func (r *Router) install(t *Topology) {
	ring := NewRing(t)
	nodes := make(map[string]*nodeState, len(t.Nodes))
	r.mu.Lock()
	for _, n := range t.Nodes {
		if old, ok := r.nodes[n.ID]; ok && old.node == n {
			nodes[n.ID] = old // keep health/failover state across reloads
			continue
		}
		ns := &nodeState{node: n, healthy: true}
		ns.leader, _ = url.Parse(n.URL)
		if n.Standby != "" {
			ns.standby, _ = url.Parse(n.Standby)
		}
		nodes[n.ID] = ns
	}
	r.topo, r.ring, r.nodes = t, ring, nodes
	r.mu.Unlock()
}

// Run drives the health/failover loop until stop closes.
func (r *Router) Run(stop <-chan struct{}) {
	t := time.NewTicker(r.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		r.checkOnce()
	}
}

// checkOnce probes every partition's active leader and triggers
// failovers past the threshold.
func (r *Router) checkOnce() {
	r.mu.RLock()
	states := make([]*nodeState, 0, len(r.nodes))
	for _, n := range r.nodes {
		states = append(states, n)
	}
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for _, ns := range states {
		wg.Add(1)
		go func(ns *nodeState) {
			defer wg.Done()
			r.checkNode(ns)
		}(ns)
	}
	wg.Wait()
}

func (r *Router) checkNode(ns *nodeState) {
	ns.mu.Lock()
	if ns.promoted {
		ns.mu.Unlock()
		return // already failed over; no fail-back
	}
	target := ns.node.URL
	ns.mu.Unlock()

	err := r.probe(target)
	ns.mu.Lock()
	if err == nil {
		ns.fails = 0
		ns.healthy = true
		ns.mu.Unlock()
		return
	}
	if ns.fails == 0 {
		ns.firstFail = time.Now()
	}
	ns.fails++
	fails := ns.fails
	trigger := fails >= r.FailThreshold && ns.node.Standby != ""
	if trigger {
		ns.healthy = false
	}
	ns.mu.Unlock()
	if !trigger {
		return
	}
	r.failover(ns)
}

func (r *Router) probe(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: http %d", resp.StatusCode)
	}
	return nil
}

// failover promotes ns's standby and flips the partition's active
// target. The recorded failover time runs from the FIRST failed probe
// to promotion complete — the full client-visible outage window
// (detection latency included), not just the promote round-trip.
func (r *Router) failover(ns *nodeState) {
	ns.mu.Lock()
	start := ns.firstFail
	ns.mu.Unlock()
	if start.IsZero() {
		start = time.Now()
	}
	r.Logger.Warn("leader unreachable, promoting standby",
		"node", ns.node.ID, "leader", ns.node.URL, "standby", ns.node.Standby)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ns.node.Standby+"/replication/promote", nil)
	if err != nil {
		r.Logger.Error("promote request", "node", ns.node.ID, "err", err)
		return
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.Logger.Error("promote failed, will retry next probe", "node", ns.node.ID, "err", err)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.Logger.Error("promote rejected, will retry next probe",
			"node", ns.node.ID, "status", resp.StatusCode, "body", string(body))
		return
	}
	ns.mu.Lock()
	ns.promoted = true
	ns.mu.Unlock()
	ms := time.Since(start).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	r.failovers.Add(1)
	r.lastFailoverMs.Store(ms)
	r.Logger.Warn("standby promoted", "node", ns.node.ID, "failover_ms", ms, "detail", string(body))
}

// ownerFor resolves a user to its partition state.
func (r *Router) ownerFor(user string) *nodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[r.ring.Owner(user)]
}

// anyNode returns some partition (for user-less endpoints such as the
// service directory — every node carries the full same-seed catalog).
func (r *Router) anyNode() *nodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, n := range r.ring.Nodes() {
		return r.nodes[n.ID]
	}
	return nil
}

// Handler returns the router's HTTP surface: its own health/stats plus
// the forwarding front door.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/readyz", r.handleReady)
	mux.HandleFunc("/router/stats", r.handleStats)
	mux.HandleFunc("/", r.forward)
	return mux
}

func (r *Router) handleReady(w http.ResponseWriter, req *http.Request) {
	// The router is ready when every partition has a live target.
	r.mu.RLock()
	states := make([]*nodeState, 0, len(r.nodes))
	for _, n := range r.nodes {
		states = append(states, n)
	}
	r.mu.RUnlock()
	for _, ns := range states {
		ns.mu.Lock()
		dead := !ns.healthy && !ns.promoted && ns.node.Standby == ""
		ns.mu.Unlock()
		if dead {
			http.Error(w, fmt.Sprintf(`{"ready":false,"node":%q}`, ns.node.ID), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ready":true}`)
}

// RouterStats is the /router/stats view.
type RouterStats struct {
	TopologyVersion int               `json:"topology_version"`
	Nodes           []RouterNodeView  `json:"nodes"`
	Failovers       int64             `json:"failovers"`
	LastFailoverMs  int64             `json:"last_failover_ms"`
	Ownership       map[string]string `json:"-"`
}

// RouterNodeView is one partition in /router/stats.
type RouterNodeView struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Standby  string `json:"standby,omitempty"`
	Healthy  bool   `json:"healthy"`
	Promoted bool   `json:"promoted"`
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	st := RouterStats{TopologyVersion: r.topo.Version}
	ids := r.ring.Nodes()
	nodes := make([]*nodeState, 0, len(ids))
	for _, n := range ids {
		nodes = append(nodes, r.nodes[n.ID])
	}
	r.mu.RUnlock()
	for _, ns := range nodes {
		ns.mu.Lock()
		st.Nodes = append(st.Nodes, RouterNodeView{
			ID: ns.node.ID, URL: ns.node.URL, Standby: ns.node.Standby,
			Healthy: ns.healthy, Promoted: ns.promoted,
		})
		ns.mu.Unlock()
	}
	st.Failovers = r.failovers.Load()
	st.LastFailoverMs = r.lastFailoverMs.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// Body limits of one forward: what is read of a request and of the
// node's reply; the rest is dropped.
const (
	maxForwardRequest  = 16 << 20
	maxForwardResponse = 64 << 20
)

// forwardBufs is what one forward buffers: the request body, which must
// be read whole before the partition is known (the user may sit in it),
// and the node's reply, which must be held until the ack barrier has
// decided between it and a 504. Pooled, so a forward allocates for the
// request it builds and not for the plumbing.
type forwardBufs struct{ req, resp bytes.Buffer }

var forwardPool = sync.Pool{New: func() interface{} { return new(forwardBufs) }}

// maxPooledForward is the largest buffer worth keeping between forwards.
const maxPooledForward = 64 << 10

// routerError answers with the router's own error body, the same shape
// the nodes use.
func routerError(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// forward proxies one request to the partition owning its user.
func (r *Router) forward(w http.ResponseWriter, req *http.Request) {
	bufs := forwardPool.Get().(*forwardBufs)
	// The buffers go back only once the transport is done with them: a
	// RoundTripper may still read the request body after it has returned
	// an error, so a failed forward leaves its buffers to the collector.
	recycle := false
	defer func() {
		if recycle && bufs.req.Cap() <= maxPooledForward && bufs.resp.Cap() <= maxPooledForward {
			forwardPool.Put(bufs)
		}
	}()

	bufs.req.Reset()
	if req.Body != nil {
		if _, err := bufs.req.ReadFrom(io.LimitReader(req.Body, maxForwardRequest)); err != nil {
			routerError(w, http.StatusBadRequest, "reading body")
			return
		}
	}
	body := bufs.req.Bytes()
	// httpapi's route table says whose request this is and whether it
	// writes: a write carries the ack barrier and is refused while its
	// partition is failing over.
	user, isWrite := httpapi.Classify(req, body)
	var ns *nodeState
	if user != "" {
		ns = r.ownerFor(user)
	} else {
		ns = r.anyNode()
	}
	if ns == nil {
		routerError(w, http.StatusServiceUnavailable, "no node for request")
		return
	}
	toStandby, replica := ns.active()
	if isWrite && replica {
		// Leader presumed dead, promotion in flight: writes cannot be
		// made durable-and-replicated right now. 503 + Retry-After lets
		// the client's backoff absorb the failover window.
		w.Header().Set("Retry-After", "1")
		routerError(w, http.StatusServiceUnavailable, "partition failing over; retry")
		return
	}
	base := ns.leader
	if toStandby {
		base = ns.standby
	}
	if base == nil {
		routerError(w, http.StatusInternalServerError, "building upstream request")
		return
	}

	ctx, cancel := context.WithTimeout(req.Context(), r.ProxyTimeout)
	defer cancel()
	target := *base
	target.Path, target.RawPath, target.RawQuery = base.Path+req.URL.Path, "", req.URL.RawQuery
	header := make(http.Header, 1)
	if ct := req.Header.Get("Content-Type"); ct != "" {
		header.Set("Content-Type", ct)
	}
	out := &http.Request{Method: req.Method, URL: &target, Header: header}
	if len(body) > 0 { // else no Body at all: a non-nil one of length 0 means "unknown"
		out.Body, out.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		// For the transport's retry on a connection the node closed as
		// the request went out; it reads the same bytes.
		out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	out = out.WithContext(ctx)
	// RoundTrip, not Client.Do: the router follows no redirects and
	// carries no cookies, and a reply is the node's whatever its status.
	resp, err := r.hc.Transport.RoundTrip(out)
	if err != nil {
		routerError(w, http.StatusBadGateway, fmt.Sprintf("upstream %s unreachable", ns.node.ID))
		return
	}
	bufs.resp.Reset()
	_, err = bufs.resp.ReadFrom(io.LimitReader(resp.Body, maxForwardResponse))
	resp.Body.Close()
	if err != nil {
		routerError(w, http.StatusBadGateway, "reading upstream response")
		return
	}
	recycle = true

	// Semi-sync ack barrier: hold the 2xx of a write until the
	// partition's follower has applied at least the write's sequence.
	if isWrite && resp.StatusCode < 300 {
		if err := r.ackBarrier(ctx, ns, resp.Header.Get(httpapi.HeaderWalSeq)); err != nil {
			// NOT acked: the write may or may not survive a leader loss
			// right now. 504 tells the client to treat it as unacked.
			routerError(w, http.StatusGatewayTimeout, fmt.Sprintf("replication ack timeout: %v", err))
			return
		}
	}

	h := w.Header()
	for _, name := range [...]string{"Content-Type", httpapi.HeaderWalSeq} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-Pphcr-Node", ns.node.ID)
	h.Set("Content-Length", strconv.Itoa(bufs.resp.Len()))
	w.WriteHeader(resp.StatusCode)
	w.Write(bufs.resp.Bytes())
}

// ackBarrier long-polls the partition's follower until it has applied
// walSeq. A partition without a standby (or after promotion, when the
// promoted node has no follower yet) acks immediately — durability is
// then single-node, exactly as documented.
func (r *Router) ackBarrier(ctx context.Context, ns *nodeState, walSeqHeader string) error {
	if walSeqHeader == "" {
		return nil // not a replication-aware response
	}
	ns.mu.Lock()
	standby := ns.node.Standby
	promoted := ns.promoted
	ns.mu.Unlock()
	if standby == "" || promoted {
		return nil
	}
	seq, err := strconv.ParseUint(walSeqHeader, 10, 64)
	if err != nil || seq == 0 {
		return nil
	}
	ackCtx, cancel := context.WithTimeout(ctx, r.AckTimeout)
	defer cancel()
	q := url.Values{
		"seq":        {strconv.FormatUint(seq, 10)},
		"timeout_ms": {strconv.FormatInt(r.AckTimeout.Milliseconds(), 10)},
	}
	req, err := http.NewRequestWithContext(ackCtx, http.MethodGet, standby+"/replication/wait?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follower wait: http %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// ReloadTopology installs a newer topology and rebalances: for every
// user whose owner changed, the new owner replays the user's WAL slice
// fetched from the old owner. The router discovers each node's users
// through its user listing (httpapi.UsersPath), so no side channel is
// needed. Returns the number of users moved.
func (r *Router) ReloadTopology(t *Topology) (int, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	r.mu.RLock()
	oldTopo, oldRing := r.topo, r.ring
	r.mu.RUnlock()
	if t.Version <= oldTopo.Version {
		return 0, fmt.Errorf("replicate: topology version %d is not newer than %d", t.Version, oldTopo.Version)
	}
	newRing := NewRing(t)

	// moved[newOwnerID][sourceURL] = users to replay there from source.
	moved := make(map[string]map[string][]string)
	total := 0
	for _, n := range oldRing.Nodes() {
		ns := func() *nodeState {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return r.nodes[n.ID]
		}()
		if ns == nil {
			continue
		}
		source := ns.activeURL()
		users, err := r.listUsers(source)
		if err != nil {
			return 0, fmt.Errorf("replicate: listing users on %s: %w", n.ID, err)
		}
		for _, u := range users {
			if oldRing.Owner(u) != n.ID {
				continue // replica listing overlap; owner handles it
			}
			newOwner := newRing.Owner(u)
			if newOwner == n.ID {
				continue
			}
			if moved[newOwner] == nil {
				moved[newOwner] = make(map[string][]string)
			}
			moved[newOwner][source] = append(moved[newOwner][source], u)
			total++
		}
	}

	for newOwner, bySource := range moved {
		dest, ok := newRing.Node(newOwner)
		if !ok {
			continue
		}
		destURL := dest.URL
		if ns := func() *nodeState {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return r.nodes[newOwner]
		}(); ns != nil {
			destURL = ns.activeURL()
		}
		for source, users := range bySource {
			if err := r.requestRebalance(destURL, source, users); err != nil {
				return 0, fmt.Errorf("replicate: rebalancing %d users to %s: %w", len(users), newOwner, err)
			}
			r.Logger.Info("rebalanced", "users", len(users), "from", source, "to", newOwner)
		}
	}

	r.install(t)
	return total, nil
}

func (r *Router) listUsers(base string) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.ProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+httpapi.UsersPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var users []string
	if err := json.NewDecoder(resp.Body).Decode(&users); err != nil {
		return nil, err
	}
	return users, nil
}

// RebalanceRequest is the body of POST /replication/rebalance on the
// new owner: replay these users' WAL slice from source.
type RebalanceRequest struct {
	Source string   `json:"source"`
	Users  []string `json:"users"`
}

// RebalanceResponse reports what the new owner applied.
type RebalanceResponse struct {
	Users   int `json:"users"`
	Applied int `json:"applied"`
}

func (r *Router) requestRebalance(dest, source string, users []string) error {
	body, err := json.Marshal(RebalanceRequest{Source: source, Users: users})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, dest+"/replication/rebalance", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(respBody)))
	}
	return nil
}
