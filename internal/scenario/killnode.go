package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/node"
	"pphcr/internal/replicate"
	"pphcr/internal/synth"
)

// FailoverOptions drives a write storm against a replicated cluster's
// router while (optionally) killing the partition leader mid-storm, and
// then proves the acked-writes invariant: every write the router
// answered 2xx — which, through the semi-sync barrier, means "applied
// by the follower" — must be present on whoever leads afterwards.
type FailoverOptions struct {
	// RouterURL is the cluster front door the storm talks to.
	RouterURL string
	// FollowerURL, when set, is polled for replication lag during the
	// storm (GET /replication/status on the standby).
	FollowerURL string
	// Users sizes the partition-key space (default 16); each writer
	// (default 4) owns a disjoint slice of it so per-user write order
	// is serialized client-side.
	Users   int
	Writers int
	// Duration is the storm length; Kill (if set) fires after KillAfter.
	Duration  time.Duration
	KillAfter time.Duration
	Kill      func()
	// AckTimeout bounds one write round-trip through the router.
	AckTimeout time.Duration
	Logf       func(string, ...interface{})
}

// FailoverReport is the outcome: the acked-write oracle and the
// failover/replication tail numbers Gate judges.
type FailoverReport struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Writes          int64   `json:"writes"`
	Acked           int64   `json:"acked"`
	// Unacked writes got no 2xx (connection error, 502/503 during the
	// failover window, or a 504 ack-barrier timeout): the protocol makes
	// no promise about them, so the oracle ignores them.
	Unacked int64 `json:"unacked"`
	// LostAcked is the invariant: acked writes missing from the
	// post-failover leader. MUST be zero.
	LostAcked   int64    `json:"lost_acked"`
	LostSample  []string `json:"lost_sample,omitempty"`
	Failovers   int64    `json:"failovers"`
	FailoverMs  int64    `json:"failover_ms"`
	MaxLagMs    int64    `json:"replication_lag_ms"`
	VerifyUsers int      `json:"verify_users"`
}

// ackKey is one write's identity in the multiset oracle: unique by
// construction (writer index + per-writer counter), so containment
// checks are exact.
func ackKey(user, item string, unix int64) string {
	return user + "|" + item + "|" + strconv.FormatInt(unix, 10)
}

// Gate judges a storm the leader was killed under. It returns one
// "PASS …"/"FAIL …" line per check and whether all held: some write was
// acked, no acked write was lost, the router failed over, and it did
// so within bound.
func (r *FailoverReport) Gate(bound time.Duration) (checks []string, pass bool) {
	pass = true
	check := func(ok bool, format string, args ...interface{}) {
		status := "PASS "
		if !ok {
			status = "FAIL "
			pass = false
		}
		checks = append(checks, status+fmt.Sprintf(format, args...))
	}
	check(r.Acked > 0, "acked writes > 0 (got %d of %d)", r.Acked, r.Writes)
	check(r.LostAcked == 0, "zero lost acked writes (lost %d, sample %v)", r.LostAcked, r.LostSample)
	check(r.Failovers >= 1, "failover happened (got %d)", r.Failovers)
	check(r.FailoverMs > 0 && r.FailoverMs <= bound.Milliseconds(),
		"failover bounded at %v (took %dms)", bound, r.FailoverMs)
	return checks, pass
}

// RunFailoverStorm fires the storm and verifies the oracle. The
// returned report's LostAcked is the pass/fail signal; Gate judges it.
func RunFailoverStorm(o FailoverOptions) (*FailoverReport, error) {
	if o.Users <= 0 {
		o.Users = 16
	}
	if o.Writers <= 0 {
		o.Writers = 4
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	if o.Users < o.Writers {
		return nil, fmt.Errorf("failover storm: %d users cannot cover %d writers", o.Users, o.Writers)
	}
	userIDs := make([]string, o.Users)
	for i := range userIDs {
		userIDs[i] = fmt.Sprintf("storm-user-%03d", i)
	}
	hc := &http.Client{Timeout: o.AckTimeout}

	// Register the storm users up front (acked through the barrier like
	// any write) so feedback has profiles to land on.
	for _, u := range userIDs {
		body := fmt.Sprintf(`{"user_id":%q,"name":"storm","age":30,"interests":["news"]}`, u)
		resp, err := hc.Post(o.RouterURL+"/api/users", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", u, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			return nil, fmt.Errorf("registering %s: http %d", u, resp.StatusCode)
		}
	}

	rep := &FailoverReport{}
	var writes, ackedN, unackedN atomic.Int64
	var mu sync.Mutex
	acked := make(map[string]int)

	var maxLagMs atomic.Int64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if o.FollowerURL != "" {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-t.C:
				}
				resp, err := hc.Get(o.FollowerURL + "/replication/status")
				if err != nil {
					continue
				}
				var st replicate.StandbyStats
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					continue
				}
				if ms := int64(st.LagSeconds * 1000); ms > maxLagMs.Load() {
					maxLagMs.Store(ms)
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(o.Duration)
	var killOnce sync.Once
	var wg sync.WaitGroup
	perWorker := len(userIDs) / o.Writers
	for wi := 0; wi < o.Writers; wi++ {
		users := userIDs[wi*perWorker : (wi+1)*perWorker]
		wg.Add(1)
		go func(wi int, users []string) {
			defer wg.Done()
			seqNo := 0
			for time.Now().Before(deadline) {
				if o.Kill != nil && time.Since(start) >= o.KillAfter {
					killOnce.Do(func() {
						logf("killing the leader at +%v", time.Since(start).Round(time.Millisecond))
						o.Kill()
					})
				}
				user := users[seqNo%len(users)]
				item := fmt.Sprintf("storm-w%d-%d", wi, seqNo)
				unix := start.Unix() + int64(seqNo)
				seqNo++
				body := fmt.Sprintf(`{"user_id":%q,"item_id":%q,"kind":"like","unix":%d}`, user, item, unix)
				writes.Add(1)
				resp, err := hc.Post(o.RouterURL+"/api/feedback", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					unackedN.Add(1)
					time.Sleep(25 * time.Millisecond)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode < 300 {
					ackedN.Add(1)
					mu.Lock()
					acked[ackKey(user, item, unix)]++
					mu.Unlock()
				} else {
					// 503 while the partition promotes, 502 while the
					// listener is gone, 504 when the barrier timed out:
					// all unacked, all survivable-or-not without promise.
					unackedN.Add(1)
					time.Sleep(25 * time.Millisecond)
				}
			}
		}(wi, users)
	}
	wg.Wait()
	close(stopLag)
	lagWG.Wait()
	rep.DurationSeconds = time.Since(start).Seconds()
	rep.Writes = writes.Load()
	rep.Acked = ackedN.Load()
	rep.Unacked = unackedN.Load()
	rep.MaxLagMs = maxLagMs.Load()

	// Router-side failover accounting.
	if resp, err := hc.Get(o.RouterURL + "/router/stats"); err == nil {
		var st replicate.RouterStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err == nil {
			rep.Failovers = st.Failovers
			rep.FailoverMs = st.LastFailoverMs
		}
		resp.Body.Close()
	}

	// The oracle: replay the acked multiset against the surviving
	// leader's event dump. Every acked key must be present at least as
	// many times as it was acked (duplicates from ambiguous retries are
	// tolerated; absence is loss).
	rep.VerifyUsers = len(userIDs)
	for _, u := range userIDs {
		resp, err := hc.Get(o.RouterURL + "/api/feedback/events?user=" + u)
		if err != nil {
			return rep, fmt.Errorf("verifying %s: %w", u, err)
		}
		var events []httpapi.FeedbackEventView
		err = json.NewDecoder(resp.Body).Decode(&events)
		resp.Body.Close()
		if err != nil {
			return rep, fmt.Errorf("verifying %s: %w", u, err)
		}
		have := make(map[string]int, len(events))
		for _, e := range events {
			have[ackKey(e.UserID, e.ItemID, e.Unix)]++
		}
		for k, n := range acked {
			if user, _, _ := splitAckKey(k); user != u {
				continue
			}
			if have[k] < n {
				rep.LostAcked += int64(n - have[k])
				if len(rep.LostSample) < 10 {
					rep.LostSample = append(rep.LostSample, k)
				}
			}
		}
	}
	logf("storm done: %d writes, %d acked, %d unacked, %d LOST, failover %dms, max lag %dms",
		rep.Writes, rep.Acked, rep.Unacked, rep.LostAcked, rep.FailoverMs, rep.MaxLagMs)
	return rep, nil
}

func splitAckKey(k string) (user, item string, unix int64) {
	for i := 0; i < len(k); i++ {
		if k[i] == '|' {
			for j := len(k) - 1; j > i; j-- {
				if k[j] == '|' {
					unix, _ = strconv.ParseInt(k[j+1:], 10, 64)
					return k[:i], k[i+1 : j], unix
				}
			}
		}
	}
	return k, "", 0
}

// KillNodeOptions sizes the in-process kill-a-node scenario: a
// two-System cluster (leader + warm standby) behind a real Router, all
// over real HTTP, with the leader crash-killed mid-storm.
type KillNodeOptions struct {
	Seed      int64
	Users     int
	Writers   int
	Duration  time.Duration
	KillAfter time.Duration
	Logf      func(string, ...interface{})
}

// RunKillNode builds the cluster, runs the storm, kills the leader,
// and returns the oracle report. Both nodes run the production node
// lifecycle (internal/node), as pphcr-server does: the leader opens and
// leads, the follower tails and is promoted through the one promote
// handler, and the Router's health detector does the promotion.
func RunKillNode(o KillNodeOptions) (*FailoverReport, error) {
	if o.Duration <= 0 {
		o.Duration = 6 * time.Second
	}
	if o.KillAfter <= 0 {
		o.KillAfter = o.Duration / 3
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	w, err := synth.GenerateWorld(synth.Params{
		Seed: o.Seed, Days: 2, Users: 10, Stations: 2,
		PodcastsPerDay: 10, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		return nil, err
	}
	// newNode builds one node over its own System and temp directory with
	// the settings the failover-smoke job runs pphcr-server with:
	// synchronous acks, retained segments, and neither feedback compaction
	// nor a warmer, so the oracle sees every event verbatim.
	newNode := func(role string) (*node.Node, *http.ServeMux, string, error) {
		sys, err := pphcr.NewWorld(w, o.Seed)
		if err != nil {
			return nil, nil, "", err
		}
		dir, err := os.MkdirTemp("", "pphcr-killnode-"+role+"-*")
		if err != nil {
			return nil, nil, "", err
		}
		api := httpapi.NewServer(sys)
		n := node.New(sys, api, node.Options{
			Dir: dir, Sync: durable.SyncAlways, RetainWAL: true,
		})
		mux := http.NewServeMux()
		mux.Handle("/", api.Handler())
		return n, mux, dir, nil
	}

	leader, leaderMux, leaderDir, err := newNode("leader")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(leaderDir)
	leaderDur, err := leader.Open()
	if err != nil {
		return nil, err
	}
	if err := leader.Lead(leaderMux); err != nil {
		return nil, err
	}
	defer leader.Drain()
	leaderSrv := httptest.NewServer(leaderMux)
	leaderDown := false
	defer func() {
		if !leaderDown {
			leaderSrv.Close()
		}
	}()

	// Follower: an empty System tailing the leader.
	follower, followerMux, followerDir, err := newNode("follower")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(followerDir)
	if err := follower.Follow(followerMux, leaderSrv.URL); err != nil {
		return nil, err
	}
	defer follower.Drain()
	followerSrv := httptest.NewServer(followerMux)
	defer followerSrv.Close()

	// The front door.
	topo := &replicate.Topology{Version: 1, Nodes: []replicate.Node{
		{ID: "a", URL: leaderSrv.URL, Standby: followerSrv.URL},
	}}
	router := replicate.NewRouter(topo)
	router.HealthInterval = 25 * time.Millisecond
	router.HealthTimeout = 250 * time.Millisecond
	router.FailThreshold = 3
	routerStop := make(chan struct{})
	defer close(routerStop)
	go router.Run(routerStop)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	logf("kill-node cluster up: leader=%s follower=%s router=%s", leaderSrv.URL, followerSrv.URL, front.URL)
	return RunFailoverStorm(FailoverOptions{
		RouterURL:   front.URL,
		FollowerURL: followerSrv.URL,
		Users:       o.Users,
		Writers:     o.Writers,
		Duration:    o.Duration,
		KillAfter:   o.KillAfter,
		AckTimeout:  15 * time.Second,
		Logf:        logf,
		Kill: func() {
			// SIGKILL semantics: the process vanishes — no final flush, no
			// graceful close, in-flight connections die.
			leaderDur.Crash()
			leaderSrv.CloseClientConnections()
			leaderSrv.Close()
			leaderDown = true
		},
	})
}
