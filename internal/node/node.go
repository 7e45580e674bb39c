// Package node is one PPHCR node's lifecycle: open the leader's
// recovery directory, lead (wire the WAL into the API, run the
// background services, serve the WAL to followers), follow a leader's
// WAL, promote a follower in place, and drain at shutdown.
//
// cmd/pphcr-server and the in-process kill-node cluster
// (scenario.RunKillNode) both run it, so the failover the kill-node gate
// proves is the one production runs, and a promoted leader is the same
// leader as one that booted as such.
package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/precompute"
	"pphcr/internal/replicate"
	"pphcr/internal/service"
)

// Options are a node's lifecycle settings: pphcr-server's durability and
// background-service flags.
type Options struct {
	// Dir is the durability directory (WAL + checkpoints). Empty runs a
	// leader in memory; a follower requires one.
	Dir  string
	Sync durable.SyncPolicy
	// RetainWAL keeps WAL segments past checkpoints, as a replicated
	// leader must: followers bootstrap and rebalances replay from the
	// full log. A promoted leader always retains.
	RetainWAL bool
	// FeedbackCompactEvery is the feedback events per user between
	// compactions (0 disables the feedback compactor).
	FeedbackCompactEvery int
	// WarmWorkers sizes the plan warmer's pool (0 disables the warmer).
	WarmWorkers int
	// Clock is the deployment's "now" for the warmer and the feedback
	// compactor (default time.Now). A synthetic world that lives in the
	// past passes a clock anchored to it.
	Clock func() time.Time
}

// Node runs one System's lifecycle behind one httpapi.Server.
type Node struct {
	sys  *pphcr.System
	api  *httpapi.Server
	opts Options

	// stop is closed by Drain; every leader service hangs off it, and
	// services waits for them to exit.
	stop     chan struct{}
	services sync.WaitGroup

	// mu serializes promotion against itself and against Drain.
	mu sync.Mutex
	// dur is the WAL the node leads with: opened at boot by Open or at
	// promotion. nil on an in-memory leader and on a follower.
	dur      *pphcr.Durability
	standby  *replicate.Standby
	tailStop chan struct{}
	tailDone chan struct{}
	promoted bool
}

// New returns a node for sys, served by api. Nothing runs until Lead or
// Follow.
func New(sys *pphcr.System, api *httpapi.Server, o Options) *Node {
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return &Node{sys: sys, api: api, opts: o, stop: make(chan struct{})}
}

// Open is a leader's recovery open. It runs before anything mutates the
// fresh System and before the listener opens: restore the newest valid
// checkpoint, replay the WAL tail, then attach the log so every later
// mutation is durable. It returns nil with no data directory. A
// follower does not call it: its directory is a mirror of the leader's,
// and promotion opens a live WAL over it.
func (n *Node) Open() (*pphcr.Durability, error) {
	if n.opts.Dir == "" {
		return nil, nil
	}
	// A directory with WAL segments but no checkpoint is a boot that
	// crashed before its first checkpoint — i.e. mid-preload. Its
	// partial log must not masquerade as recoverable state (the restart
	// would skip the rest of the preload and serve a half-loaded world),
	// so reset it and preload from scratch.
	ok, err := durable.Initialized(n.opts.Dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := durable.RemoveSegments(n.opts.Dir); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	dur, err := pphcr.OpenDurability(n.sys, pphcr.DurabilityOptions{
		Dir: n.opts.Dir, Sync: n.opts.Sync, RetainSegments: n.opts.RetainWAL,
	})
	if err != nil {
		return nil, err
	}
	if dur.Recovered() {
		slog.Info("recovered",
			"users", n.sys.Profiles.Len(), "items", n.sys.Repo.Len(), "dir", n.opts.Dir,
			"wal_events", dur.ReplayedEvents(), "dur", time.Since(start).Round(time.Millisecond))
	} else {
		slog.Info("durability enabled", "dir", n.opts.Dir, "wal_sync", n.opts.Sync)
	}
	n.mu.Lock()
	n.dur = dur
	n.mu.Unlock()
	return dur, nil
}

// Lead makes a node that booted as leader serve as one: the lead step
// (see lead), then, with a data directory, the WAL source followers
// tail and the rebalance entry point, mounted on mux. It returns once
// the plan cache is prewarmed.
func (n *Node) Lead(mux *http.ServeMux) error {
	n.mu.Lock()
	dur := n.dur
	warmed, err := n.lead(dur)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	<-warmed
	if dur != nil {
		replicate.NewSource(n.opts.Dir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
		mux.HandleFunc("POST /replication/rebalance", n.handleRebalance)
	}
	return nil
}

// ServeDurability wires dur into api: the write-ack sequence, /stats,
// readiness, degradation and the WAL and checkpoint histogram families.
// A leader does it when it takes the role; pphcr-scenario does it for
// its metrics listener.
func ServeDurability(api *httpapi.Server, dur *pphcr.Durability) {
	api.SetWALSeq(dur.WALSeq)
	api.SetDurabilityStats(func() interface{} { return dur.Stats() })
	// A WAL failure (the first failed segment write or fsync, terminal
	// under either sync policy) must eject the node from rotation:
	// writes can no longer be made durable.
	api.SetReadinessCheck(dur.Healthy)
	// Injected-slow-fsync mode is degradation, not death: the node
	// keeps serving (200) but /readyz and pphcr_degraded flag it.
	api.SetDegradedCheck(dur.Degraded)
	reg := api.Registry()
	reg.RegisterHistogram("pphcr_wal_append_duration_seconds",
		"WAL append latency, including the group-commit ticket wait under sync=always.",
		nil, dur.WALAppendHistogram())
	reg.RegisterHistogram("pphcr_wal_fsync_duration_seconds",
		"WAL flush+fsync latency.", nil, dur.WALFsyncHistogram())
	reg.RegisterHistogram("pphcr_checkpoint_pause_seconds",
		"Checkpoint write-pause (commit-barrier quiesce hold).", nil, dur.PauseHistogram())
}

// lead is the one "become leader" step, run at boot by Lead and at the
// end of promotion. It wires dur (nil in memory) into the API
// (ServeDurability) and starts the leader's background services:
// checkpointer, tracking and feedback compactors, and the plan warmer.
// The returned channel closes once the warmer's prewarm finished (at
// once without a warmer). The caller holds n.mu.
func (n *Node) lead(dur *pphcr.Durability) (<-chan struct{}, error) {
	if dur != nil {
		ServeDurability(n.api, dur)

		// The checkpointer bounds crash recovery to one interval of WAL
		// replay.
		ck, err := service.NewCheckpointer(dur)
		if err != nil {
			return nil, err
		}
		n.run(ck.Run)
	}

	// Live tracking sent to /api/track is periodically compacted, as in
	// the paper's deployment. A follower runs none of these services:
	// every mutation must come off the leader's WAL, or the replica forks.
	c, err := service.NewCompactor(n.sys)
	if err != nil {
		return nil, err
	}
	n.run(c.Run)

	// Live feedback is periodically folded into the per-user baseline so
	// the log stays bounded (preference reads come from the incremental
	// index and are unaffected).
	if n.opts.FeedbackCompactEvery > 0 {
		fbc, err := service.NewFeedbackCompactor(n.sys, n.opts.FeedbackCompactEvery, n.opts.Clock)
		if err != nil {
			return nil, err
		}
		n.run(fbc.Run)
	}

	warmed := make(chan struct{})
	if n.opts.WarmWorkers <= 0 {
		close(warmed)
		return warmed, nil
	}
	w, err := service.NewWarmer(n.sys, precompute.Config{Workers: n.opts.WarmWorkers, Now: n.opts.Clock})
	if err != nil {
		return nil, err
	}
	n.api.SetWarmerStats(func() interface{} { return w.Stats() })
	n.services.Add(1)
	go func() {
		defer n.services.Done()
		slog.Info("prewarming plans",
			"users", len(n.sys.MobilityUsers()), "workers", n.opts.WarmWorkers)
		start := time.Now()
		plans := w.Prewarm(n.sys, n.opts.Clock())
		slog.Info("prewarmed", "plans", plans,
			"dur", time.Since(start).Round(time.Millisecond), "cache_entries", n.sys.PlanCache.Len())
		close(warmed)
		w.Run(n.stop)
	}()
	return warmed, nil
}

// run starts one background service on the node's stop channel.
func (n *Node) run(service func(stop <-chan struct{})) {
	n.services.Add(1)
	go func() {
		defer n.services.Done()
		service(n.stop)
	}()
}

func (n *Node) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req replicate.RebalanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"bad json: %v"}`, err), http.StatusBadRequest)
		return
	}
	start := time.Now()
	applied, err := replicate.Rebalance(r.Context(), n.sys, req.Source, "/replication", req.Users)
	if err != nil {
		slog.Error("rebalance", "source", req.Source, "users", len(req.Users), "err", err)
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadGateway)
		return
	}
	slog.Info("rebalanced in",
		"users", len(req.Users), "applied", applied, "source", req.Source,
		"dur", time.Since(start).Round(time.Millisecond))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(replicate.RebalanceResponse{Users: len(req.Users), Applied: applied})
}

// Follow makes the node a warm follower of the leader at leaderURL: it
// tails the leader's WAL into the data directory, reports the follower
// role, its lag and its readiness, and mounts the standby's wait and
// status endpoints plus the promote endpoint on mux. The System must be
// empty: the leader's WAL begins with the leader's own preload.
func (n *Node) Follow(mux *http.ServeMux, leaderURL string) error {
	standby, err := replicate.NewStandby(n.sys, n.opts.Dir, leaderURL, "/replication")
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.standby = standby
	n.tail()
	n.mu.Unlock()
	n.api.SetRole(httpapi.RoleFollower)
	n.api.SetReplicationLag(standby.LagSeconds)
	// A wedged tail (corrupt ship, apply failure) ejects the node: it can
	// no longer converge on the leader's state.
	n.api.SetReadinessCheck(standby.Err)
	standby.Mount(mux, "/replication")
	mux.HandleFunc("POST /replication/promote", n.handlePromote)
	slog.Info("tailing leader WAL", "leader", leaderURL, "dir", n.opts.Dir)
	return nil
}

// tail starts the standby's tail loop. The caller holds n.mu.
func (n *Node) tail() {
	stop, done := make(chan struct{}), make(chan struct{})
	n.tailStop, n.tailDone = stop, done
	go func() {
		defer close(done)
		n.standby.Run(stop)
	}()
}

// handlePromote turns this follower into the partition leader in place:
// stop tailing, replay any shipped-but-unapplied WAL suffix, open a live
// WAL over the local directory, then run the same lead step a booted
// leader runs. Idempotent: a repeated promote (a router retrying a lost
// response) answers 200 with "already".
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"promoted":true,"applied_seq":%d,"already":true}`+"\n", n.dur.WALSeq())
		return
	}
	start := time.Now()
	n.api.SetRole(httpapi.RolePromoting)
	close(n.tailStop)
	<-n.tailDone

	dur, replayed, err := n.standby.Promote(pphcr.DurabilityOptions{
		Sync: n.opts.Sync, RetainSegments: true,
	})
	if err != nil {
		// Promotion failed; resume tailing so a later retry can succeed.
		n.api.SetRole(httpapi.RoleFollower)
		n.tail()
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	n.promoted = true
	n.dur = dur
	n.api.SetReplicationLag(func() float64 { return 0 })
	// The WAL is open and owns the directory: the node is a leader from
	// here on even if a service fails to start. The warmer prewarms in
	// the background, so it does not lengthen the failover.
	if _, err := n.lead(dur); err != nil {
		slog.Error("post-promotion services", "err", err)
	}
	n.api.SetRole(httpapi.RoleLeader)
	ms := time.Since(start).Milliseconds()
	slog.Warn("promoted to leader",
		"replayed", replayed, "applied_seq", dur.WALSeq(), "promote_ms", ms)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"promoted":true,"replayed":%d,"applied_seq":%d,"promote_ms":%d}`+"\n",
		replayed, dur.WALSeq(), ms)
}

// Drain stops the background services and a follower's tail loop, then
// writes the final checkpoint of the WAL the node leads with, booted or
// promoted. Call it once, after the listener drained, so every
// acknowledged mutation is in the snapshot and the next boot replays
// nothing.
func (n *Node) Drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	close(n.stop)
	n.services.Wait()
	if n.standby != nil && !n.promoted {
		close(n.tailStop)
		<-n.tailDone
	}
	if n.dur == nil {
		return
	}
	start := time.Now()
	switch err := n.dur.Close(); {
	case errors.Is(err, pphcr.ErrCrashed):
		slog.Warn("no final checkpoint (crashed)")
	case err != nil:
		slog.Error("final checkpoint", "err", err)
	default:
		slog.Info("final checkpoint written", "dur", time.Since(start).Round(time.Millisecond))
	}
}
