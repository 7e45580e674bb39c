package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/replicate"
	"pphcr/internal/service"
	"pphcr/internal/synth"
)

// replicationRuntime wires the replicate package into the server
// process: the leader side mounts the WAL-shipping source and the
// rebalance endpoint; the follower side runs the tailer and serves the
// ack-barrier wait plus the promote endpoint that turns it into a
// leader in place.
type replicationRuntime struct {
	sys     *pphcr.System
	api     *httpapi.Server
	dataDir string
	sync    durable.SyncPolicy
	// stop is the process-wide background-services channel; services
	// started at promotion (checkpointer, compactors) hang off it.
	stop       chan struct{}
	ckInterval time.Duration
	fbEvery    int
	fbHorizon  time.Duration
	clock      func() time.Time

	standby  *replicate.Standby
	tailStop chan struct{}
	tailDone chan struct{}

	mu       sync.Mutex
	promoted bool
	dur      *pphcr.Durability // the post-promotion WAL
}

// mountLeaderReplication exposes the leader's shipping source and the
// rebalance entry point.
func mountLeaderReplication(mux *http.ServeMux, sys *pphcr.System, dur *pphcr.Durability, dataDir string) {
	replicate.NewSource(dataDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	mux.HandleFunc("POST /replication/rebalance", func(w http.ResponseWriter, r *http.Request) {
		var req replicate.RebalanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"bad json: %v"}`, err), http.StatusBadRequest)
			return
		}
		start := time.Now()
		applied, err := replicate.Rebalance(r.Context(), sys, req.Source, "/replication", req.Users)
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
	})
}

// startFollower boots the tail loop and wires the follower's role,
// readiness and lag into the API server.
func (rt *replicationRuntime) startFollower(leaderURL string) error {
	standby, err := replicate.NewStandby(rt.sys, rt.dataDir, leaderURL, "/replication")
	if err != nil {
		return err
	}
	rt.standby = standby
	rt.tailStop = make(chan struct{})
	rt.tailDone = make(chan struct{})
	go func() {
		defer close(rt.tailDone)
		standby.Run(rt.tailStop)
	}()
	rt.api.SetRole(httpapi.RoleFollower)
	rt.api.SetReplicationLag(standby.LagSeconds)
	// A wedged tail (corrupt ship, apply failure) ejects the node: it can
	// no longer converge on the leader's state.
	rt.api.SetReadinessCheck(standby.Err)
	return nil
}

// mountFollowerReplication serves the ack-barrier wait and status
// (the standby's own handlers) plus the promote endpoint.
func (rt *replicationRuntime) mountFollowerReplication(mux *http.ServeMux) {
	rt.standby.Mount(mux, "/replication")
	mux.HandleFunc("POST /replication/promote", rt.handlePromote)
}

// handlePromote turns this follower into the partition leader in place:
// stop tailing, replay any shipped-but-unapplied WAL suffix, open a
// live WAL over the local directory, attach the mutation hook, open the
// write gate. Idempotent — a repeated promote (a router retrying a lost
// response) answers 200.
func (rt *replicationRuntime) handlePromote(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.promoted {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"promoted":true,"applied_seq":%d,"already":true}`+"\n", rt.dur.WALSeq())
		return
	}
	start := time.Now()
	rt.api.SetRole(httpapi.RolePromoting)
	close(rt.tailStop)
	<-rt.tailDone

	dur, replayed, err := rt.standby.Promote(pphcr.DurabilityOptions{
		Sync: rt.sync, RetainSegments: true,
	})
	if err != nil {
		// Promotion failed; resume tailing so a later retry can succeed.
		rt.api.SetRole(httpapi.RoleFollower)
		rt.tailStop = make(chan struct{})
		rt.tailDone = make(chan struct{})
		go func(stop, done chan struct{}) {
			defer close(done)
			rt.standby.Run(stop)
		}(rt.tailStop, rt.tailDone)
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	rt.promoted = true
	rt.dur = dur

	// The node is a leader now: stamp acks, report durability, run the
	// leader's background services against the shared stop channel.
	rt.api.SetWALSeq(dur.WALSeq)
	rt.api.SetDurabilityStats(func() interface{} { return dur.Stats() })
	rt.api.SetReadinessCheck(dur.Healthy)
	rt.api.SetDegradedCheck(dur.Degraded)
	rt.api.SetReplicationLag(func() float64 { return 0 })
	if ck, err := service.NewCheckpointer(dur); err == nil {
		ck.Interval = rt.ckInterval
		go ck.Run(rt.stop)
	} else {
		slog.Error("post-promotion checkpointer", "err", err)
	}
	if c, err := service.NewCompactor(rt.sys); err == nil {
		go c.Run(rt.stop)
	} else {
		slog.Error("post-promotion compactor", "err", err)
	}
	if rt.fbEvery > 0 {
		if fbc, err := service.NewFeedbackCompactor(rt.sys); err == nil {
			fbc.EventsPerCompaction = rt.fbEvery
			fbc.Horizon = rt.fbHorizon
			fbc.Now = rt.clock
			go fbc.Run(rt.stop)
		} else {
			slog.Error("post-promotion feedback compactor", "err", err)
		}
	}
	rt.api.SetRole(httpapi.RoleLeader)
	ms := time.Since(start).Milliseconds()
	slog.Warn("promoted to leader",
		"replayed", replayed, "applied_seq", dur.WALSeq(), "promote_ms", ms)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"promoted":true,"replayed":%d,"applied_seq":%d,"promote_ms":%d}`+"\n",
		replayed, dur.WALSeq(), ms)
}

// shutdownFollower closes the tail loop on process exit (promotion
// already closed it).
func (rt *replicationRuntime) shutdownFollower() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.promoted || rt.tailStop == nil {
		return
	}
	select {
	case <-rt.tailStop:
	default:
		close(rt.tailStop)
	}
	<-rt.tailDone
}

// promotedDurability returns the post-promotion WAL, nil while still a
// follower; shutdown checkpoints it like any leader's.
func (rt *replicationRuntime) promotedDurability() *pphcr.Durability {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dur
}

// ownedPersonas filters personas to the ones this node owns under the
// topology; with no topology every persona is local.
func ownedPersonas(personas []*synth.Persona, ring *replicate.Ring, nodeID string) []*synth.Persona {
	if ring == nil || nodeID == "" {
		return personas
	}
	owned := personas[:0:0]
	for _, p := range personas {
		if ring.Owner(p.Profile.UserID) == nodeID {
			owned = append(owned, p)
		}
	}
	return owned
}
