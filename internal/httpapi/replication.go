package httpapi

// This file is the replication awareness of the server: its role
// (leader / follower / promoting), the WAL-sequence source stamped on
// write acks and the follower lag. The role and the sequence source are
// swappable at runtime because promotion changes both on a live server;
// the write gate and the stamp themselves run in Server.mount.

import "sync/atomic"

// Role values. String literals rather than an import of
// internal/replicate — replicate imports httpapi for HeaderWalSeq, and
// the wire values are part of this package's API surface anyway.
const (
	RoleLeader    = "leader"
	RoleFollower  = "follower"
	RolePromoting = "promoting"
)

// replication is the swappable replication state, embedded in Server.
type replication struct {
	role atomic.Value // string
	// walSeq reports the WAL sequence ceiling stamped on write acks.
	walSeq atomic.Value // func() uint64
	// lag reports the follower's replication lag in seconds (0 when
	// caught up, on a leader, or before SetReplicationLag).
	lag atomic.Value // func() float64
}

// SetRole flips the node's replication role. Safe at runtime: promotion
// moves a live follower through promoting to leader.
func (s *Server) SetRole(role string) { s.repl.role.Store(role) }

// Role returns the current role, RoleLeader when never set.
func (s *Server) Role() string {
	if v, ok := s.repl.role.Load().(string); ok {
		return v
	}
	return RoleLeader
}

// SetWALSeq attaches the WAL sequence source stamped (as HeaderWalSeq)
// on successful write responses. Promotion calls it again with the
// promoted node's new WAL.
func (s *Server) SetWALSeq(fn func() uint64) { s.repl.walSeq.Store(fn) }

// SetReplicationLag attaches the follower's lag source behind the
// pphcr_replication_lag_seconds gauge.
func (s *Server) SetReplicationLag(fn func() float64) { s.repl.lag.Store(fn) }

func (s *Server) replicationLag() float64 {
	if fn, ok := s.repl.lag.Load().(func() float64); ok {
		return fn()
	}
	return 0
}

// registerReplicationMetrics exports pphcr_role (one 0/1 series per
// role, like a Prometheus state set) and the follower lag gauge. Both
// families exist on every node — single-node deployments just always
// show role="leader" 1 and lag 0 — so scrapes and the CI metrics smoke
// see a stable family set.
func (s *Server) registerReplicationMetrics() {
	for _, role := range []string{RoleLeader, RoleFollower, RolePromoting} {
		role := role
		s.registry.RegisterGauge("pphcr_role",
			"1 on the series matching the node's replication role, else 0.",
			map[string]string{"role": role}, func() float64 {
				if s.Role() == role {
					return 1
				}
				return 0
			})
	}
	s.registry.RegisterGauge("pphcr_replication_lag_seconds",
		"Follower replication lag behind the leader's WAL ceiling (0 when caught up or leading).",
		nil, s.replicationLag)
}
