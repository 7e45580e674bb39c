package httpapi

import (
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
)

// errNotRecovered is the /readyz reason while the boot gate is closed.
var errNotRecovered = errors.New("recovery not finished")

// endpointMetrics is one logical endpoint's latency histogram and
// status-class counters. Endpoints are keyed by name, not pattern, so
// aliases (/stats and /api/stats) share one series.
type endpointMetrics struct {
	name     string
	hist     obs.Histogram
	statuses [5]atomic.Int64 // index = status/100 - 1
}

var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// endpoint returns the metrics of the endpoint called name, registering
// its latency histogram and status counters on first use.
func (s *Server) endpoint(name string) *endpointMetrics {
	if em := s.endpointByName[name]; em != nil {
		return em
	}
	em := &endpointMetrics{name: name}
	s.endpointByName[name] = em
	s.endpoints = append(s.endpoints, em)
	s.registry.RegisterHistogram("pphcr_http_request_duration_seconds",
		"HTTP request latency by endpoint.",
		map[string]string{"endpoint": name}, &em.hist)
	for i, class := range statusClasses {
		ctr := &em.statuses[i]
		s.registry.RegisterCounter("pphcr_http_requests_total",
			"HTTP requests by endpoint and status class.",
			map[string]string{"endpoint": name, "code": class},
			func() float64 { return float64(ctr.Load()) })
	}
	return em
}

// registerSystemMetrics exports the system-level families that live
// behind the Server: pipeline stages, plan serve paths, commit barrier,
// plan cache, feedback store and user-shard locks. WAL and checkpoint
// families belong to the Durability owner, which registers them through
// Registry().
func (s *Server) registerSystemMetrics() {
	pipe := s.sys.Pipeline()
	for i := 0; i < pipeline.NumStages; i++ {
		s.registry.RegisterHistogram("pphcr_pipeline_stage_duration_seconds",
			"Planning pipeline stage latency.",
			map[string]string{"stage": pipeline.StageNames[i]}, pipe.StageHistogram(i))
	}
	s.registry.RegisterHistogram("pphcr_plan_serve_duration_seconds",
		"Plan endpoint serve latency by source.",
		map[string]string{"source": "warm"}, &s.warmLat)
	s.registry.RegisterHistogram("pphcr_plan_serve_duration_seconds", "",
		map[string]string{"source": "cold"}, &s.coldLat)
	s.registry.RegisterHistogram("pphcr_barrier_acquire_wait_seconds",
		"Commit-barrier stripe acquire wait (contended acquisitions only).",
		nil, s.sys.BarrierAcquireHistogram())
	s.registry.RegisterHistogram("pphcr_barrier_quiesce_seconds",
		"Commit-barrier quiesce entry time (writer drain before checkpoint).",
		nil, s.sys.BarrierQuiesceHistogram())

	cache := s.sys.PlanCache
	s.registry.RegisterCounter("pphcr_plancache_hits_total", "Plan cache hits.",
		nil, func() float64 { return float64(cache.Stats().Hits) })
	s.registry.RegisterCounter("pphcr_plancache_misses_total", "Plan cache misses.",
		nil, func() float64 { return float64(cache.Stats().Misses) })
	s.registry.RegisterCounter("pphcr_plancache_stale_total", "Plan cache stale lookups.",
		nil, func() float64 { return float64(cache.Stats().Stale) })
	s.registry.RegisterGauge("pphcr_plancache_entries", "Live plan cache entries.",
		nil, func() float64 { return float64(cache.Stats().Entries) })
	s.registry.RegisterCounter("pphcr_plancache_epoch_invalidations_total",
		"Whole-cache epoch invalidations (mass stale events, e.g. new content).",
		nil, func() float64 { return float64(cache.Stats().EpochInvalidations) })
	s.registry.RegisterCounter("pphcr_plancache_user_invalidations_total",
		"Per-user plan cache invalidations.",
		nil, func() float64 { return float64(cache.Stats().UserInvalidations) })
	s.registry.RegisterCounter("pphcr_plancache_rewarms_total",
		"Completed post-invalidation re-warms (warm set rebuilt to pre-bump size).",
		nil, func() float64 { return float64(cache.Stats().Rewarms) })
	s.registry.RegisterGauge("pphcr_plancache_rewarm_pending",
		"1 while an epoch invalidation's re-warm is still in progress.",
		nil, func() float64 {
			if cache.Stats().RewarmPending {
				return 1
			}
			return 0
		})
	s.registry.RegisterGauge("pphcr_plancache_last_rewarm_seconds",
		"Duration of the most recently completed re-warm.",
		nil, func() float64 { return cache.Stats().LastRewarmMillis / 1e3 })

	fb := s.sys.Feedback
	s.registry.RegisterCounter("pphcr_feedback_appends_total", "Feedback events appended.",
		nil, func() float64 { return float64(fb.Stats().Appends) })
	s.registry.RegisterCounter("pphcr_feedback_compactions_total", "Feedback compaction runs.",
		nil, func() float64 { return float64(fb.Stats().Compactions) })

	sys := s.sys
	s.registry.RegisterCounter("pphcr_usershard_lock_ops_total", "User-shard lock acquisitions.",
		nil, func() float64 { return float64(sys.LockStats().Ops) })
	s.registry.RegisterCounter("pphcr_usershard_lock_contended_total", "User-shard lock acquisitions that found the shard held.",
		nil, func() float64 { return float64(sys.LockStats().Contended) })
	s.registry.RegisterCounter("pphcr_barrier_ops_total", "Commit-barrier stripe acquisitions.",
		nil, func() float64 { return float64(sys.LockStats().Barrier.Ops) })
	s.registry.RegisterCounter("pphcr_barrier_contended_total", "Commit-barrier stripe acquisitions that waited.",
		nil, func() float64 { return float64(sys.LockStats().Barrier.Contended) })
	s.registry.RegisterCounter("pphcr_barrier_quiesces_total", "Commit-barrier full quiesces.",
		nil, func() float64 { return float64(sys.LockStats().Barrier.Quiesces) })
	s.registry.RegisterGauge("pphcr_ready", "1 when the node is ready to serve, else 0.",
		nil, func() float64 {
			if s.readinessErr() == nil {
				return 1
			}
			return 0
		})
	s.registry.RegisterGauge("pphcr_degraded", "1 when the node serves in a degraded mode (e.g. slow fsync), else 0.",
		nil, func() float64 {
			if s.degradedErr() != nil {
				return 1
			}
			return 0
		})
}

// Registry returns the server's metric registry, so the process owner
// can register additional families (the WAL and checkpoint histograms
// live behind Durability, which httpapi never sees directly).
func (s *Server) Registry() *obs.Registry { return s.registry }

// EnableTracing switches on per-request span recording: requests slower
// than threshold are kept (newest first, up to capacity) and served as
// JSON from /debug/traces.
func (s *Server) EnableTracing(capacity int, threshold time.Duration) {
	s.traceRing = obs.NewTraceRing(capacity, threshold)
}

// startTrace begins a span recorder for one request when tracing is on
// (nil otherwise — every recording call no-ops on nil).
func (s *Server) startTrace(op, user string) *obs.Trace {
	if s.traceRing == nil {
		return nil
	}
	return obs.NewTrace(op, user)
}

// SetReady flips the boot gate of the readiness probe: the server
// process marks itself unready while loading state (recovery, preload,
// warmup) and ready once it can serve plans.
func (s *Server) SetReady(v bool) { s.notReady.Store(!v) }

// SetReadinessCheck attaches a liveness-of-dependencies probe (the
// server passes the durability layer's Healthy): a non-nil error turns
// /readyz into a 503 so a load balancer ejects the node.
func (s *Server) SetReadinessCheck(fn func() error) { s.readyCheck.Store(fn) }

// readinessErr reports why the node is not ready, nil when it is.
func (s *Server) readinessErr() error {
	if s.notReady.Load() {
		return errNotRecovered
	}
	return callCheck(&s.readyCheck)
}

// SetDegradedCheck attaches a partial-degradation probe (the server
// passes the durability layer's Degraded). Unlike the readiness check a
// non-nil error does NOT turn /readyz into a 503: the node keeps
// serving, but the response body carries degraded=true with the reason
// and pphcr_degraded flips to 1 — a load balancer keeps routing while a
// scenario run (or an operator) sees the disk is limping.
func (s *Server) SetDegradedCheck(fn func() error) { s.degradedCheck.Store(fn) }

// degradedErr reports why the node is degraded, nil when it is not.
func (s *Server) degradedErr() error { return callCheck(&s.degradedCheck) }

// callCheck runs the func() error held in v, nil when none is set.
func callCheck(v *atomic.Value) error {
	if fn, _ := v.Load().(func() error); fn != nil {
		return fn()
	}
	return nil
}

// readyView is the /readyz body. Degraded is only ever true on a 200:
// a dead node answers 503 (or nothing), a degraded one answers 200
// with the flag set — the two states are distinguishable by design.
type readyView struct {
	Ready    bool   `json:"ready"`
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Role is the node's replication role (leader / follower /
	// promoting) — the router's probe and operators read it here.
	Role string `json:"role"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	role := s.Role()
	if err := s.readinessErr(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, readyView{Ready: false, Reason: err.Error(), Role: role})
		return
	}
	if err := s.degradedErr(); err != nil {
		writeJSON(w, http.StatusOK, readyView{Ready: true, Degraded: true, Reason: err.Error(), Role: role})
		return
	}
	writeJSON(w, http.StatusOK, readyView{Ready: true, Role: role})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.registry.WritePrometheus(w); err != nil {
		// Headers already sent; the scrape will see a truncated body.
		_ = err
	}
}

// tracesView is the /debug/traces body.
type tracesView struct {
	Enabled         bool            `json:"enabled"`
	ThresholdMicros float64         `json:"threshold_micros,omitempty"`
	Traces          []obs.TraceView `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traceRing == nil {
		writeJSON(w, http.StatusOK, tracesView{Enabled: false, Traces: []obs.TraceView{}})
		return
	}
	writeJSON(w, http.StatusOK, tracesView{
		Enabled:         true,
		ThresholdMicros: float64(s.traceRing.Threshold().Microseconds()),
		Traces:          s.traceRing.Snapshot(),
	})
}
