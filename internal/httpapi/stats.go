package httpapi

import (
	"errors"
	"net/http"

	"pphcr"
	"pphcr/internal/ann"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
	"pphcr/internal/plancache"
)

// LatencyView is the JSON shape of one latency distribution. Quantiles
// are histogram estimates (one 1.25× bucket of exact); the max is
// tracked exactly.
type LatencyView struct {
	Count     int64   `json:"count"`
	AvgMicros float64 `json:"avg_micros"`
	MaxMicros float64 `json:"max_micros"`
	P50Micros float64 `json:"p50_micros"`
	P95Micros float64 `json:"p95_micros"`
	P99Micros float64 `json:"p99_micros"`
}

func latencyView(s obs.Summary) LatencyView {
	return LatencyView{
		Count:     s.Count,
		AvgMicros: s.MeanMicros,
		MaxMicros: s.MaxMicros,
		P50Micros: s.P50Micros,
		P95Micros: s.P95Micros,
		P99Micros: s.P99Micros,
	}
}

// EndpointStats is one HTTP endpoint's latency distribution and status
// counts.
type EndpointStats struct {
	LatencyView
	Codes map[string]int64 `json:"codes,omitempty"`
}

// StatsView is the /stats response: plan-cache counters (with hit rate),
// warm-vs-cold plan latency, per-endpoint HTTP latency quantiles, the
// staged pipeline's per-stage distributions, the feedback store's
// preference-index counters, the user-shard lock-contention counters
// (including the commit barrier's contention, quiesce counts and wait
// distributions under locks.barrier), and — when a warmer is attached —
// the precompute scheduler's counters. With a data directory the
// durability block adds the WAL's append/fsync distributions and the
// checkpoint pause timings.
type StatsView struct {
	// Role is the node's replication role; ReplicationLagSeconds is the
	// follower's lag behind the leader's WAL ceiling (0 elsewhere).
	Role                  string          `json:"role"`
	ReplicationLagSeconds float64         `json:"replication_lag_seconds"`
	Cache                 plancache.Stats `json:"cache"`
	Plan                  struct {
		Warm LatencyView `json:"warm"`
		Cold LatencyView `json:"cold"`
	} `json:"plan"`
	// HTTP reports every endpoint's request latency distribution and
	// status-class counts.
	HTTP map[string]EndpointStats `json:"http"`
	// Pipeline reports the staged planning pipeline's per-stage
	// latency/count aggregates (predict, gate, candidates, rank,
	// allocate) plus its task counter.
	Pipeline pipeline.Stats `json:"pipeline"`
	// Retrieval reports the embedding-retrieval path when ANN
	// candidates are enabled: per-query HNSW search latency, candidate
	// counters, index size and the sampled recall@k estimate.
	Retrieval *RetrievalView  `json:"retrieval,omitempty"`
	Feedback  feedback.Stats  `json:"feedback"`
	Locks     pphcr.LockStats `json:"locks"`
	Warmer    interface{}     `json:"warmer,omitempty"`
	// Durability reports the WAL and checkpoint counters (appended,
	// synced, replayed, segments, bytes, last-checkpoint age) when the
	// server runs with a data directory.
	Durability interface{} `json:"durability,omitempty"`
}

// RetrievalView is the /stats shape of the ANN retrieval path.
type RetrievalView struct {
	Pipeline pipeline.RetrievalStats `json:"pipeline"`
	Index    ann.Stats               `json:"index"`
}

// SetWarmerStats attaches a provider of precompute-scheduler counters to
// the /stats endpoint (the server passes the Warmer's Stats method).
func (s *Server) SetWarmerStats(fn func() interface{}) { s.warmerStats = fn }

// SetDurabilityStats attaches a provider of durability counters to the
// /stats endpoint (the server passes the Durability's Stats method).
func (s *Server) SetDurabilityStats(fn func() interface{}) { s.durabilityStats = fn }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	var view StatsView
	view.Role = s.Role()
	view.ReplicationLagSeconds = s.replicationLag()
	view.Cache = s.sys.PlanCache.Stats()
	view.Plan.Warm = latencyView(s.warmLat.Summary())
	view.Plan.Cold = latencyView(s.coldLat.Summary())
	view.HTTP = make(map[string]EndpointStats, len(s.endpoints))
	for _, em := range s.endpoints {
		es := EndpointStats{LatencyView: latencyView(em.hist.Summary())}
		for i := range em.statuses {
			if n := em.statuses[i].Load(); n > 0 {
				if es.Codes == nil {
					es.Codes = make(map[string]int64, 2)
				}
				es.Codes[statusClasses[i]] = n
			}
		}
		view.HTTP[em.name] = es
	}
	view.Pipeline = s.sys.PipelineStats()
	if ps, ix, ok := s.sys.RetrievalStats(); ok {
		view.Retrieval = &RetrievalView{Pipeline: ps, Index: ix}
	}
	view.Feedback = s.sys.Feedback.Stats()
	view.Locks = s.sys.LockStats()
	if s.warmerStats != nil {
		view.Warmer = s.warmerStats()
	}
	if s.durabilityStats != nil {
		view.Durability = s.durabilityStats()
	}
	writeJSON(w, http.StatusOK, view)
}
