package pipeline

import (
	"sync/atomic"

	"pphcr/internal/obs"
)

// Stage indices for the metric aggregates.
const (
	StagePredict = iota
	StageGate
	StageCandidates
	StageRank
	StageAllocate
	numStages
)

// NumStages is the stage count, exported for metric registration loops.
const NumStages = numStages

// StageNames maps stage indices to the label values used on /stats and
// /metrics.
var StageNames = [NumStages]string{"predict", "gate", "candidates", "rank", "allocate"}

// stageSpans are the span names a traced task records its stages under.
var stageSpans = [numStages]string{"stage:predict", "stage:gate", "stage:candidates", "stage:rank", "stage:allocate"}

// metrics holds one lock-free histogram per stage; the request path
// pays a bucket search plus three atomic adds per observation. The ANN
// retrieval aggregates stay zero unless the embedding Candidates stage
// is active.
type metrics struct {
	hist  [numStages]obs.Histogram
	tasks atomic.Int64

	annSearch    obs.Histogram // per-query HNSW search latency
	annSearches  atomic.Int64
	annRetrieved atomic.Int64 // candidates returned by the index
	annResolved  atomic.Int64 // candidates surviving resolve + window cut
}

// StageStats is one stage's latency aggregate; Count is the number of
// tasks that reached the stage. Quantiles are histogram estimates,
// within one 1.25× bucket of exact.
type StageStats struct {
	Count     int64   `json:"count"`
	AvgMicros float64 `json:"avg_micros"`
	MaxMicros float64 `json:"max_micros"`
	P50Micros float64 `json:"p50_micros"`
	P95Micros float64 `json:"p95_micros"`
	P99Micros float64 `json:"p99_micros"`
}

func stageView(h *obs.Histogram) StageStats {
	s := h.Summary()
	return StageStats{
		Count:     s.Count,
		AvgMicros: s.MeanMicros,
		MaxMicros: s.MaxMicros,
		P50Micros: s.P50Micros,
		P95Micros: s.P95Micros,
		P99Micros: s.P99Micros,
	}
}

// Stats snapshots the per-stage pipeline metrics.
type Stats struct {
	Predict    StageStats `json:"predict"`
	Gate       StageStats `json:"gate"`
	Candidates StageStats `json:"candidates"`
	Rank       StageStats `json:"rank"`
	Allocate   StageStats `json:"allocate"`
	// Tasks counts Run invocations.
	Tasks int64 `json:"tasks"`
}

// Stats snapshots the pipeline's stage metrics (reported on /stats and
// by the load generator).
func (p *Pipeline) Stats() Stats {
	return Stats{
		Predict:    stageView(&p.m.hist[StagePredict]),
		Gate:       stageView(&p.m.hist[StageGate]),
		Candidates: stageView(&p.m.hist[StageCandidates]),
		Rank:       stageView(&p.m.hist[StageRank]),
		Allocate:   stageView(&p.m.hist[StageAllocate]),
		Tasks:      p.m.tasks.Load(),
	}
}

// StageHistogram returns the histogram backing stage i, so the owner
// can register it on a metrics endpoint.
func (p *Pipeline) StageHistogram(i int) *obs.Histogram { return &p.m.hist[i] }

// RetrievalStats aggregates the embedding-retrieval path: per-query
// HNSW search latency and the retrieved/resolved candidate counters.
// All-zero when the pipeline runs the exact Candidates stage.
type RetrievalStats struct {
	Search StageStats `json:"search"`
	// Searches counts index queries; Retrieved and Resolved sum the
	// candidates the index returned and those surviving ID resolution
	// plus the publish-window cut.
	Searches  int64 `json:"searches"`
	Retrieved int64 `json:"retrieved"`
	Resolved  int64 `json:"resolved"`
}

// Retrieval snapshots the ANN retrieval aggregates.
func (p *Pipeline) Retrieval() RetrievalStats {
	return RetrievalStats{
		Search:    stageView(&p.m.annSearch),
		Searches:  p.m.annSearches.Load(),
		Retrieved: p.m.annRetrieved.Load(),
		Resolved:  p.m.annResolved.Load(),
	}
}

// ANNSearchHistogram exposes the per-query search histogram for metric
// registration.
func (p *Pipeline) ANNSearchHistogram() *obs.Histogram { return &p.m.annSearch }
