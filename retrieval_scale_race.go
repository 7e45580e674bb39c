//go:build race

package pphcr

import "time"

// Race-build scale knobs for the retrieval tests: 20k items keep the
// HNSW build inside CI's race-test budget. The race runtime taxes the
// pointer-chasing graph search far more than the sequential postings
// accumulation: measured 66-72 ms (exact) and 352-371 ms (ANN) per sweep
// at PR 18, bounded by the rule in retrieval_scale_norace.go.
const (
	retrievalCatalogSize     = 20_000
	retrievalExactSweepBound = 580 * time.Millisecond
	retrievalANNSweepBound   = 3 * time.Second
)
