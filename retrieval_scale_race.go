//go:build race

package pphcr

// Race-build scale knobs for the retrieval tests: 20k items keep the
// HNSW build inside CI's race-test budget. The race runtime taxes the
// pointer-chasing graph search far more than the sequential postings
// walk, and at 20k items the walk is the faster of the two to begin
// with (docs/retrieval.md): measured 0.31x (exact 108 ms, ANN 343 ms,
// two runs), floored with the same 1.5x margin as the uninstrumented
// build (retrieval_scale_norace.go).
const (
	retrievalCatalogSize  = 20_000
	retrievalSpeedupFloor = 0.2
)
