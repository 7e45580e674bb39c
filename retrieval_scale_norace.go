//go:build !race

package pphcr

// Retrieval-benchmark scale knobs (see retrieval_test.go). The full
// 100k-item catalog applies in normal builds; the race-instrumented
// build (CI's `go test -race`) scales the catalog down so index
// construction stays tractable.
//
// The floor is a ratio of two sweeps, so it moves when either stage
// does. It was 10 while the exact stage re-featurized the window per
// request (17.6x measured, PR 8). Since PR 15 the exact stage reads
// catalog-resident features and skips, on a cosine-only bound, every
// item that cannot enter the top k: its sweep over 100k items fell
// 882 -> 44 ms while the ANN sweep stayed at 34-38 ms (1.1-1.4x over
// five runs; docs/retrieval.md has the crossover). The floor is the
// low end of that range with a 1.5x margin: it now says "retrieval
// through the index may not become much slower than the scan it
// replaces", which at this size is all that is left to say.
const (
	retrievalCatalogSize  = 100_000
	retrievalSpeedupFloor = 0.8
)
