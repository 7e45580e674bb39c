//go:build !race

package pphcr

import "time"

// Retrieval-benchmark scale knobs (see retrieval_test.go). The full
// 100k-item catalog applies in normal builds; the race-instrumented
// build (CI's `go test -race`) scales the catalog down so index
// construction stays tractable.
//
// The bounds are what one sweep of TestANNSpeedupAndRecall — 32
// Recommend(k=10) requests — may cost through each stage. They are
// absolute, so they depend on the machine: the 8x margin is there for
// slower and busier ones, and a bound catches a stage that has lost its
// cut or its index, not a few percent. To re-derive them after a change
// to either stage, run
//
//	go test -count=1 -run TestANNSpeedupAndRecall -v .   (and with -race)
//
// three times on an idle machine — the log line prints both sweeps —
// and set each bound to 8x the slowest sweep, rounded up. At PR 18, on
// 2 vCPUs: exact 27-29 ms, ANN 36-39 ms.
const (
	retrievalCatalogSize     = 100_000
	retrievalExactSweepBound = 240 * time.Millisecond
	retrievalANNSweepBound   = 320 * time.Millisecond
)
