// Package suite assembles the pphcr-vet analyzer set. cmd/pphcr-vet
// and the repo-wide regression test share this one list so CI and the
// tests can never drift apart.
package suite

import (
	"pphcr/internal/analysis"
	"pphcr/internal/analysis/atomicfield"
	"pphcr/internal/analysis/itemcategories"
	"pphcr/internal/analysis/lockorder"
	"pphcr/internal/analysis/mutateemit"
	"pphcr/internal/analysis/nopadlockcopy"
	"pphcr/internal/analysis/poolescape"
)

// Analyzers returns the full pphcr-vet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		atomicfield.Analyzer,
		poolescape.Analyzer,
		mutateemit.Analyzer,
		nopadlockcopy.Analyzer,
		itemcategories.Analyzer,
	}
}
