// Package analysis is the repo's static-analysis framework: a minimal,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis driver shape (Analyzer, Pass, Diagnostic) plus a package
// loader built on `go list -export` and the standard library's
// go/types gc importer.
//
// The framework exists to make the repo's invariants — lock ordering,
// apply+emit-under-shard-lock, atomic access discipline, pool object
// lifecycles, no-copy cacheline structs, an input-only
// content.Item.Categories — compiler-enforced instead of
// prose-enforced: the six analyzers under internal/analysis/* encode
// them, cmd/pphcr-vet composes them into a multichecker, and CI runs the
// suite as a hard gate. See
// docs/analysis.md for the invariant catalogue and the
// `//pphcr:allow` suppression syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check. Run receives a fully
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //pphcr:allow suppression comments. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description printed by pphcr-vet -help
	// and quoted in docs/analysis.md.
	Doc string
	// Run executes the check on one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
