// Command pphcr-vet runs the repo's invariant analyzers (lockorder,
// atomicfield, poolescape, mutateemit, nopadlockcopy, itemcategories — see
// docs/analysis.md) over the given packages and exits non-zero when any
// finding survives the //pphcr:allow suppression layer.
//
// Usage:
//
//	go run ./cmd/pphcr-vet [-json] [packages]
//
// Packages default to ./... . With -json, findings stream to stdout as
// one JSON array of {analyzer, file, line, col, message} objects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pphcr/internal/analysis"
	"pphcr/internal/analysis/suite"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pphcr-vet [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pphcr-vet:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, suite.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pphcr-vet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "pphcr-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "pphcr-vet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
