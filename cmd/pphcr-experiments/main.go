// Command pphcr-experiments regenerates the paper's figures and runs the
// quantitative evaluations (see docs/experiments.md). It exits 1 when an
// experiment fails or one of its shape checks reads false.
//
// Usage:
//
//	pphcr-experiments               # run everything
//	pphcr-experiments -run F4       # one experiment
//	pphcr-experiments -quick        # reduced workload sizes
//	pphcr-experiments -list         # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"pphcr/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment ID to run (or 'all')")
		quick = flag.Bool("quick", false, "shrink workloads for a fast pass")
		seed  = flag.Int64("seed", 2017, "random seed")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}
	cfg := experiments.Config{Out: os.Stdout, Seed: *seed, Quick: *quick}
	var err error
	if *run == "all" {
		err = experiments.RunAll(cfg)
	} else {
		err = experiments.Run(*run, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
