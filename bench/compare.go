package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a -out file: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// valuesOf gathers one metric's value from every untraced run of a
// workload in a result set.
func valuesOf(set []result, workload, metric string) []float64 {
	var v []float64
	for _, r := range set {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareFiles reports, per workload and end-to-end metric, both sets'
// medians, how far b is from a, and whether that is inside the metric's
// bound. It returns 1 when b is worse than a by more than a bound, or a
// run in either set was incorrect.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no results", pathA)
	}
	var b []result
	if err == nil {
		b, err = readResults(pathB)
	}
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no results", pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, set := range [][]result{a, b} {
		for _, r := range set {
			if !r.Correct {
				fmt.Fprintf(stdout, "INCORRECT RUN: %s seed %d: %s\n", r.Workload, r.Seed, r.FirstFailure)
				code = 1
			}
		}
	}
	fmt.Fprintf(stdout, "a: %s  (%s, %s, commit %s)\nb: %s  (%s, %s, commit %s)\n",
		pathA, a[0].Env.CPU, a[0].Env.GoVersion, a[0].Env.Commit, pathB, b[0].Env.CPU, b[0].Env.GoVersion, b[0].Env.Commit)
	fmt.Fprintf(stdout, "%-12s %-13s %5s %14s %14s %9s %7s  %s\n", "workload", "metric", "runs", "median a", "median b", "b vs a", "bound", "")
	for _, w := range workloads {
		for _, spec := range endToEnd {
			va, vb := valuesOf(a, w.Name, spec.Name), valuesOf(b, w.Name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			rel := (mb - ma) / ma
			worse := rel
			if spec.Better == "higher" {
				worse = -rel
			}
			verdict := "inside"
			if worse > spec.Bound {
				verdict = "OUTSIDE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-13s %2d/%-2d %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				w.Name, spec.Name, len(va), len(vb), ma, mb, rel*100, spec.Bound*100, verdict)
		}
	}
	return code
}
