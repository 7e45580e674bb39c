// Command bench is the repository's benchmark: it boots the real cluster
// — leader with a synchronous WAL, warm standby tailing it, router in
// front — in one process on loopback, drives one named workload through
// the router over net/http, checks every response, and prints each
// metric by name and unit. README.md has the layer list, the metric
// tables and the reasons behind the workloads.
//
//	bash bench/run.sh --workload warm_plan --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload acked_write --trace 1 --trace-out spans.json
//	bash bench/run.sh --compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: warm_plan, cold_plan, acked_write or skip_replan")
		seed     = fs.Int64("seed", 1, "seed of the world, the catalog and every client's request sequence")
		seconds  = fs.Float64("seconds", 24, "how long to measure, warm-up and set-up excluded")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and the per-layer metrics")
		out      = fs.String("out", "", "append the full result (environment, per-window values) to this file, one JSON object per line")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the spans to this file as JSON")
		tmp      = fs.String("tmp", ".bench_build", "directory the run's data directories are created in (and removed from)")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, _ := findWorkload(*workload) // run rejects an unknown name
	res, err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: *traceOut, tmp: *tmp, log: stdout,
		sc: fullScale, clients: defaultClients(), coldCalls: 30, setups: 3, window: spec.Window, warmup: time.Second,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printMetrics(stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintf(stdout, "FAILED: %d of %d operations failed; first: %s\n", res.Failed, res.Attempted, res.FirstFailure)
	}
	fmt.Fprintln(stdout, res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "error_rate %d/%d\n", res.Failed, res.Attempted)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
