// Command pphcr-benchjson converts `go test -bench` output on stdin into
// a compact JSON document on stdout, so CI can archive a machine-readable
// performance record per PR (BENCH_pr2.json and successors) and the
// repo's perf trajectory accumulates run over run.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | pphcr-benchjson > BENCH.json
//	pphcr-benchjson -baseline BENCH_pr4.json -gate < bench.out > BENCH_pr5.json
//
// Alongside the full benchmark list, the document pulls out the
// headline numbers this repo tracks: cold vs warm plan latency and the
// replay vs incremental preference read.
//
// With -baseline and -gate, the tool compares this run's highlights
// against the baseline document and exits 1 when any tier-1 highlight
// regresses more than -gate-factor (default 1.5×) — ns metrics by
// growing, speedup factors by shrinking — so a concurrency regression
// like PR 4's global durability lock can never land silently again.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Pkg      string  `json:"pkg"`
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"b_per_op,omitempty"`
	AllocsOp float64 `json:"allocs_per_op,omitempty"`
	// P99NsPerOp carries the custom p99-ns/op metric the tail-latency
	// benchmarks report via b.ReportMetric.
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	// RecallAtK carries the custom recall-at-k metric the ANN retrieval
	// benchmark reports via b.ReportMetric.
	RecallAtK float64 `json:"recall_at_k,omitempty"`
}

// Output is the JSON document shape.
type Output struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	// Highlights maps headline metric names to ns/op.
	Highlights map[string]float64 `json:"highlights"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)
	bytesPerOp = regexp.MustCompile(`([\d.]+) B/op`)
	allocsOp   = regexp.MustCompile(`([\d.]+) allocs/op`)
	p99Metric  = regexp.MustCompile(`([\d.]+) p99-ns/op`)
	recMetric  = regexp.MustCompile(`([\d.]+) recall-at-k`)
)

// highlightNames maps benchmark base names to the headline keys the
// perf trajectory tracks.
var highlightNames = map[string]string{
	"BenchmarkPlanTripCold":             "plan_cold_ns",
	"BenchmarkPlanTripWarm":             "plan_warm_ns",
	"BenchmarkPreferencesReplay":        "preferences_replay_ns",
	"BenchmarkPreferencesIncremental":   "preferences_incremental_ns",
	"BenchmarkConcurrentUserState":      "concurrent_user_state_ns",
	"BenchmarkPlanCacheConcurrent":      "plan_cache_concurrent_ns",
	"BenchmarkAppendIncremental":        "feedback_append_ns",
	"BenchmarkPlanBatch/sequential":     "warm_sequential_ns",
	"BenchmarkPlanBatch/batch":          "warm_batch_ns",
	"BenchmarkSkipReplacement/fullrank": "skip_fullrank_ns",
	"BenchmarkSkipReplacement/topk":     "skip_topk_ns",
	"BenchmarkWALAppend":                "wal_append_ns",
	"BenchmarkRecoveryReplay":           "recovery_replay_ns",
	"BenchmarkCandidateExact":           "candidate_exact_ns",
	"BenchmarkCandidateANN":             "candidate_ann_ns",
}

// p99HighlightNames maps benchmark base names to the tail-latency
// headline keys, filled from the p99-ns/op custom metric.
var p99HighlightNames = map[string]string{
	"BenchmarkPlanTripCold": "plan_p99_ns",
	"BenchmarkWALAppend":    "wal_append_p99_ns",
}

// gatedHighlights are the tier-1 highlights the regression gate
// watches, with the direction a regression moves: ns-per-op metrics
// regress by growing, speedup/throughput metrics by shrinking.
// preferences_replay_ns is deliberately absent — it measures the
// intentionally slow replay oracle. So are warm_batch_speedup_x and
// ann_speedup_x (still reported): each divides the cost of the path
// that is NOT the optimization by the cost of the one that is, so a PR
// that makes the plain path cheaper — PR 15 halved a sequential warm
// plan and took the exact candidate sweep from 31 ms to 1.4 ms — reads
// as a regression of the ratio. Both sides of both ratios are gated as
// costs instead.
var gatedHighlights = map[string]bool{ // name -> lowerIsBetter
	"concurrent_user_state_ns": true,
	"plan_cache_concurrent_ns": true,
	"feedback_append_ns":       true,
	"plan_cold_ns":             true,
	"plan_warm_ns":             true,
	"plan_p99_ns":              true,
	"wal_append_ns":            true,
	"wal_append_p99_ns":        true,
	"skip_topk_ns":             true,
	"warm_batch_ns":            true,
	"plan_speedup_x":           false,
	"skip_topk_speedup_x":      false,
	"preferences_speedup_x":    false,
	"recovery_events_per_sec":  false,
	"warm_sequential_ns":       true,
	"candidate_exact_ns":       true,
	"candidate_ann_ns":         true,
	"ann_recall_at_k":          false,
	// Scenario-engine tail highlights (ISSUE 9), merged via -scenario:
	// the end-to-end plan p99 under city traffic and the flash-crowd
	// cache re-warm time. Both are wall-clock tails from a live run, so
	// CI gates them with its own (generous) -gate-factor invocation.
	"scenario_plan_p99_ns":    true,
	"flash_crowd_recovery_ms": true,
	// Replication highlights (ISSUE 10), merged from the kill-node
	// report: how long the router took to promote the warm standby after
	// the leader died, and the worst WAL-shipping lag observed during the
	// storm. Wall-clock numbers, gated with a generous factor in CI.
	"failover_ms":        true,
	"replication_lag_ms": true,
}

// gate compares this run's highlights against the baseline document and
// returns one line per tier-1 highlight that regressed beyond factor.
// Highlights missing from either side are skipped (a new benchmark has
// no baseline; a retired one has no current value).
func gate(baselinePath string, cur map[string]float64, factor float64) ([]string, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var base Output
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline: %w", err)
	}
	var failures []string
	names := make([]string, 0, len(gatedHighlights))
	for name := range gatedHighlights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, okB := base.Highlights[name]
		c, okC := cur[name]
		if !okB || !okC || b <= 0 || c <= 0 {
			continue
		}
		if gatedHighlights[name] {
			if c > b*factor {
				failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns (%.2fx worse, gate %.2fx)", name, b, c, c/b, factor))
			}
		} else if c < b/factor {
			failures = append(failures, fmt.Sprintf("%s: %.2f -> %.2f (%.2fx worse, gate %.2fx)", name, b, c, b/c, factor))
		}
	}
	return failures, nil
}

func main() {
	var (
		baseline   = flag.String("baseline", "", "previous BENCH_prN.json to gate this run's highlights against")
		gateOn     = flag.Bool("gate", false, "exit 1 when a tier-1 highlight regresses beyond -gate-factor vs -baseline")
		gateFactor = flag.Float64("gate-factor", 1.5, "regression factor the gate tolerates")
		scenarioIn = flag.String("scenario", "", "pphcr-scenario report JSON whose highlights merge into this document")
	)
	flag.Parse()
	out := Output{Highlights: map[string]float64{}}
	if *scenarioIn != "" {
		raw, err := os.ReadFile(*scenarioIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pphcr-benchjson: reading scenario report: %v\n", err)
			os.Exit(1)
		}
		var rep struct {
			Highlights map[string]float64 `json:"highlights"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "pphcr-benchjson: parsing scenario report: %v\n", err)
			os.Exit(1)
		}
		for k, v := range rep.Highlights {
			out.Highlights[k] = v
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Benchmark{Pkg: pkg, Name: m[1], Iters: iters, NsPerOp: ns}
		if bm := bytesPerOp.FindStringSubmatch(m[4]); bm != nil {
			b.BPerOp, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsOp.FindStringSubmatch(m[4]); am != nil {
			b.AllocsOp, _ = strconv.ParseFloat(am[1], 64)
		}
		if pm := p99Metric.FindStringSubmatch(m[4]); pm != nil {
			b.P99NsPerOp, _ = strconv.ParseFloat(pm[1], 64)
		}
		if rm := recMetric.FindStringSubmatch(m[4]); rm != nil {
			b.RecallAtK, _ = strconv.ParseFloat(rm[1], 64)
		}
		// Keep-last dedupe: a stabilization pass re-running headline
		// benchmarks at a longer benchtime can be concatenated after the
		// 1x sweep and its (better-sampled) numbers win.
		replaced := false
		for i := range out.Benchmarks {
			if out.Benchmarks[i].Pkg == b.Pkg && out.Benchmarks[i].Name == b.Name {
				out.Benchmarks[i] = b
				replaced = true
				break
			}
		}
		if !replaced {
			out.Benchmarks = append(out.Benchmarks, b)
		}
		if key, ok := highlightNames[b.Name]; ok {
			out.Highlights[key] = b.NsPerOp
		}
		if key, ok := p99HighlightNames[b.Name]; ok && b.P99NsPerOp > 0 {
			out.Highlights[key] = b.P99NsPerOp
		}
		if b.Name == "BenchmarkCandidateANN" && b.RecallAtK > 0 {
			out.Highlights["ann_recall_at_k"] = b.RecallAtK
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "pphcr-benchjson: %v\n", err)
		os.Exit(1)
	}
	if replay, ok := out.Highlights["preferences_replay_ns"]; ok {
		if inc, ok := out.Highlights["preferences_incremental_ns"]; ok && inc > 0 {
			out.Highlights["preferences_speedup_x"] = replay / inc
		}
	}
	if cold, ok := out.Highlights["plan_cold_ns"]; ok {
		if warm, ok := out.Highlights["plan_warm_ns"]; ok && warm > 0 {
			out.Highlights["plan_speedup_x"] = cold / warm
		}
	}
	// Batch-pipeline headline: per-plan cost of warming a fleet
	// sequentially vs through one WarmBatch (both sub-benchmarks run the
	// same request list, so the ns/op ratio is the per-plan ratio).
	if seq, ok := out.Highlights["warm_sequential_ns"]; ok {
		if batch, ok := out.Highlights["warm_batch_ns"]; ok && batch > 0 {
			out.Highlights["warm_batch_speedup_x"] = seq / batch
		}
	}
	if full, ok := out.Highlights["skip_fullrank_ns"]; ok {
		if topk, ok := out.Highlights["skip_topk_ns"]; ok && topk > 0 {
			out.Highlights["skip_topk_speedup_x"] = full / topk
		}
	}
	// Durability headline: BenchmarkRecoveryReplay's ns/op is per
	// replayed WAL event, so its inverse is the crash-recovery
	// throughput the ISSUE tracks.
	if replay, ok := out.Highlights["recovery_replay_ns"]; ok && replay > 0 {
		out.Highlights["recovery_events_per_sec"] = 1e9 / replay
	}
	// Retrieval headline (ISSUE 8): how much faster the HNSW Candidates
	// stage answers a full Recommend than the exact window scan, over the
	// same catalog and users.
	if exact, ok := out.Highlights["candidate_exact_ns"]; ok {
		if ann, ok := out.Highlights["candidate_ann_ns"]; ok && ann > 0 {
			out.Highlights["ann_speedup_x"] = exact / ann
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "pphcr-benchjson: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" && *gateOn {
		failures, err := gate(*baseline, out.Highlights, *gateFactor)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pphcr-benchjson: %v\n", err)
			os.Exit(1)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "pphcr-benchjson: %d tier-1 highlight(s) regressed vs %s:\n", len(failures), *baseline)
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pphcr-benchjson: gate passed vs %s\n", *baseline)
	}
}
