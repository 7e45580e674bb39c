package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeScale keeps the package tests cheap: a handful of drivers and a
// small catalog. Component defaults (Standby.Interval and the rest) are
// untouched, as in a reported run.
var smokeScale = scale{Users: 40, Drivers: 8, Catalog: 500, History: 20}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 1, seconds: 0.3, trace: trace, tmp: t.TempDir(), log: io.Discard,
		sc: smokeScale, clients: 2, coldCalls: 5, setups: 1, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny scale and
// checks that every metric BENCHMARK.json names comes out, finite and
// non-negative, with no failed operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := smokeConfig(t, w.Name, trace)
				if trace {
					cfg.seconds = 0.6
					cfg.traceOut = filepath.Join(cfg.tmp, "spans.json")
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("error_rate %d/%d: %s", res.Failed, res.Attempted, res.FirstFailure)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", s.Name)
					case v.Unit != s.Unit:
						t.Errorf("%s has unit %q, want %q", s.Name, v.Unit, s.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", s.Name, v.Value)
					case v.Value < 0 && !strings.HasPrefix(s.Name, "trace."):
						// The two trace.* rows are differences of noisy
						// medians and may dip below zero.
						t.Errorf("%s = %v, want non-negative", s.Name, v.Value)
					case v.Value == 0 && !trace:
						t.Errorf("%s = 0: end-to-end metrics are never zero", s.Name)
					}
				}
				var line struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(res.line()), &line); err != nil || !line.Correct || line.Attempted < 1 {
					t.Errorf("result line %q: %v", res.line(), err)
				}
				if trace {
					data, err := os.ReadFile(cfg.traceOut)
					var spans []span
					if err == nil {
						err = json.Unmarshal(data, &spans)
					}
					if err != nil || len(spans) == 0 {
						t.Errorf("trace-out: %d spans, %v", len(spans), err)
					}
				}
			})
		}
	}
}

// TestSequenceHash pins the per-client request sequence of seed 1: it is
// a pure function of the seed, whatever the run around it does.
func TestSequenceHash(t *testing.T) {
	want := map[string]string{
		wlWarmPlan:   "ac38941752e51569",
		wlColdPlan:   "4dbf62f7c780cc2b",
		wlAckedWrite: "9a1ba88a3cb37518",
		wlSkipReplan: "a96e6dbd848537d8",
	}
	hashes := func() map[string]string {
		c, err := setUp(1, smokeScale, setupOptions{tmp: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		out := map[string]string{}
		for _, w := range workloads {
			out[w.Name] = fmt.Sprintf("%016x", sequenceHash(w.Name, 1, 2, c))
		}
		return out
	}
	got := hashes()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sequence hashes at seed 1:\n got %v\nwant %v", got, want)
	}
	if again := hashes(); !reflect.DeepEqual(again, got) {
		t.Errorf("two set-ups from one seed disagree: %v vs %v", got, again)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go and
// workload.go saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: %+v, want %+v", i, got, w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, rows []row, specs []metricSpec, bounded bool) {
		if len(rows) != len(specs) {
			t.Fatalf("%s: %d rows, want %d", kind, len(rows), len(specs))
		}
		for i, s := range specs {
			r := rows[i]
			if r.Name != s.Name || r.Unit != s.Unit || r.Better != s.Better {
				t.Errorf("%s row %d: %+v, want %+v", kind, i, r, s)
			}
			switch {
			case bounded && (r.Bound == nil || *r.Bound != s.Bound):
				t.Errorf("%s: bound %v, want %v", s.Name, r.Bound, s.Bound)
			case !bounded && r.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", s.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

// TestBestWindow: the reported p90 and throughput are the best any window
// reached, and a window nothing completed in has neither.
func TestBestWindow(t *testing.T) {
	p90, rate := bestWindow([]windowStats{
		{Ops: 90, OpP90: 0.30, OpsPerSec: 90},
		{Ops: 0},
		{Ops: 120, OpP90: 0.25, OpsPerSec: 120},
		{Ops: 110, OpP90: 0.20, OpsPerSec: 110},
	})
	if p90 != 0.20 || rate != 120 {
		t.Errorf("best window: p90 %v, rate %v; want 0.20 and 120", p90, rate)
	}
}

// TestCompare checks the verdicts and the exit code of -compare.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p90s ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range p90s {
			res := &result{Workload: wlWarmPlan, Correct: true, Attempted: 1, Metrics: collect(endToEnd, map[string]float64{
				"setup_s": 2, "op_p90_ms": v, "ops_per_s": 1000, "live_heap_mb": 40,
			})}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 0.20, 0.21, 0.19)
	same := write("b.jsonl", 0.21, 0.22, 0.20)
	slow := write("c.jsonl", 0.30, 0.31, 0.29)
	var out bytes.Buffer
	if code := compareFiles(base, same, &out, io.Discard); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("50%% slower p90: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(slow, base, &out, io.Discard); code != 0 {
		t.Errorf("an improvement is inside every bound: exit %d\n%s", code, out.String())
	}
}
