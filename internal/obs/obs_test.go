package obs

import (
	"bufio"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// quantileOracle returns the exact q-quantile of samples by sorting,
// using the same ceil-rank definition the histogram estimates.
func quantileOracle(samples []int64, q float64) int64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// relErr is the relative error of est against exact.
func relErr(est, exact int64) float64 {
	if exact == 0 {
		return math.Abs(float64(est))
	}
	return math.Abs(float64(est)-float64(exact)) / float64(exact)
}

// TestQuantileVsOracle checks the one-bucket error bound: with ratio
// 1.25 every quantile estimate must land within 25% of the exact sort
// oracle (plus a small epsilon for interpolation rounding).
func TestQuantileVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		// Lognormal centered near 30µs with a heavy tail — the shape of
		// a plan-latency distribution.
		"lognormal": func() int64 {
			return int64(math.Exp(10.3 + 1.2*rng.NormFloat64()))
		},
		// Uniform microsecond-scale.
		"uniform": func() int64 { return 1_000 + rng.Int63n(2_000_000) },
		// Bimodal: fast cache hits plus slow cold paths, the worst case
		// for mean-only reporting.
		"bimodal": func() int64 {
			if rng.Intn(10) < 9 {
				return 150 + rng.Int63n(300)
			}
			return 5_000_000 + rng.Int63n(20_000_000)
		},
	}
	for name, gen := range distributions {
		var h Histogram
		samples := make([]int64, 50_000)
		for i := range samples {
			samples[i] = gen()
			h.ObserveNs(samples[i])
		}
		snap := h.Snapshot()
		if snap.Count != int64(len(samples)) {
			t.Fatalf("%s: count = %d, want %d", name, snap.Count, len(samples))
		}
		for _, q := range []float64{0.50, 0.90, 0.95, 0.99} {
			est := snap.Quantile(q)
			exact := quantileOracle(samples, q)
			if e := relErr(est, exact); e > 0.25+1e-9 {
				t.Errorf("%s: q%.0f estimate %d vs exact %d: rel err %.3f > 0.25",
					name, q*100, est, exact, e)
			}
		}
		var maxS int64
		for _, s := range samples {
			if s > maxS {
				maxS = s
			}
		}
		if snap.MaxNs != maxS {
			t.Errorf("%s: max = %d, want exact %d", name, snap.MaxNs, maxS)
		}
	}
}

// TestQuantileMerge checks that merging per-worker snapshots yields the
// same estimates as one histogram fed every sample.
func TestQuantileMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole Histogram
	parts := make([]Histogram, 4)
	for i := 0; i < 40_000; i++ {
		ns := int64(math.Exp(9.0 + 1.5*rng.NormFloat64()))
		whole.ObserveNs(ns)
		parts[i%len(parts)].ObserveNs(ns)
	}
	var merged Snapshot
	for i := range parts {
		merged.Merge(parts[i].Snapshot())
	}
	want := whole.Snapshot()
	if merged != want {
		t.Fatalf("merged snapshot differs from whole-stream snapshot")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != want.Quantile(q) {
			t.Errorf("q%.0f: merged %d != whole %d", q*100, merged.Quantile(q), want.Quantile(q))
		}
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines
// (meaningful under -race) and checks no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	const workers = 8
	const perWorker = 20_000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.ObserveNs(100 + rng.Int63n(10_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", snap.Count, workers*perWorker)
	}
	var sumFromBuckets int64
	for _, c := range snap.Buckets {
		sumFromBuckets += c
	}
	if sumFromBuckets != snap.Count {
		t.Fatalf("bucket sum %d != count %d", sumFromBuckets, snap.Count)
	}
	if p99 := snap.Quantile(0.99); p99 <= 0 || p99 > snap.MaxNs {
		t.Fatalf("p99 = %d out of range (max %d)", p99, snap.MaxNs)
	}
}

// TestEmptyAndEdgeQuantiles pins down the degenerate cases.
func TestEmptyAndEdgeQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
	h.ObserveNs(-5) // clamped to 0
	h.ObserveNs(0)
	snap := h.Snapshot()
	if snap.Count != 2 || snap.SumNs != 0 {
		t.Errorf("after clamped observes: count=%d sum=%d, want 2, 0", snap.Count, snap.SumNs)
	}
	var big Histogram
	big.ObserveNs(math.MaxInt64 / 2) // lands in the +Inf bucket
	if got := big.Snapshot().Quantile(0.5); got != math.MaxInt64/2 {
		t.Errorf("+Inf bucket quantile = %d, want clamp to max %d", got, int64(math.MaxInt64/2))
	}
}

func TestBucketBounds(t *testing.T) {
	if BucketUpperNs(0) != MinBucketNs {
		t.Fatalf("first bound = %d, want %d", BucketUpperNs(0), MinBucketNs)
	}
	for i := 1; i < NumBuckets-1; i++ {
		if BucketUpperNs(i) <= BucketUpperNs(i-1) {
			t.Fatalf("bounds not strictly increasing at %d", i)
		}
	}
	if BucketUpperNs(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bound must be +Inf sentinel")
	}
	// ~103ms finite range: wide enough for a checkpoint pause.
	if top := BucketUpperNs(NumBuckets - 2); top < 50_000_000 {
		t.Fatalf("finite range tops out at %dns, too narrow", top)
	}
}

// TestPrometheusConformance scrapes a small registry and checks the
// text-format invariants a real Prometheus scraper relies on: HELP/TYPE
// lines per family, cumulative non-decreasing buckets, a +Inf bucket
// equal to _count, and _sum consistent with the recorded data.
func TestPrometheusConformance(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(40 * time.Microsecond)
	reg.RegisterHistogram("pphcr_test_duration_seconds", "Test latency.",
		map[string]string{"stage": "rank"}, &h)
	reg.RegisterCounter("pphcr_test_hits_total", "Test hits.", nil, func() float64 { return 17 })
	reg.RegisterGauge("pphcr_test_ready", "Test readiness.", nil, func() float64 { return 1 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP pphcr_test_duration_seconds Test latency.",
		"# TYPE pphcr_test_duration_seconds histogram",
		"# TYPE pphcr_test_hits_total counter",
		"# TYPE pphcr_test_ready gauge",
		"pphcr_test_hits_total 17",
		"pphcr_test_ready 1",
		`pphcr_test_duration_seconds_count{stage="rank"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing line %q in output", want)
		}
	}

	// Parse the bucket series and verify cumulativity.
	bucketRe := regexp.MustCompile(`^pphcr_test_duration_seconds_bucket\{stage="rank",le="([^"]+)"\} (\d+)$`)
	var lastCum int64 = -1
	var infCum int64 = -1
	var nBuckets int
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		m := bucketRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		nBuckets++
		cum, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if cum < lastCum {
			t.Fatalf("bucket series not cumulative: %d after %d", cum, lastCum)
		}
		lastCum = cum
		if m[1] == "+Inf" {
			infCum = cum
		} else if _, err := strconv.ParseFloat(m[1], 64); err != nil {
			t.Fatalf("non-numeric le %q", m[1])
		}
	}
	if nBuckets != NumBuckets {
		t.Fatalf("emitted %d bucket lines, want %d", nBuckets, NumBuckets)
	}
	if infCum != 3 {
		t.Fatalf("+Inf bucket = %d, want _count 3", infCum)
	}

	// _sum is in seconds.
	sumRe := regexp.MustCompile(`pphcr_test_duration_seconds_sum\{stage="rank"\} ([\d.e+-]+)`)
	m := sumRe.FindStringSubmatch(text)
	if m == nil {
		t.Fatal("missing _sum line")
	}
	sum, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := (2*time.Millisecond + 5*time.Millisecond + 40*time.Microsecond).Seconds()
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("_sum = %v, want %v", sum, wantSum)
	}

	// Each HELP/TYPE pair appears exactly once per family.
	if n := strings.Count(text, "# TYPE pphcr_test_duration_seconds histogram"); n != 1 {
		t.Fatalf("TYPE line appears %d times, want 1", n)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterGauge("pphcr_test_esc", "Escapes.",
		map[string]string{"path": `/api/plan"x\y`}, func() float64 { return 1 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `path="/api/plan\"x\\y"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

// TestTraceNilSafety: every trace method must no-op on nil so
// instrumentation points never branch.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	off := tr.StartSpan()
	tr.EndSpan("x", off)
	tr.AddSpan("y", 0, 1)
	tr.Note("n")
	tr.SetSource("warm")
	ReleaseTrace(tr)
	var ring *TraceRing
	ring.Offer(nil)
	ring.Offer(NewTrace("op", "u")) // nil ring still recycles the trace
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(3, 5*time.Millisecond)

	// Fast trace: below threshold, must not enter the ring.
	fast := NewTrace("plan", "u0")
	ring.Offer(fast)
	if got := ring.Snapshot(); len(got) != 0 {
		t.Fatalf("fast trace captured: %+v", got)
	}

	// Slow traces: backdate Start past the threshold.
	for i := 0; i < 5; i++ {
		tr := NewTrace("plan", "u"+strconv.Itoa(i))
		tr.Start = time.Now().Add(-10 * time.Millisecond)
		off := tr.StartSpan()
		tr.EndSpan("stage:rank", off)
		tr.Note("cache:miss")
		ring.Offer(tr)
	}
	got := ring.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want capacity 3", len(got))
	}
	// Newest first: u4, u3, u2.
	for i, want := range []string{"u4", "u3", "u2"} {
		if got[i].User != want {
			t.Errorf("snapshot[%d].User = %q, want %q", i, got[i].User, want)
		}
	}
	if got[0].TotalMicros < 5_000 {
		t.Errorf("slow trace total %.0fµs below threshold", got[0].TotalMicros)
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Name != "stage:rank" {
		t.Errorf("spans not preserved: %+v", got[0].Spans)
	}
	if len(got[0].Notes) != 1 || got[0].Notes[0] != "cache:miss" {
		t.Errorf("notes not preserved: %+v", got[0].Notes)
	}
}

func TestRequestUserContext(t *testing.T) {
	ctx := WithRequestUser(t.Context())
	if got := RequestUser(ctx); got != "" {
		t.Fatalf("unset user = %q", got)
	}
	NoteRequestUser(ctx, "u17")
	if got := RequestUser(ctx); got != "u17" {
		t.Fatalf("user = %q, want u17", got)
	}
	// Without the slot both calls are safe no-ops.
	NoteRequestUser(t.Context(), "x")
	if got := RequestUser(t.Context()); got != "" {
		t.Fatalf("slot-less context returned %q", got)
	}
}

// TestHistogramObserveZeroAlloc pins the zero-allocation contract of
// the Observe hot path. (A 1x-benchtime run of
// BenchmarkHistogramObserve reads "9 allocs/op" — RunParallel's
// goroutine setup divided by N=1, not Observe; this guard fails the
// suite if Observe itself ever allocates.)
func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	ns := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveNs(ns)
		ns = (ns*1664525 + 1013904223) % 50_000_000
	})
	if allocs != 0 {
		t.Fatalf("ObserveNs allocates %.1f times per call, want 0", allocs)
	}
	var d time.Duration
	allocs = testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d = (d*1664525 + 1013904223) % 50_000_000
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ns := int64(1)
		for pb.Next() {
			h.ObserveNs(ns)
			ns = (ns*1664525 + 1013904223) % 50_000_000
		}
	})
}

// TestSnapshotDelta checks the phase-boundary difference view: counts
// and sums subtract exactly, and the delta's max is the tightest
// provable bound (highest non-empty delta bucket, clamped to the
// cumulative max).
func TestSnapshotDelta(t *testing.T) {
	var h Histogram
	h.ObserveNs(150)
	h.ObserveNs(1000)
	before := h.Snapshot()
	h.ObserveNs(200)
	h.ObserveNs(50_000)
	after := h.Snapshot()

	d := after.Delta(before)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.SumNs != 50_200 {
		t.Fatalf("delta sum = %d, want 50200", d.SumNs)
	}
	if d.MaxNs < 50_000 || d.MaxNs > after.MaxNs {
		t.Fatalf("delta max = %d, want in [50000, %d]", d.MaxNs, after.MaxNs)
	}
	if q := d.Quantile(0.99); q < 40_000 || q > d.MaxNs {
		t.Fatalf("delta p99 = %d, not in the top bucket", q)
	}
	// Delta against an equal snapshot is empty.
	z := after.Delta(after)
	if z.Count != 0 || z.SumNs != 0 || z.MaxNs != 0 {
		t.Fatalf("self-delta not empty: %+v", z)
	}
}
