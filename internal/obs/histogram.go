// Package obs is the observability spine of the PPHCR server: a
// lock-free log-bucketed latency histogram every subsystem records
// into, a cheap per-request span recorder with a slow-request ring, and
// a dependency-free Prometheus-text-format registry that exports both.
//
// The paper's proactive-personalization claim is a latency claim —
// plans must be ready before the trip starts — and the events that
// break it (a checkpoint quiesce, a group-commit fsync stall) are tail
// phenomena: invisible in a mean, exactly what p99 exists to catch.
// Every aggregate in this package therefore estimates quantiles, not
// just averages, and the recording cost is bounded so the hot path can
// afford it: one bucket search plus three atomic adds, no locks, no
// allocation.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Bucket layout: NumBuckets log-spaced buckets with ratio 1.25 starting
// at MinBucketNs. Bucket i (for i < NumBuckets-1) covers durations up
// to bucketUppers[i] = MinBucketNs * 1.25^i nanoseconds; the last
// bucket is the +Inf overflow. With 100ns * 1.25^62 ≈ 103ms of finite
// range the layout resolves everything from a 148ns cache read to a
// checkpoint pause, and the 1.25 ratio bounds quantile estimation error
// to one bucket: ≤25% relative.
const (
	// NumBuckets is the total bucket count (including the +Inf bucket).
	NumBuckets = 64
	// MinBucketNs is the upper bound of the first bucket in nanoseconds.
	MinBucketNs = 100
	// BucketRatio is the geometric growth factor between bucket bounds.
	BucketRatio = 1.25
)

// bucketUppers[i] is the inclusive upper bound (ns) of bucket i; the
// last entry is math.MaxInt64 (+Inf).
var bucketUppers = func() [NumBuckets]int64 {
	var b [NumBuckets]int64
	f := float64(MinBucketNs)
	for i := 0; i < NumBuckets-1; i++ {
		b[i] = int64(math.Round(f))
		f *= BucketRatio
	}
	b[NumBuckets-1] = math.MaxInt64
	return b
}()

// bucketOf returns the index of the bucket containing ns: the smallest
// i with ns <= bucketUppers[i]. Binary search over 63 finite bounds —
// six predictable compares, no floating point, no allocation.
func bucketOf(ns int64) int {
	lo, hi := 0, NumBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= bucketUppers[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Histogram is a lock-free log-bucketed latency histogram. The zero
// value is ready to use; it must not be copied after first use.
// Observe is safe for any number of concurrent recorders: the cost is
// one bucket search plus three atomic adds (bucket count, sum, and a
// CAS-loop max), which is what lets it sit on the plan serve path and
// inside the WAL append without a lock.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(d.Nanoseconds()) }

// ObserveNs records one duration in nanoseconds. Negative observations
// (clock weirdness) are clamped to zero.
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot captures a point-in-time copy of the histogram. Concurrent
// observations may straddle the capture (a count can land whose sum has
// not), so a snapshot is approximate to within the in-flight
// observations — fine for reporting, which is its only use.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.SumNs = h.sumNs.Load()
	s.MaxNs = h.maxNs.Load()
	return s
}

// Snapshot is an immutable copy of a Histogram's state. Snapshots are
// mergeable: the load tools aggregate per-worker histograms into one
// report, and a fleet could do the same across nodes.
type Snapshot struct {
	Buckets [NumBuckets]int64
	Count   int64
	SumNs   int64
	MaxNs   int64
}

// Merge folds other into s.
func (s *Snapshot) Merge(other Snapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
	s.Count += other.Count
	s.SumNs += other.SumNs
	if other.MaxNs > s.MaxNs {
		s.MaxNs = other.MaxNs
	}
}

// Delta returns the observations s holds beyond prev — the per-phase
// view the scenario engine reports: snapshot a cumulative histogram at
// two phase boundaries and Delta isolates what happened in between.
// prev must be an earlier snapshot of the same histogram. The maximum
// cannot be differenced (it is tracked exactly but cumulatively), so
// the delta's MaxNs is the tightest provable bound: the upper bound of
// the highest non-empty delta bucket, clamped to the cumulative max.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	hiBucket := -1
	for i := range s.Buckets {
		c := s.Buckets[i] - prev.Buckets[i]
		if c < 0 {
			c = 0 // not an earlier snapshot of the same histogram; clamp
		}
		d.Buckets[i] = c
		d.Count += c
		if c > 0 {
			hiBucket = i
		}
	}
	if d.SumNs = s.SumNs - prev.SumNs; d.SumNs < 0 {
		d.SumNs = 0
	}
	if hiBucket >= 0 {
		d.MaxNs = bucketUppers[hiBucket]
		if d.MaxNs > s.MaxNs {
			d.MaxNs = s.MaxNs
		}
	}
	return d
}

// MeanNs returns the mean observation in nanoseconds (0 when empty).
func (s Snapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by
// locating the bucket holding the target rank and interpolating
// linearly inside it. The estimate is within one bucket of the exact
// order statistic, i.e. ≤25% relative error at ratio 1.25; estimates in
// the top bucket (and any estimate above the observed maximum) are
// clamped to the maximum, which is tracked exactly.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = bucketUppers[i-1]
		}
		hi := bucketUppers[i]
		if hi > s.MaxNs {
			// Top bucket, or a max below the bucket bound: the true
			// value cannot exceed the exact tracked maximum.
			hi = s.MaxNs
		}
		if hi < lo {
			return s.MaxNs
		}
		// Linear interpolation by rank position within the bucket.
		frac := float64(rank-cum) / float64(c)
		est := lo + int64(frac*float64(hi-lo))
		if est > s.MaxNs {
			est = s.MaxNs
		}
		return est
	}
	return s.MaxNs
}

// Summary is the JSON quantile view of a snapshot, reported on /stats
// and by the load tools. Values are microseconds to match the repo's
// existing latency reporting.
type Summary struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_micros"`
	P50Micros  float64 `json:"p50_micros"`
	P90Micros  float64 `json:"p90_micros"`
	P95Micros  float64 `json:"p95_micros"`
	P99Micros  float64 `json:"p99_micros"`
	MaxMicros  float64 `json:"max_micros"`
}

// Summary renders the snapshot's headline quantiles.
func (s Snapshot) Summary() Summary {
	return Summary{
		Count:      s.Count,
		MeanMicros: s.MeanNs() / 1e3,
		P50Micros:  float64(s.Quantile(0.50)) / 1e3,
		P90Micros:  float64(s.Quantile(0.90)) / 1e3,
		P95Micros:  float64(s.Quantile(0.95)) / 1e3,
		P99Micros:  float64(s.Quantile(0.99)) / 1e3,
		MaxMicros:  float64(s.MaxNs) / 1e3,
	}
}

// Summary is shorthand for h.Snapshot().Summary().
func (h *Histogram) Summary() Summary { return h.Snapshot().Summary() }
