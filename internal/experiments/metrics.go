package experiments

import (
	"math"
	"sort"
	"time"
)

// The evaluation metrics Q1–Q3 report: ranking quality (precision@k,
// nDCG@k, MRR) and listening behaviour (skip rate, listening share,
// channel switches — the quantities the paper's prose claims PPHCR
// improves).

// precisionAtK returns |relevant ∩ top-k| / k. When fewer than k items
// were recommended, the denominator is still k (missing slots count as
// misses), matching the standard definition.
func precisionAtK(recommended []string, relevant map[string]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	for i, id := range recommended {
		if i >= k {
			break
		}
		if relevant[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// ndcgAtK returns the normalized discounted cumulative gain at k for
// graded relevance gains (0 when no positive gains exist).
func ndcgAtK(recommended []string, gains map[string]float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	dcg := 0.0
	for i, id := range recommended {
		if i >= k {
			break
		}
		if g := gains[id]; g > 0 {
			dcg += (math.Exp2(g) - 1) / math.Log2(float64(i)+2)
		}
	}
	// Ideal ordering.
	ideal := make([]float64, 0, len(gains))
	for _, g := range gains {
		if g > 0 {
			ideal = append(ideal, g)
		}
	}
	if len(ideal) == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := 0.0
	for i, g := range ideal {
		if i >= k {
			break
		}
		idcg += (math.Exp2(g) - 1) / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// mrr returns the reciprocal rank of the first relevant item (0 when
// none is recommended).
func mrr(recommended []string, relevant map[string]bool) float64 {
	for i, id := range recommended {
		if relevant[id] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// listeningStats aggregates one simulated listening session or period.
type listeningStats struct {
	// Listened is the total time actually spent listening.
	Listened time.Duration
	// Available is the total session time.
	Available time.Duration
	// Skips counts skip actions; Switches counts channel changes (the
	// paper's channel-surf events); Plays counts content items started.
	Skips    int
	Switches int
	Plays    int
}

// add merges another stats record.
func (s *listeningStats) add(o listeningStats) {
	s.Listened += o.Listened
	s.Available += o.Available
	s.Skips += o.Skips
	s.Switches += o.Switches
	s.Plays += o.Plays
}

// skipRate returns skips per played item (0 when nothing played).
func (s listeningStats) skipRate() float64 {
	if s.Plays == 0 {
		return 0
	}
	return float64(s.Skips) / float64(s.Plays)
}

// listenShare returns the listened fraction of available time.
func (s listeningStats) listenShare() float64 {
	if s.Available <= 0 {
		return 0
	}
	return s.Listened.Seconds() / s.Available.Seconds()
}

// switchesPerHour returns channel switches normalized to an hour of
// available time.
func (s listeningStats) switchesPerHour() float64 {
	h := s.Available.Hours()
	if h <= 0 {
		return 0
	}
	return float64(s.Switches) / h
}

// mean returns the arithmetic mean (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
