package experiments

import (
	"math"
	"testing"
	"time"
)

func TestPrecisionAtK(t *testing.T) {
	rel := map[string]bool{"a": true, "c": true}
	rec := []string{"a", "b", "c", "d"}
	if got := precisionAtK(rec, rel, 2); got != 0.5 {
		t.Fatalf("P@2 = %v", got)
	}
	if got := precisionAtK(rec, rel, 4); got != 0.5 {
		t.Fatalf("P@4 = %v", got)
	}
	// Short lists penalized: only 1 item recommended, k=5.
	if got := precisionAtK([]string{"a"}, rel, 5); got != 0.2 {
		t.Fatalf("P@5 short = %v", got)
	}
	if got := precisionAtK(rec, rel, 0); got != 0 {
		t.Fatalf("P@0 = %v", got)
	}
}

func TestNDCGPerfectOrder(t *testing.T) {
	gains := map[string]float64{"a": 3, "b": 2, "c": 1}
	if got := ndcgAtK([]string{"a", "b", "c"}, gains, 3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect nDCG = %v", got)
	}
	worse := ndcgAtK([]string{"c", "b", "a"}, gains, 3)
	if worse >= 1 || worse <= 0 {
		t.Fatalf("reversed nDCG = %v", worse)
	}
	if got := ndcgAtK([]string{"x", "y"}, gains, 2); got != 0 {
		t.Fatalf("irrelevant nDCG = %v", got)
	}
	if got := ndcgAtK([]string{"a"}, map[string]float64{}, 1); got != 0 {
		t.Fatalf("no-gain nDCG = %v", got)
	}
}

func TestNDCGOrderSensitivity(t *testing.T) {
	gains := map[string]float64{"best": 3, "ok": 1}
	good := ndcgAtK([]string{"best", "ok"}, gains, 2)
	bad := ndcgAtK([]string{"ok", "best"}, gains, 2)
	if good <= bad {
		t.Fatalf("nDCG insensitive to order: %v vs %v", good, bad)
	}
}

func TestMRR(t *testing.T) {
	rel := map[string]bool{"x": true}
	if got := mrr([]string{"a", "x", "b"}, rel); got != 0.5 {
		t.Fatalf("MRR = %v", got)
	}
	if got := mrr([]string{"a", "b"}, rel); got != 0 {
		t.Fatalf("MRR miss = %v", got)
	}
}

func TestListeningStats(t *testing.T) {
	var s listeningStats
	s.add(listeningStats{Listened: 30 * time.Minute, Available: time.Hour, Skips: 2, Switches: 1, Plays: 10})
	s.add(listeningStats{Listened: 30 * time.Minute, Available: time.Hour, Skips: 0, Switches: 1, Plays: 10})
	if got := s.skipRate(); got != 0.1 {
		t.Fatalf("skipRate = %v", got)
	}
	if got := s.listenShare(); got != 0.5 {
		t.Fatalf("listenShare = %v", got)
	}
	if got := s.switchesPerHour(); got != 1 {
		t.Fatalf("switchesPerHour = %v", got)
	}
	var empty listeningStats
	if empty.skipRate() != 0 || empty.listenShare() != 0 || empty.switchesPerHour() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
	if mean(nil) != 0 {
		t.Fatal("empty mean should be zero")
	}
}
