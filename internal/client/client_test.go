package client

import (
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/feedback"
)

var t0 = time.Date(2016, 11, 15, 8, 0, 0, 0, time.UTC)

func item(id, cat string, dur time.Duration) *content.Item {
	return &content.Item{
		ID: id, Duration: dur,
		Categories: map[string]float64{cat: 1},
	}
}

func TestAffinity(t *testing.T) {
	l := NewListener("u", map[string]float64{"food": 0.7, "culture": 0.3}, 1)
	if got := l.Affinity(item("a", "food", time.Minute)); got <= 0.5 {
		t.Fatalf("matching affinity = %v", got)
	}
	if got := l.Affinity(item("b", "sport", time.Minute)); got != 0 {
		t.Fatalf("orthogonal affinity = %v", got)
	}
	if got := l.Affinity(&content.Item{ID: "c", Duration: time.Minute}); got != 0 {
		t.Fatalf("empty affinity = %v", got)
	}
	empty := NewListener("u", nil, 1)
	if got := empty.Affinity(item("a", "food", time.Minute)); got != 0 {
		t.Fatalf("no-taste affinity = %v", got)
	}
}

func TestPlayInterestedListensThrough(t *testing.T) {
	l := NewListener("u", map[string]float64{"food": 1}, 1)
	it := item("decanter", "food", 5*time.Minute)
	out := l.Play(it, t0)
	if out.Skipped {
		t.Fatal("interested listener skipped")
	}
	if out.Listened != it.Duration {
		t.Fatalf("Listened = %v", out.Listened)
	}
	// Implicit positives every minute: 5 events (plus maybe a like).
	implicit := 0
	for _, e := range out.Events {
		switch e.Kind {
		case feedback.ImplicitListen:
			implicit++
		case feedback.Skip, feedback.Dislike:
			t.Fatalf("negative event from interested listener: %v", e.Kind)
		}
		if e.UserID != "u" || e.ItemID != "decanter" {
			t.Fatalf("event identity: %+v", e)
		}
	}
	if implicit != 5 {
		t.Fatalf("implicit events = %d, want 5", implicit)
	}
}

func TestPlayUninterestedSkips(t *testing.T) {
	l := NewListener("u", map[string]float64{"food": 1}, 1)
	it := item("derby", "sport", 10*time.Minute)
	out := l.Play(it, t0)
	if !out.Skipped {
		t.Fatal("uninterested listener did not skip")
	}
	if out.Listened >= it.Duration || out.Listened < l.SampleTime {
		t.Fatalf("Listened = %v", out.Listened)
	}
	var sawSkip bool
	for _, e := range out.Events {
		if e.Kind == feedback.Skip {
			sawSkip = true
			if !e.At.After(t0) {
				t.Fatal("skip event timestamp wrong")
			}
		}
	}
	if !sawSkip {
		t.Fatal("no skip event emitted")
	}
}

func TestPlayShortContentNoSkipPossible(t *testing.T) {
	// Content shorter than the sample time ends before a skip can happen.
	l := NewListener("u", map[string]float64{"food": 1}, 1)
	it := item("jingle", "sport", 20*time.Second)
	out := l.Play(it, t0)
	if out.Skipped {
		t.Fatal("content ended before skip but Skipped set")
	}
	if out.Listened != it.Duration {
		t.Fatalf("Listened = %v", out.Listened)
	}
}

func TestPlayShortInterestingStillSignals(t *testing.T) {
	l := NewListener("u", map[string]float64{"food": 1}, 1)
	it := item("pill", "food", 30*time.Second)
	out := l.Play(it, t0)
	implicit := 0
	for _, e := range out.Events {
		if e.Kind == feedback.ImplicitListen {
			implicit++
		}
	}
	if implicit != 1 {
		t.Fatalf("short interesting content implicit events = %d, want 1", implicit)
	}
}

func TestPlayLikeRate(t *testing.T) {
	// With affinity 1 and LikeProbability 1, every play produces a like.
	l := NewListener("u", map[string]float64{"food": 1}, 1)
	l.LikeProbability = 1
	likes := 0
	for i := 0; i < 20; i++ {
		out := l.Play(item("x", "food", 2*time.Minute), t0)
		for _, e := range out.Events {
			if e.Kind == feedback.Like {
				likes++
			}
		}
	}
	if likes != 20 {
		t.Fatalf("likes = %d, want 20", likes)
	}
}

func TestPlayDeterministicPerSeed(t *testing.T) {
	a := NewListener("u", map[string]float64{"food": 1}, 7)
	b := NewListener("u", map[string]float64{"food": 1}, 7)
	ia := item("x", "sport", 10*time.Minute)
	oa := a.Play(ia, t0)
	ob := b.Play(ia, t0)
	if oa.Listened != ob.Listened || len(oa.Events) != len(ob.Events) {
		t.Fatal("behaviour not reproducible per seed")
	}
}
