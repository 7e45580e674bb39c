package service

import (
	"math"
	"testing"
	"time"

	"pphcr/internal/feedback"
)

func feedFeedback(t *testing.T, sys interface {
	AddFeedback(feedback.Event) error
}, user string, n int, start time.Time) time.Time {
	t.Helper()
	at := start
	for i := 0; i < n; i++ {
		at = at.Add(time.Hour)
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: "it", Kind: feedback.Like, At: at,
			Categories: map[string]float64{"food": 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return at
}

func TestFeedbackCompactorTriggersOnThreshold(t *testing.T) {
	sys, w := testSystem(t)
	start := w.Params.StartDate
	// The horizon cuts the 120 hourly events in half.
	now := start.Add(feedbackHorizon + 60*time.Hour)
	c, err := NewFeedbackCompactor(sys, 50, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	feedFeedback(t, sys, "lilly", 120, start)

	before := sys.Preferences("lilly", now).Map()
	compacted, errs := c.Poll()
	if len(compacted) != 1 || len(errs) != 0 || compacted[0] != "lilly" {
		t.Fatalf("compacted = %v, errors %v", compacted, errs)
	}
	// The live log shrank to the horizon; preferences are untouched.
	live := sys.Feedback.ByUser("lilly")
	for _, e := range live {
		if e.At.Before(now.Add(-feedbackHorizon)) {
			t.Fatalf("event older than horizon survived: %v", e.At)
		}
	}
	if len(live) == 0 || len(live) == 120 {
		t.Fatalf("%d of 120 events live after compaction, want the newer half", len(live))
	}
	after := sys.Preferences("lilly", now).Map()
	for k, v := range before {
		if math.Abs(after[k]-v) > 1e-9 {
			t.Fatalf("compaction moved preference %q: %v -> %v", k, v, after[k])
		}
	}
	st := sys.Feedback.Stats()
	if st.Compactions != 1 || st.CompactedEvents == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Counter reset: an immediate second poll does nothing.
	if compacted, _ := c.Poll(); len(compacted) != 0 {
		t.Fatalf("second poll compacted %v", compacted)
	}
}

func TestFeedbackCompactorBelowThreshold(t *testing.T) {
	sys, w := testSystem(t)
	c, err := NewFeedbackCompactor(sys, 100000 /* never */, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	feedFeedback(t, sys, "lilly", 20, w.Params.StartDate)
	if compacted, _ := c.Poll(); len(compacted) != 0 {
		t.Fatalf("unexpected work: %v", compacted)
	}
	if sys.Feedback.Len() != 20 {
		t.Fatalf("log shrank without compaction: %d", sys.Feedback.Len())
	}
}

func TestFeedbackCompactorRunLoop(t *testing.T) {
	sys, w := testSystem(t)
	now := w.Params.StartDate.Add(feedbackHorizon + 60*time.Hour)
	c, err := NewFeedbackCompactor(sys, 50, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	feedFeedback(t, sys, "lilly", 120, w.Params.StartDate)
	go func() {
		c.Run(stop)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for sys.Feedback.Stats().CompactedEvents == 0 {
		select {
		case <-deadline:
			t.Fatal("run loop never compacted")
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("run loop did not stop")
	}
}
