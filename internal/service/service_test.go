package service

import (
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/geo"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

func fixAt(at time.Time) trajectory.Fix {
	return trajectory.Fix{Point: geo.Point{Lat: 45.0703, Lon: 7.6869}, Time: at}
}

func testSystem(t *testing.T) (*pphcr.System, *synth.World) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 21, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 10,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.NewWorld(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w
}

// feedCommutes records days of commutes and returns total fixes.
func feedCommutes(t *testing.T, sys *pphcr.System, w *synth.World, user string, days int) int {
	t.Helper()
	commutes, err := w.Commutes(w.Personas[0], w.Params.StartDate, days)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		t.Fatal(err)
	}
	return len(commutes)
}

func TestCompactorTriggersOnThreshold(t *testing.T) {
	sys, w := testSystem(t)
	c, err := NewCompactor(sys)
	if err != nil {
		t.Fatal(err)
	}
	fixes := feedCommutes(t, sys, w, "lilly", 5)
	if fixes < fixesPerCompaction {
		t.Fatalf("test needs ≥%d fixes, got %d", fixesPerCompaction, fixes)
	}
	compacted, errs := c.Poll()
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if len(compacted) != 1 || compacted[0] != "lilly" {
		t.Fatalf("compacted = %v", compacted)
	}
	if _, ok := sys.MobilityModel("lilly"); !ok {
		t.Fatal("mobility model not built")
	}
	// Counter reset: an immediate second poll does nothing.
	compacted, _ = c.Poll()
	if len(compacted) != 0 {
		t.Fatalf("second poll compacted %v", compacted)
	}
}

// recordIsolatedFixes records n fixes an hour apart at one point: enough
// to count toward the threshold, never enough for segmentation.
func recordIsolatedFixes(t *testing.T, sys *pphcr.System, user string, from, n int) {
	t.Helper()
	base := time.Date(2016, 11, 14, 8, 0, 0, 0, time.UTC)
	for i := from; i < from+n; i++ {
		if err := sys.RecordFix(user, fixAt(base.Add(time.Duration(i)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactorBelowThreshold: fixes below the threshold compact nothing,
// and they still count, across polls, toward the next compaction.
func TestCompactorBelowThreshold(t *testing.T) {
	sys, _ := testSystem(t)
	c, err := NewCompactor(sys)
	if err != nil {
		t.Fatal(err)
	}
	recordIsolatedFixes(t, sys, "lilly", 0, fixesPerCompaction-1)
	compacted, errs := c.Poll()
	if len(compacted) != 0 || len(errs) != 0 {
		t.Fatalf("unexpected work: %v %v", compacted, errs)
	}
	// The threshold-th fix makes the next poll attempt a compaction,
	// which these fixes cannot satisfy.
	recordIsolatedFixes(t, sys, "lilly", fixesPerCompaction-1, 1)
	if _, errs := c.Poll(); len(errs) != 1 {
		t.Fatalf("threshold reached across polls: errs = %v, want one compaction attempt", errs)
	}
}

func TestCompactorHandlesFailure(t *testing.T) {
	sys, _ := testSystem(t)
	c, err := NewCompactor(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Isolated fixes: enough to trip the threshold, not enough for
	// segmentation → compaction fails, is reported, and does not panic.
	recordIsolatedFixes(t, sys, "u", 0, fixesPerCompaction)
	compacted, errs := c.Poll()
	if len(compacted) != 0 {
		t.Fatalf("compacted despite bad data: %v", compacted)
	}
	if len(errs) == 0 {
		t.Fatal("failure not reported")
	}
}

func TestCompactorRunLoop(t *testing.T) {
	sys, w := testSystem(t)
	c, err := NewCompactor(sys)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Run(stop)
		close(done)
	}()
	feedCommutes(t, sys, w, "lilly", 5)
	deadline := time.After(5 * time.Second)
	for {
		if _, ok := sys.MobilityModel("lilly"); ok {
			break
		}
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
