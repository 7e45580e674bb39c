package tracking

import (
	"bytes"
	"strings"
	"testing"
)

func TestTrackerSnapshotRestore(t *testing.T) {
	tr := NewTracker()
	driveCommutes(t, tr, "lilly", 7)
	var buf bytes.Buffer
	if err := tr.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewTracker()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.FixCount("lilly") != tr.FixCount("lilly") {
		t.Fatalf("fix counts differ: %d vs %d",
			restored.FixCount("lilly"), tr.FixCount("lilly"))
	}
	// The raw trace is restored fix for fix, to the nanosecond.
	orig, rest := tr.Trace("lilly"), restored.Trace("lilly")
	for i := range orig {
		if orig[i].Point != rest[i].Point || !orig[i].Time.Equal(rest[i].Time) {
			t.Fatalf("fix %d: restored %+v, original %+v", i, rest[i], orig[i])
		}
	}
	// Compaction works identically on the restored state.
	a, err := tr.Compact("lilly")
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Compact("lilly")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.StayPoints) != len(b.StayPoints) || len(a.Trips) != len(b.Trips) {
		t.Fatalf("compaction differs: %d/%d vs %d/%d",
			len(a.StayPoints), len(a.Trips), len(b.StayPoints), len(b.Trips))
	}
}

func TestTrackerRestoreValidation(t *testing.T) {
	tr := NewTracker()
	driveCommutes(t, tr, "u", 2)
	if err := tr.Restore(strings.NewReader("{}")); err == nil {
		t.Fatal("restore into non-empty tracker accepted")
	}
	fresh := NewTracker()
	if err := fresh.Restore(strings.NewReader("{bad")); err == nil {
		t.Fatal("bad json accepted")
	}
}
