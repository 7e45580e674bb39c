package pphcr

import (
	"testing"

	"pphcr/internal/content"
	"pphcr/internal/geo"
	"pphcr/internal/trajectory"
)

// TestWorldBootStopsAtTheFirstError: NewWorld serves the world's own
// directory, and IngestAll and RecordTrace apply their input in order up
// to the first refusal and nothing after it.
func TestWorldBootStopsAtTheFirstError(t *testing.T) {
	sys, w := newTestSystem(t)
	if sys.Directory != w.Directory {
		t.Fatal("NewWorld does not serve the world's directory")
	}

	c := w.Corpus
	raws := []content.RawPodcast{c[0], c[1], c[0], c[2]}
	if err := sys.IngestAll(raws); err == nil {
		t.Fatal("IngestAll accepted a duplicate podcast")
	}
	if _, ok := sys.Repo.Get(c[2].ID); ok || sys.Repo.Len() != 2 {
		t.Fatalf("IngestAll went on past the duplicate: %d items", sys.Repo.Len())
	}

	trace, err := w.Commutes(w.Personas[0], w.Params.StartDate, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(trace[:2:2], trajectory.Fix{Point: geo.Point{Lat: 91}, Time: trace[2].Time}, trace[3])
	if err := sys.RecordTrace("u", bad); err == nil {
		t.Fatal("RecordTrace accepted a fix off the globe")
	}
	if got := sys.Tracker.Trace("u"); len(got) != 2 || !got[1].Time.Equal(trace[1].Time) {
		t.Fatalf("RecordTrace kept %d fixes, want the 2 before the refused one", len(got))
	}
}
