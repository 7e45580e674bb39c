package tracking_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pphcr/internal/tracking"
	"pphcr/internal/tracking/trackingtest"
	"pphcr/internal/trajectory"
)

// lastGap is the index of the last fix of tr that starts a trip (0 when
// none does): every trip before it has closed.
func lastGap(tr trajectory.Trace) int {
	for i := len(tr) - 1; i > 0; i-- {
		if tr[i].Time.Sub(tr[i-1].Time) >= trackingtest.TripGap {
			return i
		}
	}
	return 0
}

func roundTrip(t *testing.T, tr *tracking.Tracker) *tracking.Tracker {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := tracking.NewTracker()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestFoldMatchesRecompaction is the fold oracle: over seeded commute
// histories, fixes are recorded in random batches and compacted at
// random points — often pinning fewer fixes than have been recorded —
// and every model equals, float bit for float bit, the full
// recompaction of the same fixes. After each compaction the tracker
// holds exactly the fixes from the last closed trip's end on, a count
// below them is refused, and a snapshot restored mid-history goes on
// folding the same way.
func TestFoldMatchesRecompaction(t *testing.T) {
	const histories = 240
	var shape trackingtest.Shape
	var pinnedShort, folds, restores int
	for seed := int64(1); seed <= histories; seed++ {
		all := trackingtest.History(seed, &shape)
		rng := rand.New(rand.NewSource(-seed))
		tr := tracking.NewTracker()
		recorded, folded := 0, 0
		for recorded < len(all) {
			for k := 1 + rng.Intn(150); k > 0 && recorded < len(all); k-- {
				if err := tr.Record("u", all[recorded]); err != nil {
					t.Fatal(err)
				}
				recorded++
			}
			n := recorded
			if rng.Intn(2) == 0 {
				n = folded + rng.Intn(recorded-folded+1)
			}
			if n < recorded {
				pinnedShort++
			}
			got, err := tr.CompactN("u", n)
			want, werr := trackingtest.Recompact(all[:n])
			if (err == nil) != (werr == nil) {
				t.Fatalf("seed %d n=%d: error %v, oracle %v", seed, n, err, werr)
			}
			if d := trackingtest.Diff(got, want); d != "" {
				t.Fatalf("seed %d n=%d of %d recorded: %s", seed, n, recorded, d)
			}
			if g := lastGap(all[:n]); g > folded {
				folded = g
				folds++
			}
			if c := tr.FixCount("u"); c != recorded {
				t.Fatalf("seed %d: FixCount %d, recorded %d", seed, c, recorded)
			}
			if rest := tr.Trace("u"); !reflect.DeepEqual(rest, all[folded:recorded]) {
				t.Fatalf("seed %d n=%d: tracker holds %d raw fixes, want the %d from fix %d on",
					seed, n, len(rest), recorded-folded, folded)
			}
			if folded > 0 {
				if _, err := tr.CompactN("u", folded-1); !errors.Is(err, tracking.ErrFolded) {
					t.Fatalf("seed %d: CompactN(%d) below %d folded fixes: %v", seed, folded-1, folded, err)
				}
			}
			if rng.Intn(4) == 0 {
				tr = roundTrip(t, tr)
				restores++
			}
		}
	}
	if shape.ExactGaps == 0 || shape.JustShortGaps == 0 || shape.Fragments == 0 || pinnedShort == 0 || restores == 0 {
		t.Fatalf("histories exercise too little: %+v, %d short pins, %d restores", shape, pinnedShort, restores)
	}
	t.Logf("%d histories: %+v, %d folds, %d compactions pinning fewer fixes than recorded, %d restores",
		histories, shape, folds, pinnedShort, restores)
}

// TestRestoreTracesFolds: the tracking section of a version-2
// checkpoint (every user's whole raw trace) restores fix for fix, and
// the first compaction folds it to the model the fixes give.
func TestRestoreTracesFolds(t *testing.T) {
	all := trackingtest.History(7, &trackingtest.Shape{})
	type v2Fix struct {
		Lat    float64 `json:"lat"`
		Lon    float64 `json:"lon"`
		UnixNs int64   `json:"unixns"`
	}
	var traces []v2Fix
	for _, f := range all {
		traces = append(traces, v2Fix{f.Point.Lat, f.Point.Lon, f.Time.UnixNano()})
	}
	v2, err := json.Marshal(map[string][]v2Fix{"u": traces})
	if err != nil {
		t.Fatal(err)
	}
	tr := tracking.NewTracker()
	if err := tr.RestoreTraces(bytes.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	if got := tr.Trace("u"); !reflect.DeepEqual(got, all) {
		t.Fatalf("restored %d fixes, want %d", len(got), len(all))
	}
	got, err := tr.Compact("u")
	if err != nil {
		t.Fatal(err)
	}
	want, err := trackingtest.Recompact(all)
	if err != nil {
		t.Fatal(err)
	}
	if d := trackingtest.Diff(got, want); d != "" {
		t.Fatal(d)
	}
	if rest := tr.Trace("u"); len(rest) != len(all)-lastGap(all) {
		t.Fatalf("%d raw fixes left after folding, want %d", len(rest), len(all)-lastGap(all))
	}
}

// TestFoldConcurrentReaders races one user's fixes against compactions,
// snapshots and the raw readers of the same tracker. Under -race it is
// the proof that a fold's drop of closed fixes never tears what a
// reader copies; after it, a last compaction equals the recompaction.
func TestFoldConcurrentReaders(t *testing.T) {
	h := trackingtest.History(23, &trackingtest.Shape{})
	tr := tracking.NewTracker()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, f := range h {
			if err := tr.Record("u", f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	loop := func(f func() error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := f(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	go loop(func() error {
		// No fixes or no trip yet is an answer too; a refused count is not.
		if _, err := tr.Compact("u"); errors.Is(err, tracking.ErrFolded) {
			return err
		}
		return nil
	})
	go loop(func() error { return tr.Snapshot(io.Discard) })
	go loop(func() error {
		tr.Trace("u")
		tr.Path("u")
		return nil
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := tr.Compact("u")
	if err != nil {
		t.Fatal(err)
	}
	want, err := trackingtest.Recompact(h)
	if err != nil {
		t.Fatal(err)
	}
	if d := trackingtest.Diff(got, want); d != "" {
		t.Fatal(d)
	}
}
