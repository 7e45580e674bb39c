package tracking

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"pphcr/internal/geo"
	"pphcr/internal/predict"
	"pphcr/internal/trajectory"
)

var (
	torino = geo.Point{Lat: 45.0703, Lon: 7.6869}
	t0     = time.Date(2016, 11, 14, 8, 0, 0, 0, time.UTC) // Monday
)

func TestRecordValidation(t *testing.T) {
	tr := NewTracker()
	if err := tr.Record("", trajectory.Fix{Point: torino, Time: t0}); err == nil {
		t.Fatal("empty userID accepted")
	}
	if err := tr.Record("u", trajectory.Fix{Point: geo.Point{Lat: 999}, Time: t0}); err == nil {
		t.Fatal("invalid point accepted")
	}
	if err := tr.Record("u", trajectory.Fix{Point: torino, Time: t0}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Record("u", trajectory.Fix{Point: torino, Time: t0.Add(-time.Minute)}); err == nil {
		t.Fatal("out-of-order fix accepted")
	}
	// One fix accepted; the invalid and out-of-order ones left no trace.
	if tr.FixCount("u") != 1 {
		t.Fatalf("FixCount = %d", tr.FixCount("u"))
	}
}

func TestTraceIsCopy(t *testing.T) {
	tr := NewTracker()
	if err := tr.Record("u", trajectory.Fix{Point: torino, Time: t0}); err != nil {
		t.Fatal(err)
	}
	got := tr.Trace("u")
	got[0].Point = geo.Point{}
	if tr.Trace("u")[0].Point != torino {
		t.Fatal("Trace aliases internal state")
	}
}

// driveCommutes records `days` of home→work morning and work→home evening
// commutes with GPS noise, for a synthetic straight-road commute.
func driveCommutes(t *testing.T, tr *Tracker, user string, days int) (home, work geo.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	home = torino
	work = geo.Destination(torino, 70, 9000)
	record := func(from, to geo.Point, start time.Time) {
		const steps = 30
		for i := 0; i <= steps; i++ {
			f := float64(i) / steps
			p := geo.Interpolate(from, to, f)
			p = geo.Destination(p, rng.Float64()*360, rng.Float64()*15) // GPS noise
			fix := trajectory.Fix{Point: p, Time: start.Add(time.Duration(i) * 40 * time.Second)}
			if err := tr.Record(user, fix); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := 0; d < days; d++ {
		day := t0.AddDate(0, 0, d)
		if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		record(home, work, day)                   // 08:00 out
		record(work, home, day.Add(10*time.Hour)) // 18:00 back
	}
	return home, work
}

func TestCompactFullPipeline(t *testing.T) {
	tr := NewTracker()
	home, work := driveCommutes(t, tr, "lilly", 14)
	cm, err := tr.Compact("lilly")
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.StayPoints) != 2 {
		t.Fatalf("stay points = %d, want 2 (home, work)", len(cm.StayPoints))
	}
	// Stay points near home/work.
	for _, sp := range cm.StayPoints {
		dh, dw := geo.Distance(sp.Center, home), geo.Distance(sp.Center, work)
		if dh > 120 && dw > 120 {
			t.Fatalf("stay point %v not near home/work (%.0f / %.0f m)", sp.Center, dh, dw)
		}
	}
	if len(cm.Trips) != 20 { // 10 weekdays × 2
		t.Fatalf("trips = %d, want 20", len(cm.Trips))
	}
	for _, trip := range cm.Trips {
		if trip.From == predict.NoPlace || trip.To == predict.NoPlace {
			t.Fatalf("unmatched trip endpoints: %+v", trip)
		}
		if trip.AvgSpeed <= 0 {
			t.Fatalf("trip speed = %v", trip.AvgSpeed)
		}
		if trip.Complexity < 0 || trip.Complexity > 1 {
			t.Fatalf("complexity = %v", trip.Complexity)
		}
		if len(trip.Route) < 2 {
			t.Fatalf("route too short: %d", len(trip.Route))
		}
		if trip.Duration != 20*time.Minute {
			t.Fatalf("duration = %v", trip.Duration)
		}
	}
	// Frequency symmetric: 10 each way.
	if len(cm.Frequency) != 2 {
		t.Fatalf("frequency pairs = %d", len(cm.Frequency))
	}
	for pair, n := range cm.Frequency {
		if n != 10 {
			t.Fatalf("pair %v frequency = %d, want 10", pair, n)
		}
	}
	// The mobility model must predict the morning commute.
	var homeID predict.PlaceID = -1
	for i, sp := range cm.StayPoints {
		if geo.Distance(sp.Center, home) < 120 {
			homeID = predict.PlaceID(i)
		}
	}
	if homeID == -1 {
		t.Fatal("home stay point not found")
	}
	cands := cm.Mobility.PredictDestination(homeID, t0)
	if len(cands) == 0 {
		t.Fatal("no destination prediction")
	}
	if cands[0].Prob < 0.99 {
		t.Fatalf("morning prediction prob = %v", cands[0].Prob)
	}
}

func TestCompactErrors(t *testing.T) {
	tr := NewTracker()
	if _, err := tr.Compact("nobody"); err == nil {
		t.Fatal("compact with no data should fail")
	}
	// Two isolated fixes: segmentation discards them.
	if err := tr.Record("u", trajectory.Fix{Point: torino, Time: t0}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Record("u", trajectory.Fix{Point: torino, Time: t0.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Compact("u"); err == nil {
		t.Fatal("compact with only fragments should fail")
	}
}

func TestCompactSimplifiesRoutes(t *testing.T) {
	tr := NewTracker()
	driveCommutes(t, tr, "u", 7)
	cm, err := tr.Compact("u")
	if err != nil {
		t.Fatal(err)
	}
	raw := tr.Trace("u")
	_ = raw
	for _, trip := range cm.Trips {
		if len(trip.Route) > 31 {
			t.Fatalf("route not simplified: %d points", len(trip.Route))
		}
	}
}

// recordCommutes records `days` of BenchmarkCompact's commutes: every
// day a home→work and a work→home leg of 41 noisy fixes 30 s apart.
func recordCommutes(tb testing.TB, tr *Tracker, days int) {
	rng := rand.New(rand.NewSource(3))
	home, work := torino, geo.Destination(torino, 70, 9000)
	for d := 0; d < days; d++ {
		day := t0.AddDate(0, 0, d)
		for leg := 0; leg < 2; leg++ {
			from, to := home, work
			start := day
			if leg == 1 {
				from, to = work, home
				start = day.Add(10 * time.Hour)
			}
			for i := 0; i <= 40; i++ {
				f := float64(i) / 40
				p := geo.Interpolate(from, to, f)
				p = geo.Destination(p, rng.Float64()*360, rng.Float64()*15)
				if err := tr.Record("u", trajectory.Fix{Point: p, Time: start.Add(time.Duration(i) * 30 * time.Second)}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkCompact times one compaction of a listener who has already
// been compacted, the steady state the service's compactor keeps, at
// four history lengths.
func BenchmarkCompact(b *testing.B) {
	for _, days := range []int{7, 28, 112, 365} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			tr := NewTracker()
			recordCommutes(b, tr, days)
			if _, err := tr.Compact("u"); err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if _, err := tr.Compact("u"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRecordRefusesInstantsOutsideUnixNano: a trace holds an instant as
// Unix nanoseconds, so an instant outside their range (years 1678–2262)
// is refused rather than stored wrapped; the range's ends are kept.
func TestRecordRefusesInstantsOutsideUnixNano(t *testing.T) {
	tr := NewTracker()
	for _, at := range []time.Time{
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
	} {
		if err := tr.Record("u", trajectory.Fix{Point: torino, Time: at}); err == nil {
			t.Fatalf("fix at %v accepted", at)
		}
	}
	for _, ns := range []int64{math.MinInt64, 0, math.MaxInt64} {
		if err := tr.Record("u", trajectory.Fix{Point: torino, Time: time.Unix(0, ns)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.FixCount("u"); n != 3 {
		t.Fatalf("%d fixes stored, want the 3 in range", n)
	}
}

// TestFixRecordSize pins what a trace keeps per fix (trajectory.Fix
// takes 40 B).
func TestFixRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(fixRecord{}); n != 24 {
		t.Fatalf("fixRecord is %d B, want 24", n)
	}
}
