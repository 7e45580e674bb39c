// Package tracking implements the tracking-data DB and its periodic
// compaction (§1.2): raw listener GPS fixes arrive continuously and are
// "periodically process[ed] and simplif[ied], extracting a compact,
// discrete model which describes destination, trajectory, speed,
// frequency, time of the day and complexity". Staying points come from
// density-based clustering and trajectories are simplified with RDP,
// exactly as the paper states.
//
// A raw trace holds each fix as the 24 B record its checkpoint writes
// (latitude, longitude, Unix nanoseconds), not as the 40 B
// trajectory.Fix, so a live trace and a restored one are the same bytes.
// Fix values are built only on the way out (Trace, CompactN), with Time
// in UTC.
package tracking

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/predict"
	"pphcr/internal/trajectory"
)

// Tracker is the thread-safe tracking store: each fix is held once, in
// its user's time-ordered raw trace. Compaction reads that trace, and so
// does recovery, which re-derives a mobility model from a pinned prefix
// of it (CompactN).
type Tracker struct {
	mu     sync.RWMutex
	traces map[string][]fixRecord
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{traces: make(map[string][]fixRecord)}
}

// ErrInstantRange is Record's refusal of an instant outside what Unix
// nanoseconds hold (years 1678–2262), which a fixRecord cannot store.
var ErrInstantRange = errors.New("tracking: instant outside the Unix-nanosecond range")

// Record ingests one GPS fix for a user. Fixes must arrive in
// non-decreasing time order per user (the client app sends them live),
// at instants Unix nanoseconds hold (ErrInstantRange).
func (t *Tracker) Record(userID string, fix trajectory.Fix) error {
	if userID == "" {
		return fmt.Errorf("tracking: userID required")
	}
	if !fix.Point.Valid() {
		return fmt.Errorf("tracking: invalid point %v", fix.Point)
	}
	rec := fixRecord{Lat: fix.Point.Lat, Lon: fix.Point.Lon, UnixNs: fix.Time.UnixNano()}
	if !rec.fix().Time.Equal(fix.Time) {
		return fmt.Errorf("%w: %v", ErrInstantRange, fix.Time)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traces[userID]
	if n := len(tr); n > 0 && rec.UnixNs < tr[n-1].UnixNs {
		return fmt.Errorf("tracking: out-of-order fix for %q (%v before %v)",
			userID, fix.Time, tr[n-1].fix().Time)
	}
	t.traces[userID] = append(tr, rec)
	return nil
}

// Trace returns the user's raw trace.
func (t *Tracker) Trace(userID string) trajectory.Trace {
	return t.prefix(userID, -1)
}

// prefix returns the first n fixes of the user's raw trace (all of them
// when n is negative or past the end).
func (t *Tracker) prefix(userID string, n int) trajectory.Trace {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tr := t.traces[userID]
	if n < 0 || n > len(tr) {
		n = len(tr)
	}
	if n == 0 {
		return nil
	}
	out := make(trajectory.Trace, n)
	for i := range out {
		out[i] = tr[i].fix()
	}
	return out
}

// FixCount returns the number of fixes stored for the user.
func (t *Tracker) FixCount(userID string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.traces[userID])
}

// CompactParams tunes the compaction pass.
type CompactParams struct {
	// TripGap is the dwell time separating two trips.
	TripGap time.Duration
	// MinFixes discards GPS fragments shorter than this.
	MinFixes int
	// RDPEpsilonMeters is the trajectory simplification tolerance.
	RDPEpsilonMeters float64
	// StayPoints configures the staying-point clustering.
	StayPoints trajectory.StayPointParams
	// MatchRadiusMeters is how far a trip endpoint may be from a staying
	// point and still be attributed to it.
	MatchRadiusMeters float64
}

// DefaultCompactParams returns the experiment defaults.
func DefaultCompactParams() CompactParams {
	return CompactParams{
		TripGap:           20 * time.Minute,
		MinFixes:          5,
		RDPEpsilonMeters:  30,
		StayPoints:        trajectory.DefaultStayPointParams(),
		MatchRadiusMeters: 200,
	}
}

// CompactTrip is the discrete per-trip record of the compact model,
// carrying exactly the attributes the paper lists.
type CompactTrip struct {
	From, To   predict.PlaceID
	Depart     time.Time
	Duration   time.Duration
	Route      geo.Polyline // RDP-simplified
	AvgSpeed   float64      // m/s
	Complexity float64      // [0,1]
}

// CompactModel is the result of one compaction pass over a user's data.
type CompactModel struct {
	StayPoints []trajectory.StayPoint
	Trips      []CompactTrip
	// Frequency[place pair] = number of observed trips on that pair.
	Frequency map[[2]predict.PlaceID]int
	// Mobility is the prediction model built from the trips.
	Mobility *predict.Model
}

// Compact runs the periodic compaction for one user: segment trips,
// cluster endpoints into staying points, simplify each trip with RDP,
// compute speed and complexity, and fit the mobility model.
func (t *Tracker) Compact(userID string, params CompactParams) (*CompactModel, error) {
	return t.CompactN(userID, params, -1)
}

// CompactN compacts only the first n fixes of the user's trace (all of
// them when n is negative or past the end). Compaction is deterministic
// in the trace prefix, which is what makes the durability subsystem's
// recovery exact: a snapshot records how many fixes each user's live
// mobility model was built from, and recovery re-derives the identical
// model from that prefix even though more fixes arrived afterwards.
func (t *Tracker) CompactN(userID string, params CompactParams, n int) (*CompactModel, error) {
	if params.TripGap <= 0 || params.MinFixes <= 0 {
		params = DefaultCompactParams()
	}
	raw := t.prefix(userID, n)
	if len(raw) == 0 {
		return nil, fmt.Errorf("tracking: no fixes for %q", userID)
	}
	trips := trajectory.SegmentTrips(raw, params.TripGap, params.MinFixes)
	if len(trips) == 0 {
		return nil, fmt.Errorf("tracking: no trips for %q after segmentation", userID)
	}
	// Staying points from trip endpoints.
	var endpoints []geo.Point
	for _, trip := range trips {
		endpoints = append(endpoints, trip[0].Point, trip[len(trip)-1].Point)
	}
	stayPoints := trajectory.ExtractStayPoints(endpoints, params.StayPoints)

	model := &CompactModel{
		StayPoints: stayPoints,
		Frequency:  make(map[[2]predict.PlaceID]int),
	}
	var records []predict.TripRecord
	for _, trip := range trips {
		pl := trip.Points()
		simplified := trajectory.RDP(pl, params.RDPEpsilonMeters)
		from := matchPlace(stayPoints, trip[0].Point, params.MatchRadiusMeters)
		to := matchPlace(stayPoints, trip[len(trip)-1].Point, params.MatchRadiusMeters)
		ct := CompactTrip{
			From:       from,
			To:         to,
			Depart:     trip[0].Time,
			Duration:   trip.Duration(),
			Route:      simplified,
			AvgSpeed:   trip.AverageSpeed(),
			Complexity: trajectory.Complexity(pl, params.RDPEpsilonMeters),
		}
		model.Trips = append(model.Trips, ct)
		if from != predict.NoPlace && to != predict.NoPlace && from != to {
			model.Frequency[[2]predict.PlaceID{from, to}]++
		}
		records = append(records, predict.TripRecord{
			From: from, To: to,
			Depart:   ct.Depart,
			Duration: ct.Duration,
			Route:    simplified,
		})
	}
	model.Mobility = predict.BuildModel(stayPoints, records, params.MatchRadiusMeters)
	return model, nil
}

func matchPlace(points []trajectory.StayPoint, p geo.Point, radius float64) predict.PlaceID {
	idx, d := trajectory.NearestStayPoint(points, p)
	if idx < 0 || d > radius {
		return predict.NoPlace
	}
	return predict.PlaceID(idx)
}
