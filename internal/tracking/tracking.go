// Package tracking implements the tracking-data DB and its periodic
// compaction (§1.2): raw listener GPS fixes arrive continuously and are
// "periodically process[ed] and simplif[ied], extracting a compact,
// discrete model which describes destination, trajectory, speed,
// frequency, time of the day and complexity". Staying points come from
// density-based clustering and trajectories are simplified with RDP,
// exactly as the paper states.
//
// Compaction folds what it has finished with. A trip has closed once a
// later fix arrived at least tripGap after its last one; a compaction
// replaces every trip that has closed among the fixes it pins with a
// fixed record (endpoints, departure, duration, RDP route, speed,
// complexity) and drops its raw fixes. A user's tracking state is
// therefore the folded records plus the raw suffix after them, and it
// grows with trips, not with fixes. The model a compaction returns is
// still exactly the one a full recompaction of every fix would build.
//
// A raw fix is held as the 24 B record a checkpoint writes (latitude,
// longitude, Unix nanoseconds), not as the 40 B trajectory.Fix, so a
// live suffix and a restored one are the same bytes. Fix values are
// built only on the way out (Trace, CompactN), with Time in UTC.
package tracking

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/predict"
	"pphcr/internal/trajectory"
)

// The one set of compaction parameters. A folded trip's extent depends
// on tripGap and minFixes, so they cannot change from call to call.
const (
	tripGap           = 20 * time.Minute // dwell time separating two trips
	minFixes          = 5                // shorter GPS fragments are discarded
	rdpEpsilonMeters  = 30               // trajectory simplification tolerance
	matchRadiusMeters = 200              // how far an endpoint may be from its staying point
)

// Tracker is the thread-safe tracking store: per user, the trips
// compaction has folded and the time-ordered raw fixes after them.
type Tracker struct {
	mu    sync.RWMutex
	users map[string]*history
}

// history is one user's tracking state. Fix number dropped (counting
// from the user's first) is suffix[0]; every fix before it has been
// folded into a record or discarded as a fragment.
type history struct {
	folded  []foldedTrip
	dropped int
	suffix  []fixRecord
}

// foldedTrip is one closed trip as compaction keeps it: everything a
// model needs from the trip except the staying points its endpoints
// match, which depend on every other trip.
type foldedTrip struct {
	From       geo.Point     `json:"from"`
	To         geo.Point     `json:"to"`
	DepartNs   int64         `json:"depart"`
	Duration   time.Duration `json:"duration"`
	Route      geo.Polyline  `json:"route"` // RDP-simplified
	AvgSpeed   float64       `json:"speed"`
	Complexity float64       `json:"complexity"`
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{users: make(map[string]*history)}
}

// ErrInstantRange is Record's refusal of an instant outside what Unix
// nanoseconds hold (years 1678–2262), which a fixRecord cannot store.
var ErrInstantRange = errors.New("tracking: instant outside the Unix-nanosecond range")

// Record ingests one GPS fix for a user. Fixes must arrive in
// non-decreasing time order per user (the client app sends them live),
// at instants Unix nanoseconds hold (ErrInstantRange).
func (t *Tracker) Record(userID string, fix trajectory.Fix) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, err := t.check(userID, fix)
	if err != nil {
		return err
	}
	h := t.users[userID]
	if h == nil {
		h = &history{}
		t.users[userID] = h
	}
	h.suffix = append(h.suffix, rec)
	return nil
}

// CheckRecord returns the error Record would return, and records nothing.
func (t *Tracker) CheckRecord(userID string, fix trajectory.Fix) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := t.check(userID, fix)
	return err
}

// check is Record's refusal, and the record it would append. The caller
// holds t.mu.
func (t *Tracker) check(userID string, fix trajectory.Fix) (fixRecord, error) {
	if userID == "" {
		return fixRecord{}, fmt.Errorf("tracking: userID required")
	}
	if !fix.Point.Valid() {
		return fixRecord{}, fmt.Errorf("tracking: invalid point %v", fix.Point)
	}
	rec := fixRecord{Lat: fix.Point.Lat, Lon: fix.Point.Lon, UnixNs: fix.Time.UnixNano()}
	if !rec.fix().Time.Equal(fix.Time) {
		return fixRecord{}, fmt.Errorf("%w: %v", ErrInstantRange, fix.Time)
	}
	if h := t.users[userID]; h != nil {
		if n := len(h.suffix); n > 0 && rec.UnixNs < h.suffix[n-1].UnixNs {
			return fixRecord{}, fmt.Errorf("tracking: out-of-order fix for %q (%v before %v)",
				userID, fix.Time, h.suffix[n-1].fix().Time)
		}
	}
	return rec, nil
}

// Trace returns the user's raw fixes that compaction has not folded:
// the fixes of trips that had not closed at the last compaction, and
// every fix recorded since.
func (t *Tracker) Trace(userID string) trajectory.Trace {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if h := t.users[userID]; h != nil {
		return traceOf(h.suffix)
	}
	return nil
}

// Path returns the user's movements as the tracker keeps them: the RDP
// route of each folded trip in trip order, then the raw points of the
// unfolded fixes.
func (t *Tracker) Path(userID string) geo.Polyline {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := t.users[userID]
	if h == nil {
		return nil
	}
	var pl geo.Polyline
	for _, f := range h.folded {
		pl = append(pl, f.Route...)
	}
	for _, r := range h.suffix {
		pl = append(pl, geo.Point{Lat: r.Lat, Lon: r.Lon})
	}
	return pl
}

// FixCount returns the number of fixes recorded for the user, folded
// ones included.
func (t *Tracker) FixCount(userID string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if h := t.users[userID]; h != nil {
		return h.dropped + len(h.suffix)
	}
	return 0
}

func traceOf(recs []fixRecord) trajectory.Trace {
	if len(recs) == 0 {
		return nil
	}
	out := make(trajectory.Trace, len(recs))
	for i := range recs {
		out[i] = recs[i].fix()
	}
	return out
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
// It shares route polylines with the tracker and with other models:
// treat it as read-only.
type CompactModel struct {
	StayPoints []trajectory.StayPoint
	Trips      []CompactTrip
	// Frequency[place pair] = number of observed trips on that pair.
	Frequency map[[2]predict.PlaceID]int
	// Mobility is the prediction model built from the trips.
	Mobility *predict.Model
}

// Compact runs the periodic compaction for one user over every fix
// recorded: segment trips, cluster endpoints into staying points,
// simplify each trip with RDP, compute speed and complexity, and fit
// the mobility model.
func (t *Tracker) Compact(userID string) (*CompactModel, error) {
	return t.CompactN(userID, -1)
}

// ErrFolded is CompactN's refusal of a count below the fixes the user's
// earlier compactions folded away.
var ErrFolded = errors.New("tracking: fixes already folded")

// CompactN compacts the user's first n fixes (all of them when n is
// negative or past the end) and folds the trips that have closed among
// them. The model is a function of those n fixes alone, bit for bit the
// one a full recompaction of them builds, which is what makes recovery
// exact: a snapshot records how many fixes each user's live model was
// compacted from, and recovery re-derives the same model from that
// count however many fixes arrived afterwards. An n below the count
// already folded is refused with ErrFolded.
func (t *Tracker) CompactN(userID string, n int) (*CompactModel, error) {
	c, err := t.Prepare(userID, n)
	t.Fold(&c) // a refused Compaction is zero, and folds nothing
	return c.Model, err
}

// A Compaction is a CompactN prepared and not yet folded: its model, and
// the fold that replaces the cut fixes after the user's dropped folded
// ones with the closed trips' records.
type Compaction struct {
	Model        *CompactModel
	user         string
	dropped, cut int
	closed       []foldedTrip
}

// Prepare is CompactN without the fold: it changes nothing.
func (t *Tracker) Prepare(userID string, n int) (Compaction, error) {
	c, trips, open, err := t.pin(userID, n)
	if err != nil {
		return Compaction{}, err
	}
	for _, trip := range trajectory.SegmentTrips(open, tripGap, minFixes) {
		trips = append(trips, summarize(trip))
	}
	if len(trips) == 0 {
		return Compaction{}, fmt.Errorf("tracking: no trips for %q after segmentation", userID)
	}
	endpoints := make([]geo.Point, 0, 2*len(trips))
	for _, f := range trips {
		endpoints = append(endpoints, f.From, f.To)
	}
	stayPoints := trajectory.ExtractStayPoints(endpoints, trajectory.DefaultStayPointParams())

	model := &CompactModel{
		StayPoints: stayPoints,
		Trips:      make([]CompactTrip, len(trips)),
		Frequency:  make(map[[2]predict.PlaceID]int),
	}
	records := make([]predict.TripRecord, len(trips))
	for i, f := range trips {
		from := matchPlace(stayPoints, f.From)
		to := matchPlace(stayPoints, f.To)
		depart := time.Unix(0, f.DepartNs).UTC()
		model.Trips[i] = CompactTrip{
			From: from, To: to,
			Depart:     depart,
			Duration:   f.Duration,
			Route:      f.Route,
			AvgSpeed:   f.AvgSpeed,
			Complexity: f.Complexity,
		}
		if from != predict.NoPlace && to != predict.NoPlace && from != to {
			model.Frequency[[2]predict.PlaceID{from, to}]++
		}
		records[i] = predict.TripRecord{From: from, To: to, Depart: depart, Duration: f.Duration, Route: f.Route}
	}
	model.Mobility = predict.BuildModel(stayPoints, records, matchRadiusMeters)
	c.Model = model
	return c, nil
}

// Fold applies c's fold, unless the user's fixes were folded since c was
// prepared: a fold changes no model, and the next one catches up.
func (t *Tracker) Fold(c *Compaction) {
	if c.cut == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.users[c.user]
	if h == nil || h.dropped != c.dropped {
		return
	}
	h.folded = append(h.folded, c.closed...)
	h.suffix = slices.Clone(h.suffix[c.cut:])
	h.dropped += c.cut
}

// pin pins the user's first n fixes and summarizes the trips closed among
// them: it returns the fold, the folded records and those trips, and the
// pinned fixes after them.
func (t *Tracker) pin(userID string, n int) (Compaction, []foldedTrip, trajectory.Trace, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := t.users[userID]
	if h == nil {
		return Compaction{}, nil, nil, fmt.Errorf("tracking: no fixes for %q", userID)
	}
	if total := h.dropped + len(h.suffix); n < 0 || n > total {
		n = total
	}
	if n < h.dropped {
		return Compaction{}, nil, nil, fmt.Errorf("%w: %q compacted from %d fixes, %d of them folded", ErrFolded, userID, n, h.dropped)
	}
	if n == 0 {
		return Compaction{}, nil, nil, fmt.Errorf("tracking: no fixes for %q", userID)
	}
	pinned := traceOf(h.suffix[:n-h.dropped])
	// Trips before the last gap among the pinned fixes have closed.
	cut := 0
	for i := len(pinned) - 1; i > 0; i-- {
		if pinned[i].Time.Sub(pinned[i-1].Time) >= tripGap {
			cut = i
			break
		}
	}
	// Capped, so the appends copy: a folded record never changes.
	trips := h.folded[:len(h.folded):len(h.folded)]
	if cut > 0 {
		for _, trip := range trajectory.SegmentTrips(pinned[:cut], tripGap, minFixes) {
			trips = append(trips, summarize(trip))
		}
	}
	c := Compaction{user: userID, dropped: h.dropped, cut: cut, closed: trips[len(h.folded):]}
	return c, trips, pinned[cut:], nil
}

// summarize is the part of a trip's compact record that depends on the
// trip alone.
func summarize(trip trajectory.Trace) foldedTrip {
	route := trajectory.RDP(trip.Points(), rdpEpsilonMeters)
	return foldedTrip{
		From:       trip[0].Point,
		To:         trip[len(trip)-1].Point,
		DepartNs:   trip[0].Time.UnixNano(),
		Duration:   trip.Duration(),
		Route:      route,
		AvgSpeed:   trip.AverageSpeed(),
		Complexity: trajectory.RouteComplexity(route),
	}
}

func matchPlace(points []trajectory.StayPoint, p geo.Point) predict.PlaceID {
	idx, d := trajectory.NearestStayPoint(points, p)
	if idx < 0 || d > matchRadiusMeters {
		return predict.NoPlace
	}
	return predict.PlaceID(idx)
}
