// Package distraction models the driver's projected distraction level
// along a route. The paper's recommender schedules content "taking into
// account driving conditions as well as driver's projected distraction
// levels at intersections and roundabouts at user's projected driving
// path" (§1.2) so that the hybrid audio stays "non-distracting" (§1.1).
//
// The model is a timeline of distraction windows derived from the
// junctions on the predicted route plus a base level from trajectory
// complexity. The proactive planner refuses to start or switch content
// inside a high-distraction window.
package distraction

import (
	"sort"
	"time"

	"pphcr/internal/roadnet"
)

// Level is a distraction intensity in [0, 1].
type Level float64

// Canonical levels per junction kind. Roundabouts demand more attention
// than signalized intersections (gap acceptance, circulating traffic).
const (
	LevelIntersection Level = 0.7
	LevelRoundabout   Level = 0.9
)

// Window is a time span (offsets from trip start) of elevated
// distraction.
type Window struct {
	Start, End time.Duration
	Level      Level
	Cause      string
}

// Timeline is the projected distraction profile of one trip.
type Timeline struct {
	// Base is the ambient distraction from route complexity.
	Base Level
	// Windows are the junction spikes, sorted by start.
	Windows []Window
	// TripDuration bounds the timeline.
	TripDuration time.Duration
}

// Params tunes timeline construction.
type Params struct {
	// ApproachMeters before and ClearMeters after a junction are
	// distracting at driving speed.
	ApproachMeters float64
	ClearMeters    float64
	// BaseFloor and ComplexityGain shape the ambient level:
	// base = BaseFloor + ComplexityGain × complexity.
	BaseFloor      Level
	ComplexityGain Level
}

// DefaultParams returns the values used by the experiments.
func DefaultParams() Params {
	return Params{
		ApproachMeters: 120,
		ClearMeters:    60,
		BaseFloor:      0.15,
		ComplexityGain: 0.35,
	}
}

// Build projects the distraction timeline for a route traversed at the
// given average speed (m/s). complexity is the trajectory complexity in
// [0,1] (package trajectory).
func Build(junctions []roadnet.RouteJunction, routeLen float64, avgSpeed float64, complexity float64, params Params) Timeline {
	if params.ApproachMeters <= 0 {
		params = DefaultParams()
	}
	if avgSpeed <= 0 {
		avgSpeed = 10 // conservative urban fallback
	}
	tl := Timeline{
		Base:         params.BaseFloor + params.ComplexityGain*Level(complexity),
		TripDuration: time.Duration(routeLen / avgSpeed * float64(time.Second)),
	}
	for _, j := range junctions {
		level := LevelIntersection
		if j.Kind == roadnet.Roundabout {
			level = LevelRoundabout
		}
		startM := j.DistAlong - params.ApproachMeters
		if startM < 0 {
			startM = 0
		}
		endM := j.DistAlong + params.ClearMeters
		if endM > routeLen {
			endM = routeLen
		}
		tl.Windows = append(tl.Windows, Window{
			Start: time.Duration(startM / avgSpeed * float64(time.Second)),
			End:   time.Duration(endM / avgSpeed * float64(time.Second)),
			Level: level,
			Cause: j.Kind.String(),
		})
	}
	sort.Slice(tl.Windows, func(i, j int) bool { return tl.Windows[i].Start < tl.Windows[j].Start })
	return tl
}

// At returns the projected distraction at the given offset from trip
// start: the base level, raised by any overlapping junction window.
func (tl Timeline) At(offset time.Duration) Level {
	level := tl.Base
	for _, w := range tl.Windows {
		if w.Start > offset {
			break // sorted; nothing later can overlap
		}
		if offset < w.End && w.Level > level {
			level = w.Level
		}
	}
	return level
}

// CalmAt reports whether starting (or switching) content at the offset is
// acceptable: the projected level is below the threshold.
func (tl Timeline) CalmAt(offset time.Duration, threshold Level) bool {
	return tl.At(offset) < threshold
}

// NextCalm returns the earliest offset ≥ from where the level drops below
// the threshold. ok is false if no such instant exists before the trip
// ends (e.g. the base level itself exceeds the threshold).
func (tl Timeline) NextCalm(from time.Duration, threshold Level) (time.Duration, bool) {
	if tl.Base >= threshold {
		return 0, false
	}
	at := from
	for {
		if at >= tl.TripDuration {
			return 0, false
		}
		if tl.CalmAt(at, threshold) {
			return at, true
		}
		// Jump to the end of the window covering `at`.
		advanced := false
		for _, w := range tl.Windows {
			if w.Start <= at && at < w.End && w.Level >= threshold {
				at = w.End
				advanced = true
			}
		}
		if !advanced {
			return at, true
		}
	}
}
