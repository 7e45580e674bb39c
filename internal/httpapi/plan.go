package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"pphcr"
	"pphcr/internal/geo"
	"pphcr/internal/obs"
	"pphcr/internal/trajectory"
)

// PlanRequest is the proactive planning payload: the partial trace the
// client app observed since the car started moving.
type PlanRequest struct {
	UserID string      `json:"user_id"`
	Fixes  []TrackBody `json:"fixes"`
	// NowUnix is the planning instant; 0 means the last fix's time.
	NowUnix int64 `json:"now_unix"`
}

// PlanItemView is one scheduled clip in the response.
type PlanItemView struct {
	ItemID       string  `json:"item_id"`
	Title        string  `json:"title"`
	StartSeconds int     `json:"start_seconds"`
	Seconds      int     `json:"seconds"`
	Deadline     int     `json:"deadline_seconds,omitempty"`
	Compound     float64 `json:"compound_score"`
}

// PlanView is the planning response. Served reports whether the plan
// came from the warm cache ("warm") or the full pipeline ("cold").
type PlanView struct {
	Proactive      bool           `json:"proactive"`
	Reason         string         `json:"reason,omitempty"`
	Destination    int            `json:"destination_place"`
	Confidence     float64        `json:"confidence"`
	DeltaTSeconds  int            `json:"delta_t_seconds"`
	Served         string         `json:"served,omitempty"`
	Items          []PlanItemView `json:"items"`
	DroppedReasons []string       `json:"dropped_reasons,omitempty"`
}

// trip converts the request payload into PlanTrip's inputs.
func (b PlanRequest) trip() (partial trajectory.Trace, now time.Time, err error) {
	if b.UserID == "" || len(b.Fixes) == 0 {
		return nil, time.Time{}, errors.New("user_id and fixes required")
	}
	partial = make(trajectory.Trace, len(b.Fixes))
	for i, f := range b.Fixes {
		partial[i] = trajectory.Fix{
			Point: geo.Point{Lat: f.Lat, Lon: f.Lon},
			Time:  time.Unix(f.Unix, 0).UTC(),
		}
		// What /api/track refuses, the predictor must not be handed.
		if !partial[i].Point.Valid() {
			return nil, time.Time{}, fmt.Errorf("fix %d: invalid point %v", i, partial[i].Point)
		}
	}
	now = partial[len(partial)-1].Time
	if b.NowUnix != 0 {
		now = time.Unix(b.NowUnix, 0).UTC()
	}
	return partial, now, nil
}

// planView renders one TripPlan.
func planView(tp *pphcr.TripPlan) PlanView {
	view := PlanView{
		Proactive:     tp.Proactive,
		Reason:        tp.Reason,
		Destination:   int(tp.Prediction.Dest),
		Confidence:    tp.Prediction.Confidence,
		DeltaTSeconds: int(tp.Prediction.DeltaT.Seconds()),
		Served:        tp.Source,
	}
	if n := len(tp.Plan.Items); n > 0 {
		view.Items = make([]PlanItemView, 0, n)
	}
	for _, it := range tp.Plan.Items {
		v := PlanItemView{
			ItemID:       it.Scored.Item.ID,
			Title:        it.Scored.Item.Title,
			StartSeconds: int(it.StartOffset.Seconds()),
			Seconds:      int(it.Scored.Item.Duration.Seconds()),
			Compound:     it.Scored.Compound,
		}
		if it.HasDeadline {
			v.Deadline = int(it.Deadline.Seconds())
		}
		view.Items = append(view.Items, v)
	}
	for _, d := range tp.Plan.Dropped {
		view.DroppedReasons = append(view.DroppedReasons,
			fmt.Sprintf("%s: %s", d.Scored.Item.ID, d.Reason))
	}
	return view
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	sc := scratchPool.Get().(*bodyScratch)
	defer putScratch(sc)
	var body PlanRequest
	if !sc.decode(w, r, &body, func(raw []byte) bool { return readPlan(raw, &body, sc.fixes) }) {
		return
	}
	if cap(body.Fixes) > cap(sc.fixes) {
		sc.fixes = body.Fixes[:0] // trip() copies what it keeps
	}
	partial, now, err := body.trip()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	obs.NoteRequestUser(r.Context(), body.UserID)
	tr := s.startTrace("plan", body.UserID)
	started := time.Now()
	tp, err := s.sys.PlanTripTraced(body.UserID, partial, now, nil, tr)
	elapsed := time.Since(started)
	s.traceRing.Offer(tr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Only plan-producing requests enter the latency aggregates: early
	// declines (unrecognized trip, phase-1 negative) return in
	// microseconds and would make the cold pipeline look free.
	switch {
	case tp.Source == pphcr.PlanSourceWarm:
		s.warmLat.Observe(elapsed)
	case tp.Source == pphcr.PlanSourceCold && tp.Proactive:
		s.coldLat.Observe(elapsed)
	}
	view := planView(tp)
	if s.Role() != RoleLeader {
		// Graceful degradation: the plan was computed from replicated
		// state that may trail the leader, and the client can tell.
		view.Served = "replica"
	}
	var ok bool
	if sc.out, ok = appendPlanView(sc.out[:0], &view); !ok {
		writeJSON(w, http.StatusOK, &view)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out)
}
