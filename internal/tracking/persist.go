package tracking

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/trajectory"
)

// fixRecord is one GPS fix as a trace holds it and as a snapshot
// serializes it. Timestamps are kept at nanosecond precision: the
// durability subsystem proves recovered state equivalent to
// never-crashed state, and mobility models derive trip durations (and
// thus travel-time predictions) from these times.
type fixRecord struct {
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
	UnixNs int64   `json:"unixns,omitempty"`
}

func (r *fixRecord) fix() trajectory.Fix {
	return trajectory.Fix{Point: geo.Point{Lat: r.Lat, Lon: r.Lon}, Time: time.Unix(0, r.UnixNs).UTC()}
}

// Snapshot serializes every user's raw trace as JSON: the raw trace is
// all the tracker holds.
func (t *Tracker) Snapshot(w io.Writer) error {
	t.mu.RLock()
	out := make(map[string][]fixRecord, len(t.traces))
	for user, tr := range t.traces {
		out[user] = slices.Clone(tr)
	}
	t.mu.RUnlock()
	return json.NewEncoder(w).Encode(out)
}

// Restore loads a snapshot into an empty tracker, replaying every fix
// through Record so each one is validated as a live fix is.
func (t *Tracker) Restore(rd io.Reader) error {
	t.mu.RLock()
	empty := len(t.traces) == 0
	t.mu.RUnlock()
	if !empty {
		return fmt.Errorf("tracking: restore requires an empty tracker")
	}
	var in map[string][]fixRecord
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return fmt.Errorf("tracking: decoding snapshot: %w", err)
	}
	users := make([]string, 0, len(in))
	for u := range in {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		for _, rec := range in[u] {
			if err := t.Record(u, rec.fix()); err != nil {
				return fmt.Errorf("tracking: restoring %q: %w", u, err)
			}
		}
	}
	return nil
}
