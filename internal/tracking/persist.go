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

// snapshotHistory is one user's history as a snapshot writes it.
type snapshotHistory struct {
	Folded  []foldedTrip `json:"folded,omitempty"`
	Dropped int          `json:"dropped,omitempty"`
	Fixes   []fixRecord  `json:"fixes"`
}

// Snapshot serializes every user's history as JSON: the folded trip
// records, the number of fixes folded away, and the raw fixes after
// them.
func (t *Tracker) Snapshot(w io.Writer) error {
	t.mu.RLock()
	out := make(map[string]snapshotHistory, len(t.users))
	for user, h := range t.users {
		out[user] = snapshotHistory{Folded: h.folded[:len(h.folded):len(h.folded)], Dropped: h.dropped, Fixes: slices.Clone(h.suffix)}
	}
	t.mu.RUnlock()
	return json.NewEncoder(w).Encode(out)
}

// Restore loads a Snapshot into an empty tracker. Folded records are
// taken as written; the raw fixes are replayed through Record so each
// one is validated as a live fix is.
func (t *Tracker) Restore(rd io.Reader) error {
	var in map[string]snapshotHistory
	if err := t.decodeInto(rd, &in); err != nil {
		return err
	}
	for _, u := range sortedUsers(in) {
		sh := in[u]
		if sh.Dropped < 0 {
			return fmt.Errorf("tracking: restoring %q: %d fixes folded", u, sh.Dropped)
		}
		if sh.Dropped > 0 || len(sh.Folded) > 0 {
			t.mu.Lock()
			t.users[u] = &history{folded: sh.Folded, dropped: sh.Dropped}
			t.mu.Unlock()
		}
		if err := t.replay(u, sh.Fixes); err != nil {
			return err
		}
	}
	return nil
}

// RestoreTraces loads the tracking section of a version-2 checkpoint,
// which holds every user's whole raw trace, into an empty tracker by
// replaying each fix through Record. The first compaction of each user
// folds what has closed.
func (t *Tracker) RestoreTraces(rd io.Reader) error {
	var in map[string][]fixRecord
	if err := t.decodeInto(rd, &in); err != nil {
		return err
	}
	for _, u := range sortedUsers(in) {
		if err := t.replay(u, in[u]); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tracker) decodeInto(rd io.Reader, v any) error {
	t.mu.RLock()
	empty := len(t.users) == 0
	t.mu.RUnlock()
	if !empty {
		return fmt.Errorf("tracking: restore requires an empty tracker")
	}
	if err := json.NewDecoder(rd).Decode(v); err != nil {
		return fmt.Errorf("tracking: decoding snapshot: %w", err)
	}
	return nil
}

func (t *Tracker) replay(user string, recs []fixRecord) error {
	for _, rec := range recs {
		if err := t.Record(user, rec.fix()); err != nil {
			return fmt.Errorf("tracking: restoring %q: %w", user, err)
		}
	}
	return nil
}

func sortedUsers[V any](m map[string]V) []string {
	users := make([]string, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}
