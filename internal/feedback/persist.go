package feedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// snapshotVersion is the on-disk format: per-user compacted baselines
// plus the live event tail. Restore accepts no other version.
const snapshotVersion = 2

// userSnapshot is the durable state of one listener: the compaction
// baseline (if any) and the live log in insertion order. Snapshot writes
// E = snapEvent and Restore reads E = Event: the same JSON.
type userSnapshot[E any] struct {
	Events    []E                `json:"events,omitempty"`
	Base      map[string]float64 `json:"base,omitempty"`
	BaseAt    time.Time          `json:"base_at,omitempty"`
	BaseCount int                `json:"base_count,omitempty"`
	// Skipped preserves the skip/dislike item set across compaction (the
	// live events re-derive their share of it on replay).
	Skipped []string `json:"skipped,omitempty"`
}

// snapshot is the on-disk shape.
type snapshot[E any] struct {
	Version int                        `json:"version"`
	Users   map[string]userSnapshot[E] `json:"users"`
}

// snapEvent is how Snapshot writes a live event: Event's fields in
// Event's order, with the categories written from the catalog item or
// the side entry the store keeps, so a checkpoint builds no map per
// event.
type snapEvent struct {
	UserID     string
	ItemID     string
	Kind       Kind
	At         time.Time
	Categories weights
}

// MarshalJSON writes w as encoding/json writes the map of its
// categories: an object whose keys are in name order, the order w holds
// them in. A weight JSON cannot hold (NaN, ±Inf) is an error, as it is
// to encoding/json.
func (w weights) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 64), '{')
	var err error
	w.each(func(c string, x float64) {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			err = fmt.Errorf("feedback: unsupported category weight %v", x)
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = appendJSONString(b, c)
		b = append(b, ':')
		b = appendJSONFloat(b, x)
	})
	return append(b, '}'), err
}

// appendJSONString appends s as encoding/json writes a string. A string
// of printable ASCII that needs no escape, which every category name is,
// is copied as is; any other goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends x as encoding/json writes a float64: the
// shortest decimal, in exponent form only below 1e-6 or from 1e21, with
// a one-digit negative exponent written without its leading zero.
func appendJSONFloat(b []byte, x float64) []byte {
	f, abs := byte('f'), math.Abs(x)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	b = strconv.AppendFloat(b, x, f, -1, 64)
	if n := len(b); f == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Snapshot serializes the whole feedback DB — compacted baselines and
// live logs — as JSON. The incremental index is not serialized; Restore
// rebuilds it exactly by folding the baseline and replaying the tail.
func (s *Store) Snapshot(w io.Writer) error {
	snap := snapshot[snapEvent]{Version: snapshotVersion, Users: make(map[string]userSnapshot[snapEvent])}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for userID, st := range sh.users {
			us := userSnapshot[snapEvent]{Skipped: s.skippedIDs(st)}
			if rs := st.rare; rs != nil && rs.baseCount > 0 {
				us.Base = rs.base.Map()
				us.BaseAt = time.Unix(0, rs.baseAt).UTC()
				us.BaseCount = rs.baseCount
			}
			// An event's weights are a catalog item or a side entry's
			// Vector, neither of which is ever written, and base, which
			// compaction rescales in place, is copied above, so the
			// encoder reads nothing of the store that can change after
			// the lock is released.
			us.Events = make([]snapEvent, len(st.events))
			for j := range st.events {
				r := &st.events[j]
				id, ws := s.item(st, r)
				us.Events[j] = snapEvent{UserID: userID, ItemID: id, Kind: Kind(r.kind), At: r.time().UTC(), Categories: ws}
			}
			snap.Users[userID] = us
		}
		sh.mu.RUnlock()
	}
	return json.NewEncoder(w).Encode(snap)
}

// Restore loads a snapshot into an empty store, rebuilding the
// incremental index: each user's baseline seeds the vector at its
// fold instant and the live events are re-folded on top, so restored
// preferences match the original store bit-for-bit (uncompacted stores)
// or to floating-point accumulation error (compacted ones). Each event
// goes through Append, so one about a catalog item is keyed by its seq
// again rather than holding the decoded copy.
func (s *Store) Restore(rd io.Reader) error {
	if !s.empty() {
		return fmt.Errorf("feedback: restore requires an empty store (have %d events)", s.Len())
	}
	var raw json.RawMessage
	if err := json.NewDecoder(rd).Decode(&raw); err != nil {
		return fmt.Errorf("feedback: decoding snapshot: %w", err)
	}
	// The version is read first: an older format need not decode as
	// this one to be refused by name.
	var ver struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &ver); err != nil {
		return fmt.Errorf("feedback: decoding snapshot version: %w", err)
	}
	if ver.Version != snapshotVersion {
		return fmt.Errorf("feedback: unsupported snapshot version %d", ver.Version)
	}
	var snap snapshot[Event]
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("feedback: decoding snapshot: %w", err)
	}
	for _, u := range sortedUsers(snap.Users) {
		us := snap.Users[u]
		if err := s.restoreUser(u, us.Base, us.BaseAt, us.BaseCount, us.Skipped); err != nil {
			return fmt.Errorf("feedback: restoring %q: %w", u, err)
		}
		for _, e := range us.Events {
			// A checkpoint from an older node may hold an instant a
			// record cannot; it is skipped, as WAL replay skips it.
			if err := s.Append(e); err != nil && !errors.Is(err, ErrInstantRange) {
				return fmt.Errorf("feedback: restoring %q: %w", u, err)
			}
		}
	}
	return nil
}

// sortedUsers gives a deterministic replay order across users.
func sortedUsers(m map[string]userSnapshot[Event]) []string {
	users := make([]string, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}
