package feedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// snapshotVersion is the on-disk format: per-user compacted baselines
// plus the live event tail. Restore accepts no other version.
const snapshotVersion = 2

// userSnapshot is the durable state of one listener: the compaction
// baseline (if any) and the live log in insertion order.
type userSnapshot struct {
	Events    []Event            `json:"events,omitempty"`
	Base      map[string]float64 `json:"base,omitempty"`
	BaseAt    time.Time          `json:"base_at,omitempty"`
	BaseCount int                `json:"base_count,omitempty"`
	// Skipped preserves the skip/dislike item set across compaction (the
	// live events re-derive their share of it on replay).
	Skipped []string `json:"skipped,omitempty"`
}

// snapshot is the on-disk shape.
type snapshot struct {
	Version int                     `json:"version"`
	Users   map[string]userSnapshot `json:"users"`
}

// Snapshot serializes the whole feedback DB — compacted baselines and
// live logs — as JSON. The incremental index is not serialized; Restore
// rebuilds it exactly by folding the baseline and replaying the tail.
func (s *Store) Snapshot(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion, Users: make(map[string]userSnapshot)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for userID, st := range sh.users {
			us := userSnapshot{Skipped: s.skippedIDs(st)}
			if rs := st.rare; rs != nil && rs.baseCount > 0 {
				us.Base = rs.base.Map()
				us.BaseAt = time.Unix(0, rs.baseAt).UTC()
				us.BaseCount = rs.baseCount
			}
			// A stored event's map is never written (Append), so the
			// encoder may read it after the lock is released; base is
			// rescaled in place by compaction and is copied above.
			us.Events = s.events(userID, st)
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
// goes through Append, so one about a catalog item holds the item's map
// again rather than the decoded copy.
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
	var snap snapshot
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
func sortedUsers(m map[string]userSnapshot) []string {
	users := make([]string, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}
