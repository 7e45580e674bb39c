package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot serializes the profiles DB as JSON (user ID → profile).
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	out := make(map[string]Profile, len(s.index))
	for id, i := range s.index {
		out[id] = *s.row(i)
	}
	s.mu.RUnlock()
	return json.NewEncoder(w).Encode(out)
}

// Restore loads a snapshot into an empty store.
func (s *Store) Restore(rd io.Reader) error {
	if s.Len() != 0 {
		return fmt.Errorf("profile: restore requires an empty store (have %d profiles)", s.Len())
	}
	var in map[string]Profile
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return fmt.Errorf("profile: decoding snapshot: %w", err)
	}
	for _, p := range in {
		if err := s.Put(p); err != nil {
			return err
		}
	}
	return nil
}
