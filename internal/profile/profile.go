// Package profile implements the user-management component's profiles DB
// (Fig 3): listener demographics and seed interests.
package profile

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pphcr/internal/geo"
)

// Profile is one listener's demographic record.
type Profile struct {
	UserID string
	Name   string
	Age    int
	// Hometown anchors default geographic relevance before any tracking
	// data exists.
	Hometown geo.Point
	// Interests are seed categories declared at signup; the feedback
	// store refines them over time.
	Interests []string
	// FavoriteService is the listener's habitual station.
	FavoriteService string
}

// ErrNotFound is returned for unknown users.
var ErrNotFound = errors.New("profile: user not found")

// Store is a thread-safe profiles DB.
//
// Every node keeps a profile per registered listener for its life, so
// the profiles sit in rows: fixed-size chunks that are allocated whole
// and only ever appended to, behind an index from user ID to row. A
// listener costs a 96-B row and an index slot, where a map[string]Profile
// slot costs about 250 B. Put of a known user rewrites its row in place.
type Store struct {
	mu    sync.RWMutex
	index map[string]int32 // user ID -> row
	rows  []*[rowChunk]Profile
}

// rowChunk is how many profiles a chunk holds: 96 B each, three 8 KiB
// pages.
const rowChunk = 256

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{index: make(map[string]int32)}
}

// row returns the profile in row i. The caller holds s.mu.
func (s *Store) row(i int32) *Profile {
	return &s.rows[i/rowChunk][i%rowChunk]
}

// Put inserts or replaces a profile.
func (s *Store) Put(p Profile) error {
	if err := s.CheckPut(p); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[p.UserID]
	if !ok {
		i = int32(len(s.index))
		if int(i) == len(s.rows)*rowChunk {
			s.rows = append(s.rows, new([rowChunk]Profile))
		}
		s.index[p.UserID] = i
	}
	*s.row(i) = p
	return nil
}

// CheckPut returns the error Put would return for p, and stores nothing.
func (s *Store) CheckPut(p Profile) error {
	if p.UserID == "" {
		return fmt.Errorf("profile: UserID required")
	}
	return nil
}

// Get returns a profile by user ID.
func (s *Store) Get(userID string) (Profile, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.index[userID]
	if !ok {
		return Profile{}, fmt.Errorf("%w: %q", ErrNotFound, userID)
	}
	return *s.row(i), nil
}

// Len returns the number of profiles.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// UserIDs returns every user ID, sorted.
func (s *Store) UserIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
