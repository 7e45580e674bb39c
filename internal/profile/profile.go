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
type Store struct {
	mu       sync.RWMutex
	profiles map[string]Profile
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{profiles: make(map[string]Profile)}
}

// Put inserts or replaces a profile.
func (s *Store) Put(p Profile) error {
	if err := s.CheckPut(p); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[p.UserID] = p
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
	p, ok := s.profiles[userID]
	if !ok {
		return Profile{}, fmt.Errorf("%w: %q", ErrNotFound, userID)
	}
	return p, nil
}

// Len returns the number of profiles.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.profiles)
}

// UserIDs returns every user ID, sorted.
func (s *Store) UserIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.profiles))
	for id := range s.profiles {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
