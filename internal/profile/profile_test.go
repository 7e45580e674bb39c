package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pphcr/internal/geo"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	p := Profile{
		UserID:          "lilly",
		Name:            "Lilly",
		Age:             29,
		Hometown:        geo.Point{Lat: 45.07, Lon: 7.68},
		Interests:       []string{"food", "culture"},
		FavoriteService: "radio2",
	}
	if err := s.Put(p); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("lilly")
	if err != nil || got.Name != "Lilly" {
		t.Fatalf("Get = %+v err=%v", got, err)
	}
	if _, err := s.Get("greg"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Put(Profile{}); err == nil {
		t.Fatal("empty UserID accepted")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStorePutReplaces(t *testing.T) {
	s := NewStore()
	if err := s.Put(Profile{UserID: "greg", Age: 30}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Profile{UserID: "greg", Age: 31}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("greg")
	if got.Age != 31 {
		t.Fatalf("Age = %d", got.Age)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestUserIDsSorted(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"zoe", "anna", "greg"} {
		if err := s.Put(Profile{UserID: id}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.UserIDs()
	if len(got) != 3 || got[0] != "anna" || got[2] != "zoe" {
		t.Fatalf("UserIDs = %v", got)
	}
}

// TestProfileStoreConcurrent races Put of new users (which append rows
// and, at a chunk boundary, a chunk) and of known ones (which rewrite a
// row in place) against Get, UserIDs and Snapshot. Run it under -race.
func TestProfileStoreConcurrent(t *testing.T) {
	const writers, perWriter = 4, rowChunk
	s := NewStore()
	profileOf := func(w, i, age int) Profile {
		return Profile{UserID: fmt.Sprintf("u%d-%04d", w, i), Name: "n", Age: age, Interests: []string{"food"}}
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				if err := s.Put(profileOf(w, i, 1)); err != nil {
					t.Error(err)
					return
				}
				if err := s.Put(profileOf(w, i/2, 2)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, id := range s.UserIDs() {
				p, err := s.Get(id)
				if err != nil || p.UserID != id || p.Name != "n" || (p.Age != 1 && p.Age != 2) {
					t.Errorf("Get(%q) = %+v, %v", id, p, err)
					return
				}
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	if n := s.Len(); n != writers*perWriter {
		t.Fatalf("Len = %d, want %d", n, writers*perWriter)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]Profile
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for w := range writers {
		for i := range perWriter {
			want := profileOf(w, i, 1)
			if i < perWriter/2 {
				want.Age = 2
			}
			if p := got[want.UserID]; p.Age != want.Age || p.Name != want.Name {
				t.Fatalf("snapshot holds %+v, want %+v", p, want)
			}
		}
	}
}
