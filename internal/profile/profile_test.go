package profile

import (
	"errors"
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
