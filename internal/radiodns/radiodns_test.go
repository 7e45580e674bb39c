package radiodns

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2016, 11, 15, 10, 0, 0, 0, time.UTC)

func radio1() *Service {
	return &Service{
		ID:          "radio1",
		Name:        "Rai Radio 1",
		GCC:         "5e0",
		PI:          "5201",
		Frequency:   8990,
		StreamURL:   "http://stream.example/radio1",
		BitrateKbps: 96,
	}
}

func TestDirectoryServices(t *testing.T) {
	d := NewDirectory()
	if err := d.AddService(radio1()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddService(radio1()); err == nil {
		t.Fatal("duplicate service accepted")
	}
	if err := d.AddService(&Service{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if got := d.Services(); len(got) != 1 || got[0].Name != "Rai Radio 1" {
		t.Fatalf("Services = %+v", got)
	}
}

func program(id string, start time.Time, dur time.Duration, replaceable bool) *Program {
	return &Program{
		ID: id, ServiceID: "radio1", Title: "P-" + id,
		Start: start, Duration: dur, Replaceable: replaceable,
	}
}

func scheduleFixture(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	if err := d.AddService(radio1()); err != nil {
		t.Fatal(err)
	}
	// Fig 4 timeline shape: Program1 10:42:30-10:55, Program2 -11:10,
	// Program3 -11:25. Insert out of order to exercise sorting.
	ps := []*Program{
		program("p2", t0.Add(55*time.Minute).Add(-time.Hour).Add(42*time.Minute+30*time.Second), 15*time.Minute, true),
		program("p1", t0.Add(42*time.Minute+30*time.Second).Add(-time.Hour).Add(time.Hour), 12*time.Minute+30*time.Second, false),
		program("p3", t0.Add(42*time.Minute+30*time.Second).Add(27*time.Minute+30*time.Second), 15*time.Minute, true),
	}
	// p1 at 10:42:30 for 12m30s; p2 at 10:55 for 15m; p3 at 11:10 for 15m.
	ps[1].Start = t0.Add(42*time.Minute + 30*time.Second)
	ps[0].Start = t0.Add(55 * time.Minute)
	for _, p := range ps {
		if err := d.AddProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestProgramAt(t *testing.T) {
	d := scheduleFixture(t)
	p, err := d.ProgramAt("radio1", t0.Add(50*time.Minute))
	if err != nil || p.ID != "p1" {
		t.Fatalf("ProgramAt 10:50 = %v err=%v", p, err)
	}
	p, err = d.ProgramAt("radio1", t0.Add(55*time.Minute)) // boundary: p2 starts
	if err != nil || p.ID != "p2" {
		t.Fatalf("ProgramAt 10:55 = %v err=%v", p, err)
	}
	if _, err := d.ProgramAt("radio1", t0); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("before schedule err = %v", err)
	}
	if _, err := d.ProgramAt("radio1", t0.Add(3*time.Hour)); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("after schedule err = %v", err)
	}
}

func TestProgramsBetween(t *testing.T) {
	d := scheduleFixture(t)
	got := d.ProgramsBetween("radio1", t0.Add(50*time.Minute), t0.Add(71*time.Minute))
	if len(got) != 3 {
		t.Fatalf("ProgramsBetween = %d programs", len(got))
	}
	// Sorted by start.
	if got[0].ID != "p1" || got[2].ID != "p3" {
		t.Fatalf("order: %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
	if got := d.ProgramsBetween("radio1", t0, t0.Add(time.Minute)); len(got) != 0 {
		t.Fatalf("empty window returned %d", len(got))
	}
}

func TestNextBoundary(t *testing.T) {
	d := scheduleFixture(t)
	b, err := d.NextBoundary("radio1", t0.Add(50*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if want := t0.Add(55 * time.Minute); !b.Equal(want) {
		t.Fatalf("NextBoundary = %v, want %v", b, want)
	}
	if _, err := d.NextBoundary("radio1", t0.Add(3*time.Hour)); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddProgramValidation(t *testing.T) {
	d := NewDirectory()
	if err := d.AddProgram(program("x", t0, time.Minute, true)); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("unknown service err = %v", err)
	}
	if err := d.AddService(radio1()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddProgram(&Program{ServiceID: "radio1"}); err == nil {
		t.Fatal("empty program ID accepted")
	}
	if err := d.AddProgram(&Program{ID: "x", ServiceID: "radio1"}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestProgramEnd(t *testing.T) {
	p := program("x", t0, 10*time.Minute, true)
	if !p.End().Equal(t0.Add(10 * time.Minute)) {
		t.Fatalf("End = %v", p.End())
	}
}
