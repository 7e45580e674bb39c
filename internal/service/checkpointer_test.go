package service

import (
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/synth"
)

func TestCheckpointerPollAndRun(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 9, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pphcr.NewWorld(w, 9)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: t.TempDir(), Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := sys.RegisterUser(w.Personas[0].Profile); err != nil {
		t.Fatal(err)
	}

	cp, err := NewCheckpointer(dur)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Poll(); err != nil {
		t.Fatal(err)
	}
	if ds := dur.Stats(); ds.Checkpoints != 1 {
		t.Fatalf("durability saw %d checkpoints", ds.Checkpoints)
	}

	// Run drives checkpoints off the ticker until stopped.
	cp.interval = 5 * time.Millisecond
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { cp.Run(stop); close(done) }()
	deadline := time.Now().Add(2 * time.Second)
	for dur.Stats().Checkpoints < 3 {
		if time.Now().After(deadline) {
			t.Fatal("ticker checkpoints never ran")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	if _, err := NewCheckpointer(nil); err == nil {
		t.Fatal("nil durability accepted")
	}
}
