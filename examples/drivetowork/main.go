// Drive-to-work reproduces the paper's Lilly scenario (§2.1.2 and
// Fig 4): after two weeks of tracked commutes the system recognizes the
// morning drive within minutes, predicts destination and ΔT, schedules
// personalized clips into the drive, and splices them into the live
// radio timeline with a time-shifted rejoin — all without Lilly touching
// the phone.
package main

import (
	"fmt"
	"log"
	"time"

	"pphcr"
	"pphcr/internal/content"
	"pphcr/internal/feedback"
	"pphcr/internal/streamsim"
	"pphcr/internal/synth"
)

func main() {
	world, err := synth.GenerateWorld(synth.Params{Seed: 7, Days: 14, Users: 3})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := pphcr.NewWorld(world, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.IngestAll(world.Corpus); err != nil {
		log.Fatal(err)
	}

	lilly := world.Personas[0]
	user := lilly.Profile.UserID
	if err := sys.RegisterUser(lilly.Profile); err != nil {
		log.Fatal(err)
	}
	// Lilly likes food programs; her feedback history says so.
	for i, it := range sys.Repo.ByCategory("food") {
		if i >= 5 {
			break
		}
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Like,
			At: world.Params.StartDate.AddDate(0, 0, 10),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Two weeks of commutes land in the tracking DB.
	fmt.Println("recording two weeks of commutes...")
	commutes, err := world.Commutes(lilly, world.Params.StartDate, world.Params.Days)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		log.Fatal(err)
	}
	cm, err := sys.CompactTracking(user)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted: %d staying points, %d trips\n", len(cm.StayPoints), len(cm.Trips))

	// Monday morning, a week later: Lilly starts driving.
	day := synth.NextWeekday(world.Params.StartDate.AddDate(0, 0, world.Params.Days))
	full, _, err := world.CommuteTrace(lilly, day, true)
	if err != nil {
		log.Fatal(err)
	}
	partial := full.Head(3 * time.Minute)
	now := partial[len(partial)-1].Time
	tp, err := sys.PlanTrip(user, partial, now, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s — 3 minutes into the drive:\n", now.Format("Mon 15:04:05"))
	fmt.Printf("predicted destination: staying point %d (confidence %.2f)\n",
		tp.Prediction.Dest, tp.Prediction.Confidence)
	fmt.Printf("predicted remaining time ΔT: %v\n", tp.Prediction.DeltaT.Round(time.Second))
	if !tp.Proactive {
		log.Fatalf("system stayed reactive: %s", tp.Reason)
	}
	fmt.Println("\nproactive plan:")
	for i, it := range tp.Plan.Items {
		fmt.Printf("  %d. +%-8v %-44s (%v, score %.3f)\n",
			i+1, it.StartOffset.Round(time.Second), it.Scored.Item.Title,
			it.Scored.Item.Duration, it.Scored.Compound)
	}

	// Splice the first planned clip into the live radio timeline at the
	// next replaceable program boundary, then rejoin the replaced program
	// time-shifted (Fig 4).
	service := lilly.Profile.FavoriteService
	sessionEnd := now.Add(tp.Prediction.DeltaT)
	// The client buffer lets the app splice immediately: the clip starts
	// half a minute from now, and the interrupted live program is then
	// replayed time-shifted from its scheduled start (Lilly hears a show
	// that "began 20 minutes ago").
	insertAt := now.Add(30 * time.Second)
	var clip *content.Item
	for _, it := range tp.Plan.Items {
		if !insertAt.Add(it.Scored.Item.Duration + time.Minute).After(sessionEnd) {
			clip = it.Scored.Item
			break
		}
	}
	if clip == nil {
		fmt.Println("\nno planned clip fits before arrival; live radio keeps playing.")
		return
	}
	inserts := []streamsim.Insertion{{
		Kind: streamsim.SourceClip, Ref: clip.ID, Title: clip.Title,
		At: insertAt, Duration: clip.Duration,
	}}
	if onAir, err := sys.Directory.ProgramAt(service, insertAt); err == nil {
		shiftStart := insertAt.Add(clip.Duration)
		shiftDur := onAir.Duration
		if remaining := sessionEnd.Sub(shiftStart); shiftDur > remaining {
			shiftDur = remaining
		}
		if shiftDur > 0 {
			inserts = append(inserts, streamsim.Insertion{
				Kind: streamsim.SourceTimeShifted, Ref: onAir.ID,
				Title: onAir.Title + " (from its start)",
				At:    shiftStart, Duration: shiftDur,
				ShiftedProgramStart: onAir.Start,
			})
		}
	}
	player := &streamsim.Player{Dir: sys.Directory, ServiceID: service, BroadcastCapable: true}
	segments, err := player.BuildTimeline(now, sessionEnd, inserts)
	if err != nil {
		log.Fatal(err)
	}
	if err := streamsim.Validate(segments, now, sessionEnd); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplayback timeline (seamless):")
	for _, s := range segments {
		lag := ""
		if s.Lag > 0 {
			lag = fmt.Sprintf("  [%v behind live]", s.Lag.Round(time.Second))
		}
		fmt.Printf("  %s  %-9s  %s%s\n", s.Start.Format("15:04:05"), s.Kind, s.Title, lag)
	}
	bw := player.AccountBandwidth(segments, 96)
	fmt.Printf("\nbandwidth: broadcast %d KB, unicast %d KB (%.0f%% unicast)\n",
		bw.BroadcastBytes/1000, bw.UnicastBytes/1000, bw.UnicastShare()*100)
}
