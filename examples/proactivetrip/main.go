// Proactive-trip reproduces the paper's Fig 2: when the car starts
// moving, the system predicts the travel duration ΔT and allocates the
// most relevant media items A, B, C, D for the available time — with
// item B tied to a location L_B the user will reach, scheduled so it
// plays before she passes it, and content transitions kept away from
// intersections and roundabouts.
package main

import (
	"fmt"
	"log"
	"time"

	"pphcr"
	"pphcr/internal/content"
	"pphcr/internal/distraction"
	"pphcr/internal/feedback"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

func main() {
	world, err := synth.GenerateWorld(synth.Params{Seed: 13, Days: 14, Users: 2})
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
	driver := world.Personas[0]
	user := driver.Profile.UserID
	if err := sys.RegisterUser(driver.Profile); err != nil {
		log.Fatal(err)
	}
	// Preference history matching the persona's declared interests.
	for _, cat := range driver.Profile.Interests {
		for i, it := range sys.Repo.ByCategory(cat) {
			if i >= 3 {
				break
			}
			if err := sys.AddFeedback(feedback.Event{
				UserID: user, ItemID: it.ID, Kind: feedback.Like,
				At: world.Params.StartDate.AddDate(0, 0, 12),
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Two weeks of commutes → mobility model.
	commutes, err := world.Commutes(driver, world.Params.StartDate, world.Params.Days)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RecordTrace(user, commutes); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.CompactTracking(user); err != nil {
		log.Fatal(err)
	}

	// Today's drive: first three minutes observed.
	day := synth.NextWeekday(world.Params.StartDate.AddDate(0, 0, world.Params.Days))
	full, route, err := world.CommuteTrace(driver, day, true)
	if err != nil {
		log.Fatal(err)
	}
	partial := full.Head(3 * time.Minute)
	// Plant the L_B item: local news tied to a point 60% along the route.
	lb := full.Points().At(0.6)
	lbItem := &content.Item{
		ID: "item-B", Title: "Road works ahead at L_B", Program: "Local desk",
		Kind: content.KindNews, Duration: 3 * time.Minute,
		Published:  partial[0].Time.Add(-time.Hour),
		Categories: map[string]float64{driver.Profile.Interests[0]: 1},
		Geo:        &content.GeoRelevance{Center: lb, Radius: 800},
	}
	if err := sys.Repo.Add(lbItem); err != nil {
		log.Fatal(err)
	}
	// Distraction timeline from the road network's junctions.
	tl := distraction.Build(route.Junctions, route.Length,
		full.AverageSpeed(), trajectory.Complexity(full.Points(), 30),
		distraction.DefaultParams())

	now := partial[len(partial)-1].Time
	tp, err := sys.PlanTrip(user, partial, now, &tl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("car started moving; after 3 minutes the system knows:\n")
	fmt.Printf("  destination: staying point %d (confidence %.2f)\n", tp.Prediction.Dest, tp.Prediction.Confidence)
	fmt.Printf("  ΔT: %v  route: %.1f km with %d junctions\n",
		tp.Prediction.DeltaT.Round(time.Second), route.Length/1000, len(route.Junctions))
	if !tp.Proactive {
		log.Fatalf("not proactive: %s", tp.Reason)
	}
	fmt.Println("\nallocated media items:")
	letters := "ABCDEFGH"
	for i, it := range tp.Plan.Items {
		slot := "?"
		if i < len(letters) {
			slot = string(letters[i])
		}
		deadline := ""
		if it.HasDeadline {
			deadline = fmt.Sprintf("  (must start before +%v — location deadline)",
				it.Deadline.Round(time.Second))
		}
		fmt.Printf("  %s. +%-8v %-40s %v%s\n",
			slot, it.StartOffset.Round(time.Second), it.Scored.Item.Title,
			it.Scored.Item.Duration, deadline)
	}
	fmt.Printf("\nΔT used: %v of %v; every transition checked against %d distraction windows\n",
		tp.Plan.Used.Round(time.Second), tp.Plan.DeltaT.Round(time.Second), len(tl.Windows))
	for _, it := range tp.Plan.Items {
		if !tl.CalmAt(it.StartOffset, 0.65) {
			log.Fatalf("item %s starts in a distraction window", it.Scored.Item.ID)
		}
	}
	fmt.Println("no content transition falls inside an intersection/roundabout window ✓")
}
