// Quickstart: build a PPHCR system over a small synthetic world, ingest
// podcasts through the ASR → Bayesian-classifier pipeline, register a
// listener, send feedback, and fetch a personalized recommendation list.
package main

import (
	"fmt"
	"log"
	"time"

	"pphcr"
	"pphcr/internal/feedback"
	"pphcr/internal/profile"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
)

func main() {
	// 1. A synthetic world substitutes the Rai assets: podcast corpus,
	//    station schedules and a classifier training set.
	world, err := synth.GenerateWorld(synth.Params{Seed: 1, Days: 3, Users: 1, PodcastsPerDay: 60})
	if err != nil {
		log.Fatal(err)
	}
	// 2. The system: content pipeline + user management + recommender.
	sys, err := pphcr.NewWorld(world, 1)
	if err != nil {
		log.Fatal(err)
	}
	// 3. Ingest the corpus (speech → simulated ASR → naive Bayes →
	//    repository).
	if err := sys.IngestAll(world.Corpus); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d podcasts into the repository\n", sys.Repo.Len())

	// 4. A listener with declared interests.
	if err := sys.RegisterUser(profile.Profile{
		UserID:    "lilly",
		Name:      "Lilly",
		Interests: []string{"food", "culture"},
	}); err != nil {
		log.Fatal(err)
	}
	// 5. Some explicit feedback sharpens the preference vector.
	now := world.LastPublished().Add(time.Hour)
	for i, it := range sys.Repo.ByCategory("food") {
		if i >= 3 {
			break
		}
		if err := sys.AddFeedback(feedback.Event{
			UserID: "lilly", ItemID: it.ID, Kind: feedback.Like,
			At: now.Add(-2 * time.Hour),
		}); err != nil {
			log.Fatal(err)
		}
	}
	// 6. Recommendations for the current context.
	ranked := sys.Recommend("lilly", recommend.Context{Now: now}, 5)
	fmt.Println("\ntop recommendations for lilly:")
	for i, sc := range ranked {
		fmt.Printf("%d. %-40s %-12s compound=%.3f (content=%.3f context=%.3f)\n",
			i+1, sc.Item.Title, sc.Item.TopCategory(), sc.Compound, sc.Content, sc.Context)
	}
}
