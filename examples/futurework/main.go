// Futurework demonstrates the three extensions the paper's conclusions
// plan (§3), all implemented in this repository:
//
//  1. estimating the geographic relevance of archive items from their
//     (recognized) speech — package georelevance;
//  2. richer contexts — weather and activity signals in the compound
//     score — package recommend;
//  3. the ensemble effect of the recommendations list — MMR
//     diversification and daypart mixing — package ensemble.
package main

import (
	"fmt"
	"log"
	"time"

	"pphcr"
	"pphcr/internal/ensemble"
	"pphcr/internal/georelevance"
	"pphcr/internal/profile"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
)

func main() {
	world, err := synth.GenerateWorld(synth.Params{Seed: 5, Days: 3, PodcastsPerDay: 80})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := pphcr.New(pphcr.Config{TrainingDocs: world.Training, Vocabulary: world.FlatVocab})
	if err != nil {
		log.Fatal(err)
	}
	// ── 1. Archive geo-relevance estimation ────────────────────────────
	fmt.Println("== 1. geographic relevance of archive items ==")
	var gazetteer []georelevance.Place
	for i, nodeID := range world.City.RingNodes[:4] {
		gazetteer = append(gazetteer, georelevance.Place{
			Name:   fmt.Sprintf("quartiere%02d", i),
			Center: world.City.Graph.Node(nodeID).Point,
			Radius: 1500,
		})
	}
	est, err := georelevance.NewEstimator(gazetteer)
	if err != nil {
		log.Fatal(err)
	}
	// A couple of archive items speak about a district; the estimator
	// finds them without any editorial tagging. Scopes are estimated
	// before ingest: an ingested item is immutable.
	local := world.Corpus[0]
	var newest time.Time
	annotated := 0
	for i, raw := range world.Corpus {
		transcript := raw.Speech
		if i == 0 {
			transcript += " quartiere01 quartiere01 mercato quartiere01"
		}
		if raw.Geo == nil {
			if raw.Geo, _ = est.Estimate(transcript); raw.Geo != nil {
				annotated++
			}
		}
		if _, err := sys.IngestPodcast(raw); err != nil {
			log.Fatal(err)
		}
		if raw.Published.After(newest) {
			newest = raw.Published
		}
	}
	fmt.Printf("annotated %d archive item(s) from speech alone\n", annotated)
	if it, ok := sys.Repo.Get(local.ID); ok && it.Geo != nil {
		fmt.Printf("  %s → center %s, radius %.0f m\n\n", it.ID, it.Geo.Center, it.Geo.Radius)
	}
	now := newest.Add(time.Hour)
	if err := sys.RegisterUser(profile.Profile{
		UserID: "lilly", Interests: []string{"food", "culture", "travel"},
	}); err != nil {
		log.Fatal(err)
	}

	// ── 2. Richer contexts: weather and activity ───────────────────────
	fmt.Println("== 2. richer contexts ==")
	prefs := sys.Preferences("lilly", now)
	prefs["traffic"] = 0.4
	scorer := recommend.NewScorer(0.8)
	for _, weather := range []recommend.Weather{recommend.WeatherClear, recommend.WeatherSnow} {
		ctx := recommend.Context{Now: now, Driving: true, Weather: weather}
		top := scorer.Rank(prefs, sys.Candidates(now), ctx, 3)
		fmt.Printf("driving in %s:\n", weather)
		for i, sc := range top {
			fmt.Printf("  %d. %-38s (%s)\n", i+1, sc.Item.Title, sc.Item.TopCategory())
		}
	}
	fmt.Println()

	// ── 3. Ensemble effect of the list ─────────────────────────────────
	fmt.Println("== 3. list composition (ensemble effect) ==")
	ctx := recommend.Context{Now: now}
	base := sys.Scorer.Rank(prefs, sys.Candidates(now), ctx, 30)
	pure := base
	if len(pure) > 8 {
		pure = pure[:8]
	}
	diversified := ensemble.MMR(base, 0.6, 8)
	fmt.Printf("%-28s diversity=%.2f categories=%d relevance=%.2f\n",
		"relevance-only:", ensemble.Diversity(pure),
		ensemble.CategoryCoverage(pure), ensemble.MeanRelevance(pure))
	fmt.Printf("%-28s diversity=%.2f categories=%d relevance=%.2f\n",
		"MMR diversified:", ensemble.Diversity(diversified),
		ensemble.CategoryCoverage(diversified), ensemble.MeanRelevance(diversified))
	fmt.Println("\ndiversified list:")
	for i, sc := range diversified {
		fmt.Printf("  %d. %-38s (%s)\n", i+1, sc.Item.Title, sc.Item.TopCategory())
	}
}
