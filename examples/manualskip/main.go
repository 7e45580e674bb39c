// Manual-skip reproduces the paper's Greg scenario (§2.1.1): Greg is
// passionate about technology and economics, an endless football talk is
// on his favorite station, and instead of zapping channels he presses
// skip — the app replaces the live program with recommended clips, each
// skip feeding implicit negative feedback back into his model, until he
// reaches a program he loves ("Wikiradio").
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"pphcr"
	"pphcr/internal/client"
	"pphcr/internal/profile"
	"pphcr/internal/radiodns"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
)

func main() {
	world, err := synth.GenerateWorld(synth.Params{Seed: 3, Days: 3, PodcastsPerDay: 80})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := pphcr.New(pphcr.Config{TrainingDocs: world.Training, Vocabulary: world.FlatVocab})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.IngestAll(world.Corpus); err != nil {
		log.Fatal(err)
	}
	now := world.LastPublished().Add(time.Hour)
	// Greg's favorite station has football talk on right now.
	if err := sys.Directory.AddService(&radiodns.Service{
		ID: "radio1", Name: "Radio 1", GCC: "5e0", PI: "5201", Frequency: 8990,
	}); err != nil {
		log.Fatal(err)
	}
	if err := sys.Directory.AddProgram(&radiodns.Program{
		ID: "football-talk", ServiceID: "radio1", Title: "Endless football talk",
		Start: now.Add(-15 * time.Minute), Duration: time.Hour,
		Categories: map[string]float64{"sport": 1}, Replaceable: true,
	}); err != nil {
		log.Fatal(err)
	}
	if err := sys.RegisterUser(profile.Profile{
		UserID: "greg", Name: "Greg",
		Interests: []string{"technology", "economics"},
	}); err != nil {
		log.Fatal(err)
	}
	// Greg's true tastes drive his simulated behaviour.
	greg := client.NewListener("greg", map[string]float64{
		"technology": 0.6, "economics": 0.4,
	}, 42)

	fmt.Println("on air: 'Endless football talk' — Greg presses skip")
	ctx := recommend.Context{Now: now}
	sc, err := sys.SkipLive("greg", "radio1", ctx)
	if err != nil {
		log.Fatal(err)
	}
	for hop := 1; ; hop++ {
		out := greg.Play(sc.Item, ctx.Now)
		for _, ev := range out.Events {
			if err := sys.AddFeedback(ev); err != nil {
				log.Fatal(err)
			}
		}
		if !out.Skipped {
			fmt.Printf("  ✓ listening: %-42s (%s, program %q)\n",
				sc.Item.Title, sc.Item.TopCategory(), sc.Item.Program)
			if sc.Item.Program == "Wikiradio" {
				fmt.Println("\nGreg reached his favorite program 'Wikiradio' — no channel zap needed.")
			} else {
				fmt.Println("\nGreg settled on a matching program — no channel zap needed.")
			}
			break
		}
		fmt.Printf("  ✗ skip #%d: %-44s (%s) after %v\n",
			hop, sc.Item.Title, sc.Item.TopCategory(), out.Listened.Round(time.Second))
		ctx.Now = ctx.Now.Add(out.Listened)
		sc, err = sys.SkipClip("greg", sc.Item.ID, ctx)
		if errors.Is(err, pphcr.ErrNoAlternative) {
			fmt.Println("\nno alternatives left; back to live radio")
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if hop > 10 {
			log.Fatal("skip loop did not settle")
		}
	}
	fmt.Printf("\nfeedback recorded: %d events; Greg's learned preferences:\n", sys.Feedback.Len())
	prefs := sys.Preferences("greg", ctx.Now).Map()
	for _, cat := range []string{"technology", "economics", "sport"} {
		fmt.Printf("  %-12s %+.3f\n", cat, prefs[cat])
	}
}
