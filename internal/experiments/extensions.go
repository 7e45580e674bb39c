package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/ensemble"
	"pphcr/internal/geo"
	"pphcr/internal/georelevance"
	"pphcr/internal/recommend"
)

// The paper's future work (§3) names three directions; each is
// implemented and evaluated here as an extension experiment:
//
//	A3 — "the ensemble effect of the recommendations list"
//	A4 — "estimate the geographic relevance of audio items available in
//	      the archives"
//	A5 — "richer contexts: time, activity, weather"

// RunA3 evaluates list composition: pure relevance ranking vs MMR
// diversification vs the daypart mixer, measured by intra-list
// diversity, category coverage and mean relevance.
func RunA3(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	if _, _, err := warmUp(e, 60, nil); err != nil {
		return err
	}
	persona := e.World.Personas[0]
	prefs := e.Sys.Preferences(persona.Profile.UserID, e.Now)
	ctx := recommend.Context{Now: e.Now}
	// Widen the pool beyond the persona's own tastes: list composition is
	// about variety, so give faint interest in everything (a listener who
	// never dislikes anything outright).
	for _, cat := range content.Categories {
		prefs[cat] += 0.03
	}
	base := e.Sys.Scorer.Rank(prefs, e.Sys.Candidates(e.Now), ctx, 40)
	if len(base) < 8 {
		return fmt.Errorf("not enough ranked candidates (%d)", len(base))
	}
	k := 10
	if k > len(base) {
		k = len(base)
	}
	variants := []struct {
		name string
		list []recommend.Scored
	}{
		{"relevance only (top-k)", base[:k]},
		{"MMR λ=0.7", ensemble.MMR(base, 0.7, k)},
		{"MMR λ=0.4", ensemble.MMR(base, 0.4, k)},
		{"daypart mixer", ensemble.DaypartMix(base, k)},
	}
	tb := newTable("composer", "diversity", "categories", "mean relevance")
	for _, v := range variants {
		tb.add(v.name,
			fmt.Sprintf("%.3f", ensemble.Diversity(v.list)),
			fmt.Sprintf("%d", ensemble.CategoryCoverage(v.list)),
			fmt.Sprintf("%.3f", ensemble.MeanRelevance(v.list)))
	}
	tb.write(cfg.Out)
	pure, mmr := ensemble.Diversity(variants[0].list), ensemble.Diversity(variants[2].list)
	fmt.Fprintf(cfg.Out, "\nshape check: MMR λ=0.4 diversity (%.3f) ≥ relevance-only (%.3f): %v\n",
		mmr, pure, mmr >= pure)
	if mmr < pure {
		return fmt.Errorf("MMR failed to diversify (%.3f vs %.3f)", mmr, pure)
	}
	return nil
}

// RunA4 evaluates the archive geo-relevance estimator: synthetic
// transcripts mention city places with controlled noise; the estimator
// must attach correct scopes to local items and leave global items
// untouched.
func RunA4(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed()))
	// Gazetteer: the ring roundabouts become named districts.
	var gazetteer []georelevance.Place
	for i, nodeID := range e.World.City.RingNodes {
		gazetteer = append(gazetteer, georelevance.Place{
			Name:   fmt.Sprintf("quartiere%02d", i),
			Center: e.World.City.Graph.Node(nodeID).Point,
			Radius: 1500,
		})
	}
	est, err := georelevance.NewEstimator(gazetteer)
	if err != nil {
		return err
	}
	// Archive: half the items are local (transcript mentions one place 3+
	// times), half global (no or scattered mentions).
	n := 200
	if cfg.Quick {
		n = 60
	}
	repo := content.NewRepository()
	truth := make(map[string]geo.Point)
	filler := []string{"oggi", "programma", "storia", "intervista", "musica", "novità"}
	annotated := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("arch-%03d", i)
		var words []string
		for w := 0; w < 30; w++ {
			words = append(words, filler[rng.Intn(len(filler))])
		}
		if i%2 == 0 {
			place := gazetteer[rng.Intn(len(gazetteer))]
			mentions := 3 + rng.Intn(3)
			for m := 0; m < mentions; m++ {
				words = append(words, place.Name)
			}
			truth[id] = place.Center
		} else if rng.Float64() < 0.3 {
			// Global item with a single stray place mention (noise).
			words = append(words, gazetteer[rng.Intn(len(gazetteer))].Name)
		}
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		// The scope is estimated before Add: an added item is immutable.
		it := &content.Item{
			ID: id, Title: id, Duration: 5 * time.Minute,
			Published:  e.Now.Add(-time.Hour),
			Categories: map[string]float64{"regional": 1},
		}
		if it.Geo, _ = est.Estimate(strings.Join(words, " ")); it.Geo != nil {
			annotated++
		}
		if err := repo.Add(it); err != nil {
			return err
		}
	}
	var correct, wrongPlace, falsePositive int
	for _, it := range repo.All() {
		truthPt, isLocal := truth[it.ID]
		switch {
		case it.Geo != nil && isLocal:
			if geo.Distance(it.Geo.Center, truthPt) < 100 {
				correct++
			} else {
				wrongPlace++
			}
		case it.Geo != nil && !isLocal:
			falsePositive++
		}
	}
	local := len(truth)
	tb := newTable("measure", "value")
	tb.add("archive items", fmt.Sprintf("%d (%d local, %d global)", n, local, n-local))
	tb.add("annotated", fmt.Sprintf("%d", annotated))
	tb.add("correct place", fmt.Sprintf("%d (recall %.2f)", correct, float64(correct)/float64(local)))
	tb.add("wrong place", fmt.Sprintf("%d", wrongPlace))
	tb.add("false positives on global items", fmt.Sprintf("%d", falsePositive))
	tb.write(cfg.Out)
	recall := float64(correct) / float64(local)
	if recall < 0.9 {
		return fmt.Errorf("geo-relevance recall %.2f too low", recall)
	}
	if falsePositive > n/20 {
		return fmt.Errorf("too many false positives: %d", falsePositive)
	}
	return nil
}

// RunA5 evaluates the richer-context extension: how weather and activity
// signals reshape the recommendation list.
func RunA5(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	if _, _, err := warmUp(e, 60, nil); err != nil {
		return err
	}
	persona := e.World.Personas[0]
	user := persona.Profile.UserID
	prefs := e.Sys.Preferences(user, e.Now)
	// Moderate info interest so bulletins compete with the persona's
	// favorite categories; the context signals decide the margin.
	prefs["traffic"] += 0.4
	prefs["weather"] += 0.4
	candidates := e.Sys.Candidates(e.Now)
	// The richer signals live in the context term; weigh it heavily so
	// the experiment isolates their effect (λ=0.8).
	scorer := recommend.NewScorer(0.8)

	infoShare := func(list []recommend.Scored) float64 {
		n := 0
		for _, sc := range list {
			if m := sc.Item.Categories["traffic"] + sc.Item.Categories["weather"]; m > 0.5 {
				n++
			}
		}
		return float64(n) / float64(len(list))
	}
	meanDur := func(list []recommend.Scored) time.Duration {
		var sum time.Duration
		for _, sc := range list {
			sum += sc.Item.Duration
		}
		return sum / time.Duration(len(list))
	}
	tb := newTable("context", "info items in top-10", "mean duration")
	var shares []float64
	for _, w := range []recommend.Weather{recommend.WeatherClear, recommend.WeatherRain, recommend.WeatherSnow} {
		ctx := recommend.Context{Now: e.Now, Driving: true, Weather: w, Activity: recommend.ActivityDriving}
		list := scorer.Rank(prefs, candidates, ctx, 10)
		share := infoShare(list)
		shares = append(shares, share)
		tb.add("driving, "+w.String(), fmt.Sprintf("%.2f", share), meanDur(list).Round(time.Second).String())
	}
	walking := recommend.Context{Now: e.Now, Activity: recommend.ActivityWalking}
	walkList := scorer.Rank(prefs, candidates, walking, 10)
	stationary := recommend.Context{Now: e.Now, Activity: recommend.ActivityStationary}
	statList := scorer.Rank(prefs, candidates, stationary, 10)
	tb.add("walking", fmt.Sprintf("%.2f", infoShare(walkList)), meanDur(walkList).Round(time.Second).String())
	tb.add("stationary", fmt.Sprintf("%.2f", infoShare(statList)), meanDur(statList).Round(time.Second).String())
	tb.write(cfg.Out)
	fmt.Fprintf(cfg.Out, "\nshape check: info share grows with weather severity (%.2f → %.2f): %v\n",
		shares[0], shares[2], shares[2] >= shares[0])
	fmt.Fprintf(cfg.Out, "shape check: walking list shorter than stationary (%v vs %v): %v\n",
		meanDur(walkList).Round(time.Second), meanDur(statList).Round(time.Second),
		meanDur(walkList) <= meanDur(statList))
	if shares[2] < shares[0] {
		return fmt.Errorf("severe weather did not raise info share (%.2f vs %.2f)", shares[2], shares[0])
	}
	if meanDur(walkList) > meanDur(statList) {
		return fmt.Errorf("walking list longer than stationary")
	}
	return nil
}
