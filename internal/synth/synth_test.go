package synth

import (
	"slices"
	"strings"
	"testing"
	"time"

	"pphcr/internal/asr"
	"pphcr/internal/content"
	"pphcr/internal/geo"
	"pphcr/internal/textclass"
	"pphcr/internal/trajectory"
)

func smallWorld(t *testing.T) *World {
	t.Helper()
	w, err := GenerateWorld(Params{
		Seed: 42, Days: 3, Users: 5, Stations: 4, PodcastsPerDay: 20,
		TrainingDocsPerCategory: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateWorldShape(t *testing.T) {
	w := smallWorld(t)
	if len(w.Personas) != 5 {
		t.Fatalf("personas = %d", len(w.Personas))
	}
	if got := len(w.Directory.Services()); got != 4 {
		t.Fatalf("services = %d", got)
	}
	if len(w.Corpus) != 3*20 {
		t.Fatalf("corpus = %d", len(w.Corpus))
	}
	if len(w.Training) != len(content.Categories)*10 {
		t.Fatalf("training = %d", len(w.Training))
	}
	if len(w.Vocab) != len(content.Categories) {
		t.Fatalf("vocab categories = %d", len(w.Vocab))
	}
}

func TestWorldDeterminism(t *testing.T) {
	p := Params{Seed: 7, Days: 2, Users: 3, Stations: 2, PodcastsPerDay: 10, TrainingDocsPerCategory: 5}
	a, err := GenerateWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Corpus {
		if a.Corpus[i].Speech != b.Corpus[i].Speech || a.Corpus[i].ID != b.Corpus[i].ID {
			t.Fatalf("corpus differs at %d", i)
		}
	}
	for i := range a.Personas {
		if a.Personas[i].Home != b.Personas[i].Home {
			t.Fatalf("persona %d home differs", i)
		}
	}
}

func TestVocabularyStructure(t *testing.T) {
	w := smallWorld(t)
	shared := map[string]bool{}
	for _, word := range w.SharedVocab {
		shared[word] = true
	}
	// Unique (non-shared) words must be disjoint across categories; a
	// controlled fraction of each vocabulary comes from the shared pool.
	seen := map[string]string{}
	for cat, words := range w.Vocab {
		sharedCount := 0
		for _, word := range words {
			if shared[word] {
				sharedCount++
				continue
			}
			if prev, dup := seen[word]; dup && prev != cat {
				t.Fatalf("unique word %q in both %q and %q", word, prev, cat)
			}
			seen[word] = cat
		}
		if sharedCount == 0 {
			t.Fatalf("category %q has no shared-pool words", cat)
		}
		if sharedCount >= len(words)/2 {
			t.Fatalf("category %q overwhelmed by shared words (%d/%d)", cat, sharedCount, len(words))
		}
	}
}

func TestScheduleCoverage(t *testing.T) {
	w := smallWorld(t)
	day := w.Params.StartDate
	// Every hour 06–24 must have a program on air on every service, and
	// hourly news must be non-replaceable.
	for _, svc := range w.Directory.Services() {
		for hour := 6; hour < 24; hour++ {
			at := day.Add(time.Duration(hour)*time.Hour + time.Minute)
			prog, err := w.Directory.ProgramAt(svc.ID, at)
			if err != nil {
				t.Fatalf("%s hour %d: %v", svc.ID, hour, err)
			}
			if prog.Replaceable {
				t.Fatalf("%s hour %d: news should not be replaceable", svc.ID, hour)
			}
			at2 := day.Add(time.Duration(hour)*time.Hour + 20*time.Minute)
			if _, err := w.Directory.ProgramAt(svc.ID, at2); err != nil {
				t.Fatalf("%s hour %d mid-hour: %v", svc.ID, hour, err)
			}
		}
	}
}

func TestPersonaInvariants(t *testing.T) {
	w := smallWorld(t)
	ids := map[string]bool{}
	for _, p := range w.Personas {
		if ids[p.Profile.UserID] {
			t.Fatalf("duplicate user ID %s", p.Profile.UserID)
		}
		ids[p.Profile.UserID] = true
		var sum float64
		for _, v := range p.TrueInterests {
			if v <= 0 {
				t.Fatalf("non-positive interest for %s", p.Profile.UserID)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("interests not normalized: %v", sum)
		}
		if len(p.TrueInterests) < 2 || len(p.TrueInterests) > 4 {
			t.Fatalf("interest count = %d", len(p.TrueInterests))
		}
		// Home outside ring, work downtown: they must differ by km.
		if d := geo.Distance(p.Home, p.Work); d < 2000 {
			t.Fatalf("commute too short: %v m", d)
		}
		if p.MorningHour < 7 || p.MorningHour > 8.5 {
			t.Fatalf("morning hour = %v", p.MorningHour)
		}
		if p.Profile.FavoriteService == "" {
			t.Fatal("no favorite service")
		}
	}
}

func TestCorpusProperties(t *testing.T) {
	w := smallWorld(t)
	geoCount := 0
	for _, raw := range w.Corpus {
		if raw.Duration < 3*time.Minute || raw.Duration > 12*time.Minute {
			t.Fatalf("duration out of range: %v", raw.Duration)
		}
		if len(raw.Speech) == 0 {
			t.Fatal("empty speech")
		}
		if raw.Geo != nil {
			geoCount++
			if raw.Geo.Radius < 500 || raw.Geo.Radius > 3000 {
				t.Fatalf("geo radius = %v", raw.Geo.Radius)
			}
		}
	}
	if geoCount == 0 {
		t.Fatal("no geo-scoped items generated")
	}
}

func TestCommuteTrace(t *testing.T) {
	w := smallWorld(t)
	p := w.Personas[0]
	day := w.Params.StartDate
	trace, route, err := w.CommuteTrace(p, day, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 5 {
		t.Fatalf("trace too short: %d fixes", len(trace))
	}
	// Trace starts near home and ends near work (noise ≤ 12 m, node
	// matching ≤ a block).
	if d := geo.Distance(trace[0].Point, p.Home); d > 50 {
		t.Fatalf("trace starts %v m from home", d)
	}
	if d := geo.Distance(trace[len(trace)-1].Point, p.Work); d > 50 {
		t.Fatalf("trace ends %v m from work", d)
	}
	// Timestamps strictly increasing.
	for i := 1; i < len(trace); i++ {
		if !trace[i].Time.After(trace[i-1].Time) {
			t.Fatal("timestamps not increasing")
		}
	}
	if route.Length <= 0 || route.TravelTime <= 0 {
		t.Fatalf("route = %+v", route)
	}
	// Same persona, same day ⇒ identical trace (deterministic).
	trace2, _, err := w.CommuteTrace(p, day, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace2) != len(trace) || trace2[3].Point != trace[3].Point {
		t.Fatal("commute trace not deterministic")
	}
	// Evening leg starts at work and ends at home or at the gym.
	evening, _, err := w.CommuteTrace(p, day, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := geo.Distance(evening[0].Point, p.Work); d > 50 {
		t.Fatalf("evening trace starts %v m from work", d)
	}
	end := evening[len(evening)-1].Point
	if geo.Distance(end, p.Home) > 50 && geo.Distance(end, p.Gym) > 50 {
		t.Fatalf("evening trace ends %v, neither home nor gym", end)
	}
}

// commutesByDay is the per-day loop callers wrote before Commutes
// existed, kept as the reference Commutes is held to.
func commutesByDay(t *testing.T, w *World, p *Persona, from time.Time, days int) trajectory.Trace {
	t.Helper()
	var all trajectory.Trace
	for d := 0; d < days; d++ {
		day := from.AddDate(0, 0, d)
		if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		for _, morning := range []bool{true, false} {
			trace, _, err := w.CommuteTrace(p, day, morning)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, trace...)
		}
	}
	return all
}

func TestCommutesMatchesPerDayLoop(t *testing.T) {
	w := smallWorld(t)
	p := w.Personas[0]
	for _, off := range []int{0, 5, 6} { // the world starts on a Monday
		from := w.Params.StartDate.AddDate(0, 0, off)
		for _, days := range []int{0, 1, 2, 14} {
			got, err := w.Commutes(p, from, days)
			if err != nil {
				t.Fatal(err)
			}
			if want := commutesByDay(t, w, p, from, days); !slices.Equal(got, want) {
				t.Fatalf("from %s, %d days: Commutes differs from the per-day loop (%d vs %d fixes)", from.Weekday(), days, len(got), len(want))
			}
		}
	}
}

func TestNextWeekday(t *testing.T) {
	monday := time.Date(2016, 11, 14, 8, 30, 0, 0, time.UTC)
	for d := 0; d < 7; d++ {
		day, want := monday.AddDate(0, 0, d), monday.AddDate(0, 0, d)
		if d >= 5 {
			want = monday.AddDate(0, 0, 7)
		}
		if got := NextWeekday(day); !got.Equal(want) {
			t.Errorf("NextWeekday(%s) = %s, want %s", day.Format("Mon 2006-01-02 15:04"), got.Format("Mon 2006-01-02 15:04"), want.Format("Mon 2006-01-02 15:04"))
		}
	}
}

func TestEveningDestinationDistribution(t *testing.T) {
	w := smallWorld(t)
	p := w.Personas[0]
	gymDays := 0
	const days = 200
	for d := 0; d < days; d++ {
		node, isGym := w.EveningDestination(p, w.Params.StartDate.AddDate(0, 0, d))
		if isGym && node != p.GymNode {
			t.Fatal("gym flag/node mismatch")
		}
		if !isGym && node != p.HomeNode {
			t.Fatal("home flag/node mismatch")
		}
		if isGym {
			gymDays++
		}
	}
	share := float64(gymDays) / days
	if share < 0.1 || share > 0.3 {
		t.Fatalf("gym share = %.2f, want ≈0.2", share)
	}
	// Deterministic per (persona, day).
	n1, g1 := w.EveningDestination(p, w.Params.StartDate)
	n2, g2 := w.EveningDestination(p, w.Params.StartDate)
	if n1 != n2 || g1 != g2 {
		t.Fatal("EveningDestination not deterministic")
	}
}

// TestPipelineLearnability is the end-to-end sanity check of the corpus
// design: a classifier trained on the synthetic training set must
// recover podcast categories through a noisy ASR channel well above
// chance (1/30).
func TestPipelineLearnability(t *testing.T) {
	w := smallWorld(t)
	var nb textclass.NaiveBayes
	if err := nb.Train(w.Training); err != nil {
		t.Fatal(err)
	}
	rec, err := asr.New(0.15, asr.DefaultErrorProfile(), w.FlatVocab, 3)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, raw := range w.Corpus {
		recognized := rec.TranscribeText(raw.Speech)
		pred, _, ok := nb.Classify(textclass.Tokenize(recognized))
		if !ok {
			t.Fatal("classifier not ok")
		}
		// The generator puts the true category as the first title word.
		total++
		if pred == strings.Fields(raw.Title)[0] {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Fatalf("pipeline accuracy %.2f too low at WER 0.15", acc)
	}
}
