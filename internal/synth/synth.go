// Package synth generates the synthetic world the experiments run on.
// The paper's deployment sits on proprietary Rai assets — live streams,
// >100 daily editorial podcasts, real listener GPS traces. None of those
// are redistributable, so this package produces statistically plausible
// substitutes with the properties the algorithms actually exploit:
//
//   - a city road network with junctions (package roadnet),
//   - personas with hidden category tastes and repeated home↔work
//     commutes with GPS noise,
//   - 10 radio services with daily schedules (hourly fixed news, the
//     rest replaceable),
//   - a daily podcast corpus with per-category vocabularies, so the
//     ASR→Bayes pipeline has real signal to recover,
//   - a labeled training corpus for the classifier.
//
// Everything is deterministic given Params.Seed.
package synth

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/geo"
	"pphcr/internal/profile"
	"pphcr/internal/radiodns"
	"pphcr/internal/roadnet"
	"pphcr/internal/textclass"
	"pphcr/internal/trajectory"
)

// Params sizes the generated world.
type Params struct {
	Seed           int64
	StartDate      time.Time // defaults to Mon 2016-11-14 (paper epoch)
	Days           int       // defaults to 14
	Users          int       // defaults to 20
	Stations       int       // defaults to 10 (the paper's Radio Rai count)
	PodcastsPerDay int       // defaults to 100 ("more than 100 podcasts created every day")
	// TrainingDocsPerCategory sizes the classifier training corpus.
	TrainingDocsPerCategory int // defaults to 30
}

func (p Params) withDefaults() Params {
	if p.StartDate.IsZero() {
		p.StartDate = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)
	}
	if p.Days <= 0 {
		p.Days = 14
	}
	if p.Users <= 0 {
		p.Users = 20
	}
	if p.Stations <= 0 {
		p.Stations = 10
	}
	if p.PodcastsPerDay <= 0 {
		p.PodcastsPerDay = 100
	}
	if p.TrainingDocsPerCategory <= 0 {
		p.TrainingDocsPerCategory = 30
	}
	return p
}

// Persona is one synthetic listener.
type Persona struct {
	Profile profile.Profile
	// TrueInterests is the hidden taste vector (normalized, positive).
	TrueInterests map[string]float64
	Home, Work    geo.Point
	HomeNode      roadnet.NodeID
	WorkNode      roadnet.NodeID
	// Gym is the occasional evening destination (≈20% of weekday
	// evenings), giving destination prediction genuine uncertainty.
	Gym     geo.Point
	GymNode roadnet.NodeID
	// MorningHour / EveningHour are mean departure hours (fractional).
	MorningHour float64
	EveningHour float64
	// Seed drives the persona's private randomness (behaviour, jitter).
	Seed int64
}

// World is the generated environment.
type World struct {
	Params    Params
	City      *roadnet.City
	Directory *radiodns.Directory
	// Corpus is the raw podcast stream over all days, day by day; within
	// a day it is not in publish order (LastPublished reads the latest).
	Corpus []content.RawPodcast
	// Training is the labeled classifier training set.
	Training []textclass.Document
	// Vocab is the full per-category vocabulary (for ASR confusions).
	// Each category mixes words unique to it with words from the shared
	// pool, so categories overlap lexically as real editorial topics do.
	Vocab map[string][]string
	// SharedVocab is the cross-category word pool.
	SharedVocab []string
	// FlatVocab is every word (for seeding the recognizer).
	FlatVocab []string
	Personas  []*Persona
}

// stationGenres gives each synthetic service an editorial identity, so
// schedules and favorite-station choices are coherent.
var stationGenres = [][]string{
	{"politics", "international", "economics"}, // radio1: news talk
	{"culture", "literature", "theatre"},       // radio2
	{"music", "comedy", "society"},             // radio3
	{"sport", "regional"},                      // radio4
	{"food", "travel", "health"},               // radio5
	{"technology", "science", "education"},     // radio6
	{"cinema", "art", "fashion"},               // radio7
	{"history", "documentary", "religion"},     // radio8
	{"finance", "business"},                    // radio9
	{"environment", "weather", "interviews"},   // radio10
}

// GenerateWorld builds the world deterministically from params.
func GenerateWorld(params Params) (*World, error) {
	params = params.withDefaults()
	rng := rand.New(rand.NewSource(params.Seed))
	w := &World{
		Params:    params,
		City:      roadnet.GenerateCity(roadnet.CityParams{}),
		Directory: radiodns.NewDirectory(),
		Vocab:     make(map[string][]string),
	}
	// Vocabulary: 28 words unique to each category plus 12 drawn from a
	// shared pool of 60 general-news words. The shared words blur
	// category boundaries, keeping the classification task non-trivial.
	w.SharedVocab = categoryVocab("comune", 60)
	for ci, cat := range content.Categories {
		words := categoryVocab(cat, 28)
		for k := 0; k < 12; k++ {
			words = append(words, w.SharedVocab[(ci*7+k*5)%len(w.SharedVocab)])
		}
		w.Vocab[cat] = words
		w.FlatVocab = append(w.FlatVocab, w.Vocab[cat]...)
	}
	w.generateTraining(rng)
	if err := w.generateStations(rng); err != nil {
		return nil, err
	}
	w.generateCorpus(rng)
	w.generatePersonas(rng)
	return w, nil
}

// categoryVocab derives a deterministic pseudo-Italian vocabulary for a
// category. Words embed the full category name so that debugging output
// is self-describing and vocabularies stay disjoint across categories
// (no category name is a prefix of another).
func categoryVocab(cat string, size int) []string {
	syllables := []string{"ra", "mi", "to", "ne", "la", "vi", "co", "se", "du", "pa"}
	out := make([]string, size)
	for i := 0; i < size; i++ {
		var sb strings.Builder
		sb.WriteString(cat)
		n := i
		for k := 0; k < 3; k++ {
			sb.WriteString(syllables[n%len(syllables)])
			n /= len(syllables)
		}
		out[i] = sb.String()
	}
	return out
}

// sampleSpeech draws n words: mostly category vocabulary, salted with
// stopwords and cross-category noise like real speech.
func (w *World) sampleSpeech(rng *rand.Rand, cat string, n int) string {
	vocab := w.Vocab[cat]
	stop := textclass.Stopwords()
	words := make([]string, n)
	for i := range words {
		r := rng.Float64()
		switch {
		case r < 0.70:
			words[i] = vocab[rng.Intn(len(vocab))]
		case r < 0.90:
			words[i] = stop[rng.Intn(len(stop))]
		default:
			words[i] = w.FlatVocab[rng.Intn(len(w.FlatVocab))]
		}
	}
	return strings.Join(words, " ")
}

func (w *World) generateTraining(rng *rand.Rand) {
	for _, cat := range content.Categories {
		for d := 0; d < w.Params.TrainingDocsPerCategory; d++ {
			text := w.sampleSpeech(rng, cat, 60)
			w.Training = append(w.Training, textclass.Document{
				Tokens:   textclass.Tokenize(text),
				Category: cat,
			})
		}
	}
}

func (w *World) generateStations(rng *rand.Rand) error {
	for s := 0; s < w.Params.Stations; s++ {
		id := fmt.Sprintf("radio%d", s+1)
		svc := &radiodns.Service{
			ID:          id,
			Name:        fmt.Sprintf("Rai Radio %d (synthetic)", s+1),
			GCC:         "5e0",
			PI:          fmt.Sprintf("52%02x", s+1),
			Frequency:   8750 + s*40,
			StreamURL:   "http://stream.pphcr.local/" + id,
			BitrateKbps: 96,
		}
		if err := w.Directory.AddService(svc); err != nil {
			return err
		}
		genres := stationGenres[s%len(stationGenres)]
		if err := w.generateSchedule(rng, id, genres); err != nil {
			return err
		}
	}
	return nil
}

// generateSchedule lays out each day 06:00–24:00: a fixed (non
// replaceable) news bulletin on every hour, the gaps filled with
// replaceable programs in the station's genres. The schedule extends a
// week past Params.Days so that held-out evaluation days (the listening
// simulations replay "next week") still have programming.
func (w *World) generateSchedule(rng *rand.Rand, serviceID string, genres []string) error {
	durations := []time.Duration{10 * time.Minute, 15 * time.Minute, 20 * time.Minute, 25 * time.Minute}
	progID := 0
	for d := 0; d < w.Params.Days+7; d++ {
		day := w.Params.StartDate.AddDate(0, 0, d)
		for hour := 6; hour < 24; hour++ {
			hourStart := day.Add(time.Duration(hour) * time.Hour)
			news := &radiodns.Program{
				ID:        fmt.Sprintf("%s-d%d-h%d-news", serviceID, d, hour),
				ServiceID: serviceID,
				Title:     "GR News",
				Start:     hourStart,
				Duration:  5 * time.Minute,
				Categories: map[string]float64{
					"politics": 0.5, "international": 0.3, "regional": 0.2,
				},
				Replaceable: false,
			}
			if err := w.Directory.AddProgram(news); err != nil {
				return err
			}
			cursor := hourStart.Add(5 * time.Minute)
			hourEnd := hourStart.Add(time.Hour)
			for cursor.Before(hourEnd) {
				dur := durations[rng.Intn(len(durations))]
				if remaining := hourEnd.Sub(cursor); dur > remaining {
					dur = remaining
				}
				genre := genres[rng.Intn(len(genres))]
				progID++
				p := &radiodns.Program{
					ID:          fmt.Sprintf("%s-p%06d", serviceID, progID),
					ServiceID:   serviceID,
					Title:       fmt.Sprintf("%s show %d", genre, progID),
					Start:       cursor,
					Duration:    dur,
					Categories:  map[string]float64{genre: 0.8, genres[0]: 0.2},
					Replaceable: true,
				}
				if err := w.Directory.AddProgram(p); err != nil {
					return err
				}
				cursor = cursor.Add(dur)
			}
		}
	}
	return nil
}

func (w *World) generateCorpus(rng *rand.Rand) {
	cats := content.Categories
	for d := 0; d < w.Params.Days; d++ {
		day := w.Params.StartDate.AddDate(0, 0, d)
		for i := 0; i < w.Params.PodcastsPerDay; i++ {
			cat := cats[rng.Intn(len(cats))]
			dur := time.Duration(3+rng.Intn(10)) * time.Minute
			published := day.Add(5*time.Hour + time.Duration(rng.Intn(15*3600))*time.Second)
			raw := content.RawPodcast{
				ID:        fmt.Sprintf("pod-d%02d-%04d", d, i),
				Title:     fmt.Sprintf("%s podcast %d/%d", cat, d, i),
				Program:   programNameFor(cat),
				Duration:  dur,
				Published: published,
				Speech:    w.sampleSpeech(rng, cat, 120),
				Kind:      content.KindClip,
			}
			if cat == "politics" || cat == "international" || cat == "regional" {
				raw.Kind = content.KindNews
			}
			// ~12% of items are geo-scoped (local news, venue stories):
			// anchor them near a random ring roundabout or grid point.
			if rng.Float64() < 0.12 {
				anchor := w.randomCityPoint(rng)
				raw.Geo = &content.GeoRelevance{
					Center: anchor,
					Radius: 500 + rng.Float64()*2500,
				}
			}
			w.Corpus = append(w.Corpus, raw)
		}
	}
}

// LastPublished is the latest publish instant in the corpus, the zero
// time for an empty one.
func (w *World) LastPublished() time.Time {
	var last time.Time
	for _, raw := range w.Corpus {
		if raw.Published.After(last) {
			last = raw.Published
		}
	}
	return last
}

// programNameFor gives podcasts plausible editorial program names; the
// food program is "Decanter", as in the paper's Lilly scenario.
func programNameFor(cat string) string {
	switch cat {
	case "food":
		return "Decanter"
	case "technology":
		return "Wikiradio" // Greg's favorite in §2.1.1
	case "comedy":
		return "The rabbit's roar"
	default:
		return strings.ToUpper(cat[:1]) + cat[1:] + " Magazine"
	}
}

func (w *World) randomCityPoint(rng *rand.Rand) geo.Point {
	g := w.City.Graph
	id := roadnet.NodeID(rng.Intn(g.NumNodes()))
	return g.Node(id).Point
}

func (w *World) generatePersonas(rng *rand.Rand) {
	cats := content.Categories
	for u := 0; u < w.Params.Users; u++ {
		// Hidden tastes: 2–4 categories, normalized.
		k := 2 + rng.Intn(3)
		interests := make(map[string]float64, k)
		var names []string
		for len(interests) < k {
			c := cats[rng.Intn(len(cats))]
			if _, dup := interests[c]; dup {
				continue
			}
			interests[c] = 0.5 + rng.Float64()
			names = append(names, c)
		}
		var norm float64
		for _, v := range interests {
			norm += v
		}
		for c := range interests {
			interests[c] /= norm
		}
		// Home in a suburb, work downtown, gym on the grid border.
		homePt := w.City.RandomSuburb(rng.Float64()*360, 200+rng.Float64()*1500)
		homeNode := w.City.Graph.NearestNode(homePt)
		rows := len(w.City.GridNodes)
		cols := len(w.City.GridNodes[0])
		workNode := w.City.GridNodes[1+rng.Intn(rows-2)][1+rng.Intn(cols-2)]
		gymNode := w.City.GridNodes[0][1+rng.Intn(cols-2)]
		persona := &Persona{
			Profile: profile.Profile{
				UserID:          fmt.Sprintf("user-%03d", u),
				Name:            fmt.Sprintf("Listener %03d", u),
				Age:             20 + rng.Intn(45),
				Hometown:        w.City.Graph.Node(homeNode).Point,
				Interests:       names,
				FavoriteService: w.favoriteStation(names),
			},
			TrueInterests: interests,
			Home:          w.City.Graph.Node(homeNode).Point,
			Work:          w.City.Graph.Node(workNode).Point,
			Gym:           w.City.Graph.Node(gymNode).Point,
			HomeNode:      homeNode,
			WorkNode:      workNode,
			GymNode:       gymNode,
			MorningHour:   7.2 + rng.Float64()*1.2,
			EveningHour:   17.0 + rng.Float64()*1.5,
			Seed:          w.Params.Seed*1000 + int64(u),
		}
		w.Personas = append(w.Personas, persona)
	}
}

// favoriteStation picks the service whose genres best overlap the
// interests.
func (w *World) favoriteStation(interests []string) string {
	best, bestScore := "radio1", -1
	for s := 0; s < w.Params.Stations; s++ {
		genres := stationGenres[s%len(stationGenres)]
		score := 0
		for _, g := range genres {
			for _, i := range interests {
				if g == i {
					score++
				}
			}
		}
		if score > bestScore {
			best, bestScore = fmt.Sprintf("radio%d", s+1), score
		}
	}
	return best
}

// EveningDestination returns where the persona heads after work on the
// given day: usually home, but on ≈20% of days the gym. Deterministic
// per (persona, day).
func (w *World) EveningDestination(p *Persona, day time.Time) (roadnet.NodeID, bool) {
	rng := rand.New(rand.NewSource(p.Seed ^ day.Unix() ^ 0x5ca1ab1e))
	if rng.Float64() < 0.2 {
		return p.GymNode, true
	}
	return p.HomeNode, false
}

// Commutes is the persona's commute history over the `days` days
// starting at from: the morning leg, then the evening leg, of every
// weekday, in time order. Weekends carry no commute.
func (w *World) Commutes(p *Persona, from time.Time, days int) (trajectory.Trace, error) {
	var all trajectory.Trace
	for d := 0; d < days; d++ {
		day := from.AddDate(0, 0, d)
		if weekend(day) {
			continue
		}
		for _, morning := range []bool{true, false} {
			var err error
			if all, _, err = w.appendCommute(all, p, day, morning); err != nil {
				return nil, err
			}
		}
	}
	return all, nil
}

// NextWeekday returns t if it falls on a weekday, otherwise the
// following Monday at the same clock time: the first day with a commute.
func NextWeekday(t time.Time) time.Time {
	for weekend(t) {
		t = t.AddDate(0, 0, 1)
	}
	return t
}

func weekend(t time.Time) bool {
	wd := t.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// CommuteTrace generates the GPS trace of one commute leg on the given
// day: the road-network shortest path traversed with per-day speed
// variation and per-fix GPS noise, sampled every ~30 s. Evening legs go
// to EveningDestination (home or, occasionally, the gym).
func (w *World) CommuteTrace(p *Persona, day time.Time, morning bool) (trajectory.Trace, roadnet.Route, error) {
	return w.appendCommute(nil, p, day, morning)
}

// appendCommute is CommuteTrace appending the leg's fixes to trace, so
// Commutes builds a history without a slice per leg.
func (w *World) appendCommute(trace trajectory.Trace, p *Persona, day time.Time, morning bool) (trajectory.Trace, roadnet.Route, error) {
	from, to := p.HomeNode, p.WorkNode
	hour := p.MorningHour
	if !morning {
		from = p.WorkNode
		to, _ = w.EveningDestination(p, day)
		hour = p.EveningHour
	}
	route, err := w.City.Graph.ShortestPath(from, to)
	if err != nil {
		return nil, roadnet.Route{}, err
	}
	// Per-day, per-leg deterministic jitter.
	legSeed := p.Seed ^ day.Unix()
	if morning {
		legSeed ^= 0x5bd1e995
	}
	rng := rand.New(rand.NewSource(legSeed))
	depart := day.Add(time.Duration((hour + rng.NormFloat64()*0.15) * float64(time.Hour)))
	speedFactor := 0.85 + rng.Float64()*0.35 // traffic conditions
	duration := time.Duration(float64(route.TravelTime) / speedFactor)

	const fixInterval = 30 * time.Second
	walk := route.Polyline.Sampler()
	for t := time.Duration(0); ; t += fixInterval {
		if t > duration {
			t = duration
		}
		frac := float64(t) / float64(duration)
		pt := walk.At(frac)
		pt = geo.Destination(pt, rng.Float64()*360, rng.Float64()*12) // GPS noise ≤12 m
		trace = append(trace, trajectory.Fix{Point: pt, Time: depart.Add(t)})
		if t == duration {
			break
		}
	}
	return trace, route, nil
}
