// Package georelevance implements the paper's first future-work item
// (§3): "estimate the geographic relevance of audio items available in
// the archives", i.e. assign a GeoRelevance scope to items that were not
// editorially geo-tagged, by analyzing their (recognized) speech for
// place mentions.
//
// The estimator is gazetteer-based: a dictionary maps place names to
// coordinates; mentions found in a transcript vote for locations, and a
// sufficiently concentrated vote yields a geographic scope whose radius
// shrinks with the vote's confidence. This mirrors the structure of
// production toponym-resolution systems while staying self-contained.
package georelevance

import (
	"fmt"
	"sort"
	"strings"

	"pphcr/internal/content"
	"pphcr/internal/geo"
	"pphcr/internal/textclass"
)

// Place is a gazetteer entry.
type Place struct {
	Name   string // lowercase token, as it appears in transcripts
	Center geo.Point
	// Radius is the place's own extent in meters (a square, a district,
	// a whole town).
	Radius float64
}

// Estimator resolves place mentions in transcripts to geographic scopes.
type Estimator struct {
	// MinMentions is the minimum number of place-name tokens required
	// before an item is considered geographically scoped at all.
	MinMentions int
	// MinShare is the minimum fraction of mentions the winning place
	// must hold — scattered mentions of many places mean the item is
	// *about geography*, not *about a place*.
	MinShare float64

	byName map[string]Place
}

// NewEstimator builds an estimator over a gazetteer. Place names are
// matched case-insensitively as single tokens.
func NewEstimator(gazetteer []Place) (*Estimator, error) {
	if len(gazetteer) == 0 {
		return nil, fmt.Errorf("georelevance: empty gazetteer")
	}
	e := &Estimator{
		MinMentions: 2,
		MinShare:    0.5,
		byName:      make(map[string]Place, len(gazetteer)),
	}
	for _, p := range gazetteer {
		name := strings.ToLower(p.Name)
		if name == "" || p.Radius <= 0 {
			return nil, fmt.Errorf("georelevance: invalid place %+v", p)
		}
		if _, dup := e.byName[name]; dup {
			return nil, fmt.Errorf("georelevance: duplicate place %q", name)
		}
		e.byName[name] = p
	}
	return e, nil
}

// Mention is one resolved place reference.
type Mention struct {
	Place Place
	Count int
}

// Mentions extracts and tallies the gazetteer places referenced by the
// transcript, most-mentioned first.
func (e *Estimator) Mentions(transcript string) []Mention {
	counts := make(map[string]int)
	for _, tok := range textclass.Tokenize(transcript) {
		if _, ok := e.byName[tok]; ok {
			counts[tok]++
		}
	}
	out := make([]Mention, 0, len(counts))
	for name, n := range counts {
		out = append(out, Mention{Place: e.byName[name], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Place.Name < out[j].Place.Name
	})
	return out
}

// Estimate returns the inferred geographic scope of a transcript, or
// (nil, reason) when the item should stay globally relevant. The radius
// starts from the winning place's own extent and widens when competing
// mentions dilute the vote.
//
// Estimate an item's scope before it is added to a content.Repository
// (Item.Geo, or RawPodcast.Geo before ingest): an added item is
// immutable, and the repository indexes its scope once, at Add.
func (e *Estimator) Estimate(transcript string) (*content.GeoRelevance, string) {
	mentions := e.Mentions(transcript)
	if len(mentions) == 0 {
		return nil, "no place mentions"
	}
	total := 0
	for _, m := range mentions {
		total += m.Count
	}
	top := mentions[0]
	if total < e.MinMentions {
		return nil, fmt.Sprintf("only %d place mention(s)", total)
	}
	share := float64(top.Count) / float64(total)
	if share < e.MinShare {
		return nil, fmt.Sprintf("mentions scattered over %d places (top share %.2f)", len(mentions), share)
	}
	// Confidence widens or tightens the scope: a unanimous vote keeps the
	// place's own radius; a bare majority doubles it.
	radius := top.Place.Radius * (2 - share)
	return &content.GeoRelevance{Center: top.Place.Center, Radius: radius}, ""
}
