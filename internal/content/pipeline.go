package content

import (
	"fmt"
	"time"

	"pphcr/internal/asr"
	"pphcr/internal/textclass"
)

// RawPodcast is an editorial podcast as delivered by the broadcaster,
// before classification: audio plus its (ground-truth) speech content.
type RawPodcast struct {
	ID        string
	Title     string
	Program   string
	Duration  time.Duration
	Published time.Time
	// Speech is the spoken content; in the real system this exists only
	// as audio and is recovered by the recognizer.
	Speech string
	Geo    *GeoRelevance
	Kind   Kind
}

// Pipeline is the clip-data-management ingestion path of Fig 3: speech →
// ASR → tokenization → Bayesian classification → repository. The
// classifier must be trained before use.
type Pipeline struct {
	Recognizer *asr.Recognizer
	Classifier *textclass.NaiveBayes
	Repo       *Repository
}

// Process runs the recognition + classification stages without storing
// the result — the caller decides when the item becomes visible (the
// durability layer logs it to the WAL first, so the log can never order
// a reference to the item ahead of its creation).
func (p *Pipeline) Process(raw RawPodcast) (*Item, error) {
	if p.Recognizer == nil || p.Classifier == nil || p.Repo == nil {
		return nil, fmt.Errorf("content: pipeline not fully wired")
	}
	recognized := p.Recognizer.TranscribeText(raw.Speech)
	tokens := textclass.Tokenize(recognized)
	dist := p.Classifier.Distribution(tokens)
	if dist == nil {
		return nil, fmt.Errorf("content: classifier untrained")
	}
	// Keep only the meaningful mass: categories below 1% are noise from
	// smoothing and would pollute the preference dot products.
	pruned := make(map[string]float64)
	var kept float64
	for c, w := range dist {
		if w >= 0.01 {
			pruned[c] = w
			kept += w
		}
	}
	if kept > 0 {
		for c := range pruned {
			pruned[c] /= kept
		}
	}
	it := &Item{
		ID:          raw.ID,
		Title:       raw.Title,
		Program:     raw.Program,
		Kind:        raw.Kind,
		Duration:    raw.Duration,
		Published:   raw.Published,
		Categories:  pruned,
		Geo:         raw.Geo,
		BitrateKbps: 96,
	}
	return it, nil
}
