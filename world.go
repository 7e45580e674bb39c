package pphcr

import (
	"pphcr/internal/content"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// NewWorld is New fed by a synthetic world, which stands in for the
// broadcaster's classifier training set, station schedules and podcast
// corpus: the System trains on the world's documents, seeds its
// recognizer with the world's vocabulary and seed, and serves the
// world's broadcast directory, which holds every program the world
// schedules. The corpus and the listeners are the caller's to load
// (IngestAll, RegisterUser, RecordTrace).
func NewWorld(w *synth.World, seed int64) (*System, error) {
	s, err := New(Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: seed})
	if err != nil {
		return nil, err
	}
	s.Directory = w.Directory
	return s, nil
}

// IngestAll ingests raws in order through IngestPodcast and stops at
// the first error.
func (s *System) IngestAll(raws []content.RawPodcast) error {
	for _, raw := range raws {
		if _, err := s.IngestPodcast(raw); err != nil {
			return err
		}
	}
	return nil
}

// RecordTrace records the trace's fixes for userID in order through
// RecordFix and stops at the first error.
func (s *System) RecordTrace(userID string, trace trajectory.Trace) error {
	for _, fix := range trace {
		if err := s.RecordFix(userID, fix); err != nil {
			return err
		}
	}
	return nil
}
