// Package client simulates the PPHCR Android app and the listener behind
// it (§1.3): playback sessions that emit the implicit and explicit
// feedback stream — periodic positive signals while listening, a negative
// signal per skip, and like/dislike presses. The behaviour model turns a
// listener's (hidden) true interests into observable actions, which is
// what the listening-behaviour experiments (Q2) replay.
package client

import (
	"math"
	"math/rand"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/feedback"
)

// Listener is one simulated user with hidden ground-truth tastes.
type Listener struct {
	UserID string
	// TrueInterests is the listener's actual category affinity — the
	// generative truth the recommender tries to learn from feedback.
	TrueInterests map[string]float64
	// SkipThreshold is the affinity below which the listener skips after
	// sampling the content.
	SkipThreshold float64
	// SampleTime is how long the listener gives an uninteresting content
	// before skipping.
	SampleTime time.Duration
	// LikeProbability scales how often a satisfied listener presses the
	// explicit like button.
	LikeProbability float64
	// ImplicitPeriod is how often the app emits an implicit positive
	// signal while listening (§1.3 "periodically sent").
	ImplicitPeriod time.Duration

	rng *rand.Rand
}

// NewListener returns a listener with the given hidden tastes and
// behaviour defaults matching the demo app: 45 s sampling patience,
// implicit feedback every 60 s.
func NewListener(userID string, trueInterests map[string]float64, seed int64) *Listener {
	return &Listener{
		UserID:          userID,
		TrueInterests:   trueInterests,
		SkipThreshold:   0.35,
		SampleTime:      45 * time.Second,
		LikeProbability: 0.4,
		ImplicitPeriod:  time.Minute,
		rng:             rand.New(rand.NewSource(seed)),
	}
}

// Affinity returns the listener's true interest in the item: the cosine
// between hidden tastes and the item's category distribution, clamped to
// [0, 1].
func (l *Listener) Affinity(it *content.Item) float64 {
	var dot, na, nb float64
	for _, v := range l.TrueInterests {
		na += v * v
	}
	for c, w := range it.Weights() {
		nb += w * w
		if v, ok := l.TrueInterests[c]; ok {
			dot += v * w
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	cos := dot / math.Sqrt(na) / math.Sqrt(nb)
	if cos < 0 {
		return 0
	}
	return cos
}

// Outcome summarizes one playback of one content.
type Outcome struct {
	// Listened is how long the listener actually stayed on the content.
	Listened time.Duration
	// Skipped reports a skip action (before the content's end).
	Skipped bool
	// Events is the feedback the app sent during playback.
	Events []feedback.Event
}

// Play simulates the listener consuming the item starting at instant
// start, emitting the app's feedback stream. Like the app's, the events
// name the item and carry no categories: for an item the catalog holds,
// they mean its own (feedback.Event).
func (l *Listener) Play(it *content.Item, start time.Time) Outcome {
	aff := l.Affinity(it)
	interested := aff >= l.SkipThreshold
	var out Outcome
	if !interested {
		// Sample then skip (with a little impatience jitter).
		sample := l.SampleTime + time.Duration(l.rng.Int63n(int64(30*time.Second)))
		if sample > it.Duration {
			sample = it.Duration
		}
		out.Listened = sample
		// A skip only happens if the content did not end first.
		if sample < it.Duration {
			out.Skipped = true
			out.Events = append(out.Events, feedback.Event{
				UserID: l.UserID, ItemID: it.ID, Kind: feedback.Skip,
				At: start.Add(sample),
			})
			// Strong mismatch occasionally triggers an explicit dislike.
			if aff < 0.05 && l.rng.Float64() < 0.15 {
				out.Events = append(out.Events, feedback.Event{
					UserID: l.UserID, ItemID: it.ID, Kind: feedback.Dislike,
					At: start.Add(sample),
				})
			}
		}
		return out
	}
	// Interested: listen through, emitting periodic implicit positives.
	out.Listened = it.Duration
	period := l.ImplicitPeriod
	if period <= 0 {
		period = time.Minute
	}
	for t := period; t <= it.Duration; t += period {
		out.Events = append(out.Events, feedback.Event{
			UserID: l.UserID, ItemID: it.ID, Kind: feedback.ImplicitListen,
			At: start.Add(t),
		})
	}
	if len(out.Events) == 0 {
		// Short content still yields one positive signal at its end.
		out.Events = append(out.Events, feedback.Event{
			UserID: l.UserID, ItemID: it.ID, Kind: feedback.ImplicitListen,
			At: start.Add(it.Duration),
		})
	}
	if l.rng.Float64() < l.LikeProbability*aff {
		out.Events = append(out.Events, feedback.Event{
			UserID: l.UserID, ItemID: it.ID, Kind: feedback.Like,
			At: start.Add(it.Duration),
		})
	}
	return out
}
