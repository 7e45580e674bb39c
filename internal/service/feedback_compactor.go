package service

import (
	"fmt"
	"time"

	"pphcr"
	"pphcr/internal/broker"
)

// FeedbackCompactor is the feedback-store sibling of the tracking
// Compactor: it consumes feedback ingestion events off the broker and,
// once a listener has accumulated EventsPerCompaction new events, folds
// everything older than feedbackHorizon into the user's baseline vector
// (System.CompactFeedback). Preference reads are unaffected — the
// incremental index already holds every event — the compaction only
// bounds the replayable log so per-user memory stops growing with
// history, mirroring the paper's periodic tracking compaction.
type FeedbackCompactor struct {
	// EventsPerCompaction is the refresh period in events (default 512).
	EventsPerCompaction int
	// Now supplies the compaction clock; the server anchors it to the
	// synthetic world's timeline. nil means time.Now.
	Now func() time.Time

	sys     *pphcr.System
	queue   *broker.Queue
	pending map[string]int
}

// feedbackHorizon is how much recent history the live feedback log
// keeps.
const feedbackHorizon = 30 * 24 * time.Hour

// NewFeedbackCompactor binds the worker's queue on the system broker.
func NewFeedbackCompactor(sys *pphcr.System) (*FeedbackCompactor, error) {
	q, err := sys.Broker.Bind("service-feedback-compactor", "feedback.#")
	if err != nil {
		return nil, fmt.Errorf("service: binding feedback compactor queue: %w", err)
	}
	return &FeedbackCompactor{
		EventsPerCompaction: 512,
		Now:                 time.Now,
		sys:                 sys,
		queue:               q,
		pending:             make(map[string]int),
	}, nil
}

// Poll drains the queue once and compacts every user whose new-event
// counter reached the threshold, returning the users compacted in this
// pass. A compaction that folds nothing (all events inside the horizon)
// still resets the counter so the store is not rescanned per event.
func (c *FeedbackCompactor) Poll() (compacted []string) {
	for {
		msg, ok := c.queue.Pop()
		if !ok {
			break
		}
		c.pending[string(msg.Payload)]++
	}
	now := c.Now()
	for user, n := range c.pending {
		if n < c.EventsPerCompaction {
			continue
		}
		c.pending[user] = 0
		if c.sys.CompactFeedback(user, now, feedbackHorizon) > 0 {
			compacted = append(compacted, user)
		}
	}
	return compacted
}

// Run polls whenever the broker signals new messages, until stop is
// closed. Intended to run as a goroutine in the server binary, next to
// the tracking Compactor and the Warmer.
func (c *FeedbackCompactor) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-c.queue.Notify():
		case <-ticker.C:
		}
		c.Poll()
	}
}
