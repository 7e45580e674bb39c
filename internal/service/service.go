// Package service provides the server-side background workers that glue
// the Fig 3 components together over the message broker, the way the
// paper's deployment used RabbitMQ: the tracking compactor consumes GPS
// ingestion events and periodically re-runs the compaction that keeps
// each listener's mobility model fresh ("the amount of GPS data ...
// requires to periodically process and simplify them", §1.2), and a
// second compactor bounds the feedback log the same way.
package service

import (
	"fmt"
	"time"

	"pphcr"
	"pphcr/internal/broker"
)

// fixesPerCompaction is the tracking Compactor's refresh period in
// fixes, roughly one commute leg.
const fixesPerCompaction = 100

// feedbackHorizon is how much recent history the live feedback log
// keeps.
const feedbackHorizon = 30 * 24 * time.Hour

// Compactor counts a broker queue's messages per user and compacts a
// user once their count reaches a threshold, then counts again from
// zero. Two run in the server: one re-compacts tracking data, the other
// folds old feedback.
type Compactor struct {
	queue   *broker.Queue
	every   int
	compact func(user string) (bool, error)
	pending map[string]int
}

func newCompactor(sys *pphcr.System, queue, topic string, every int, compact func(user string) (bool, error)) (*Compactor, error) {
	q, err := sys.Broker.Bind(queue, topic)
	if err != nil {
		return nil, fmt.Errorf("service: binding %s queue: %w", queue, err)
	}
	return &Compactor{queue: q, every: every, compact: compact, pending: make(map[string]int)}, nil
}

// NewCompactor re-compacts a user's tracking data after every
// fixesPerCompaction newly ingested fixes.
func NewCompactor(sys *pphcr.System) (*Compactor, error) {
	return newCompactor(sys, "service-compactor", "tracking.gps", fixesPerCompaction, func(user string) (bool, error) {
		_, err := sys.CompactTracking(user)
		return err == nil, err
	})
}

// NewFeedbackCompactor is the feedback-store sibling: once a listener has
// accumulated every new feedback events, it folds everything older than
// feedbackHorizon before now() into the user's baseline vector
// (System.CompactFeedback). Preference reads are unaffected — the
// incremental index already holds every event — the compaction only
// bounds the replayable log so per-user memory stops growing with
// history, mirroring the paper's periodic tracking compaction. A user
// counts as compacted only when something was folded.
func NewFeedbackCompactor(sys *pphcr.System, every int, now func() time.Time) (*Compactor, error) {
	return newCompactor(sys, "service-feedback-compactor", "feedback.#", every, func(user string) (bool, error) {
		return sys.CompactFeedback(user, now(), feedbackHorizon) > 0, nil
	})
}

// Poll drains the queue once and compacts every user whose counter
// reached the threshold, returning the users compacted in this pass.
// The counter resets whatever the outcome, so a compaction that failed
// (e.g. not enough data yet) or folded nothing is not retried per
// message; failures are reported but do not abort the pass.
func (c *Compactor) Poll() (compacted []string, errs []error) {
	for {
		msg, ok := c.queue.Pop()
		if !ok {
			break
		}
		c.pending[string(msg.Payload)]++
	}
	for user, n := range c.pending {
		if n < c.every {
			continue
		}
		c.pending[user] = 0
		ok, err := c.compact(user)
		if err != nil {
			errs = append(errs, fmt.Errorf("service: compacting %q: %w", user, err))
		}
		if ok {
			compacted = append(compacted, user)
		}
	}
	return compacted, errs
}

// Run polls whenever the broker signals new messages, and at least once
// a second, until stop is closed. Intended to run as a goroutine in the
// server binary.
func (c *Compactor) Run(stop <-chan struct{}) {
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
