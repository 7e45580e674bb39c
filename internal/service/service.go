// Package service provides the server-side background workers that glue
// the Fig 3 components together over the message broker, the way the
// paper's deployment used RabbitMQ: the tracking compactor consumes GPS
// ingestion events and periodically re-runs the compaction that keeps
// each listener's mobility model fresh ("the amount of GPS data ...
// requires to periodically process and simplify them", §1.2).
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

// Compactor re-compacts a user's tracking data after every
// fixesPerCompaction newly ingested fixes.
type Compactor struct {
	sys     *pphcr.System
	queue   *broker.Queue
	pending map[string]int
}

// NewCompactor binds the worker's queue on the system broker.
func NewCompactor(sys *pphcr.System) (*Compactor, error) {
	q, err := sys.Broker.Bind("service-compactor", "tracking.gps")
	if err != nil {
		return nil, fmt.Errorf("service: binding compactor queue: %w", err)
	}
	return &Compactor{sys: sys, queue: q, pending: make(map[string]int)}, nil
}

// Poll drains the queue once and compacts every user whose new-fix
// counter reached the threshold. It returns the users compacted in this
// pass. Compaction failures (e.g. not enough data yet) reset the
// counter and are reported but do not abort the pass.
func (c *Compactor) Poll() (compacted []string, errs []error) {
	for {
		msg, ok := c.queue.Pop()
		if !ok {
			break
		}
		c.pending[string(msg.Payload)]++
	}
	for user, n := range c.pending {
		if n < fixesPerCompaction {
			continue
		}
		c.pending[user] = 0
		if _, err := c.sys.CompactTracking(user); err != nil {
			errs = append(errs, fmt.Errorf("service: compacting %q: %w", user, err))
			continue
		}
		compacted = append(compacted, user)
	}
	return compacted, errs
}

// Run polls whenever the broker signals new messages, until stop is
// closed. Intended to run as a goroutine in the server binary.
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
