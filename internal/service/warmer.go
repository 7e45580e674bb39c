package service

import (
	"fmt"
	"time"

	"pphcr"
	"pphcr/internal/precompute"
)

// Warmer is the plan-warming background worker, the proactive sibling of
// the Compactor: where the Compactor keeps each listener's mobility model
// fresh, the Warmer keeps the plan cache populated with the trips those
// models predict, so PlanTrip answers from a warm entry. It wraps the
// precompute scheduler in the same Run worker shape the rest of the
// service layer uses.
type Warmer struct {
	sched *precompute.Scheduler
}

// NewWarmer binds the warmer's queues on the system broker. cfg zero
// values take the precompute defaults; cfg.Now anchors the scheduling
// clock (the server passes a world-anchored clock for synthetic
// deployments).
func NewWarmer(sys *pphcr.System, cfg precompute.Config) (*Warmer, error) {
	sched, err := precompute.New(sys, cfg)
	if err != nil {
		return nil, fmt.Errorf("service: building warmer: %w", err)
	}
	return &Warmer{sched: sched}, nil
}

// Prewarm enumerates and executes warm jobs for every user with a
// mobility model, synchronously — the server calls it once at startup so
// the cache is hot before the first request. The queue is drained after
// each user so a large population cannot overflow the bounded job queue
// (overflow drops jobs silently, leaving those users cold).
func (w *Warmer) Prewarm(sys *pphcr.System, at time.Time) int {
	warmed := 0
	for _, u := range sys.MobilityUsers() {
		w.sched.WarmUser(u, at)
		warmed += w.sched.Drain()
	}
	return warmed
}

// Run starts the scheduler's worker pool and event loop until stop is
// closed. Intended to run as a goroutine in the server binary, alongside
// Compactor.Run.
func (w *Warmer) Run(stop <-chan struct{}) {
	w.sched.Run(stop)
}

// Stats snapshots the warming counters.
func (w *Warmer) Stats() precompute.Stats { return w.sched.Stats() }
