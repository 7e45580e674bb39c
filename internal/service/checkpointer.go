package service

import (
	"fmt"
	"log/slog"
	"time"

	"pphcr"
)

// checkpointInterval is the time between background checkpoints.
const checkpointInterval = time.Minute

// Checkpointer is the durability background worker, running beside the
// Compactor and the Warmer: on a fixed interval it asks the durability
// layer for a full checkpoint (atomic snapshot + WAL truncation), so
// recovery time after a crash stays bounded by one interval's worth of
// WAL replay instead of growing with uptime.
type Checkpointer struct {
	// interval is checkpointInterval; the package's tests shorten it to
	// watch Run tick.
	interval time.Duration

	dur *pphcr.Durability
}

// NewCheckpointer wraps a Durability in the service worker shape.
func NewCheckpointer(dur *pphcr.Durability) (*Checkpointer, error) {
	if dur == nil {
		return nil, fmt.Errorf("service: checkpointer requires a durability layer")
	}
	return &Checkpointer{interval: checkpointInterval, dur: dur}, nil
}

// Poll takes one checkpoint now.
func (c *Checkpointer) Poll() error {
	return c.dur.Checkpoint()
}

// Run checkpoints every interval until stop is closed. Intended to run
// as a goroutine in the server binary, alongside Compactor.Run and
// Warmer.Run. A failed checkpoint is logged and the next tick tries
// again: a transient disk error must not stop the worker.
func (c *Checkpointer) Run(stop <-chan struct{}) {
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := c.Poll(); err != nil {
				slog.Error(fmt.Sprintf("service: checkpoint failed: %v", err))
			}
		}
	}
}
