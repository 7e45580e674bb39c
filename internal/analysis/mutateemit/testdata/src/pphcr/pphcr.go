// Package pphcr mirrors the System write-path shapes the mutateemit
// analyzer keys on: a System-shaped type (SetMutationHook + shards)
// whose write method is the one write path, the commit barrier, and the
// ingest mutex. Each bad shape is the write method of a type embedding
// System, which is System-shaped through the promoted method and field.
package pphcr

import "sync"

type Event struct {
	Type    string
	Payload []byte
}

type barrierStripe struct {
	mu sync.RWMutex
}

type commitBarrier struct {
	stripes []barrierStripe
}

func (b *commitBarrier) rlock(i uint32)   { b.stripes[i].mu.RLock() }
func (b *commitBarrier) runlock(i uint32) { b.stripes[i].mu.RUnlock() }

type userShard struct {
	mu   sync.RWMutex
	data map[string]int
}

type System struct {
	barrier  commitBarrier
	shards   []userShard
	ingestMu sync.Mutex
	hook     func(e Event) error
}

func (s *System) SetMutationHook(fn func(e Event) error) { s.hook = fn }

func (s *System) emit(e Event) error {
	if s.hook == nil {
		return nil
	}
	return s.hook(e)
}

func (s *System) lockShard(sh *userShard) { sh.mu.Lock() }

// write is the canonical write path: under the barrier stripe and the
// shard lock (the ingest mutex for the userless ingest), check, emit,
// then apply.
func (s *System) write(stripe uint32, sh *userShard, check func() (*Event, error), apply func()) error {
	s.barrier.rlock(stripe)
	defer s.barrier.runlock(stripe)
	if sh != nil {
		s.lockShard(sh)
		defer sh.mu.Unlock()
	} else {
		s.ingestMu.Lock()
		defer s.ingestMu.Unlock()
	}
	ev, err := check()
	if err != nil || ev == nil {
		return err
	}
	if err := s.emit(*ev); err != nil {
		return err
	}
	apply()
	return nil
}

// goodEntryPoint supplies a check and an apply and leaves the rest to
// write.
func (s *System) goodEntryPoint(idx uint32, user string) error {
	sh := &s.shards[idx]
	return s.write(idx, sh, func() (*Event, error) {
		return &Event{Type: "bump"}, nil
	}, func() { sh.data[user]++ })
}

// badEmitOutsideWrite is a second write choreography: locked and fenced
// as the contract asks, but not the one write path.
func (s *System) badEmitOutsideWrite(idx uint32, user string) error {
	s.barrier.rlock(idx)
	defer s.barrier.runlock(idx)
	sh := &s.shards[idx]
	s.lockShard(sh)
	err := s.emit(Event{Type: "bump"}) // want `WAL emit outside System.write`
	if err == nil {
		sh.data[user]++
	}
	sh.mu.Unlock()
	return err
}

type applyFirstSystem struct{ System }

// write applies before it emits: a refused emit leaves the write applied.
func (s *applyFirstSystem) write(stripe uint32, sh *userShard, check func() (*Event, error), apply func()) error {
	s.barrier.rlock(stripe)
	defer s.barrier.runlock(stripe)
	s.lockShard(sh)
	defer sh.mu.Unlock()
	ev, err := check()
	if err != nil {
		return err
	}
	apply() // want `apply before the WAL emit`
	return s.emit(*ev)
}

type unlockedSystem struct{ System }

// write emits after releasing the shard lock: a racing same-user write
// can reach the WAL between apply and emit.
func (s *unlockedSystem) write(stripe uint32, sh *userShard, check func() (*Event, error), apply func()) error {
	s.barrier.rlock(stripe)
	defer s.barrier.runlock(stripe)
	s.lockShard(sh)
	ev, err := check()
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	err = s.emit(*ev) // want `WAL emit outside the shard/ingest critical section`
	if err == nil {
		apply()
	}
	return err
}

type noBarrierSystem struct{ System }

// write emits without entering the commit barrier: a checkpoint can
// slice between emit and apply.
func (s *noBarrierSystem) write(stripe uint32, sh *userShard, check func() (*Event, error), apply func()) error {
	s.lockShard(sh)
	defer sh.mu.Unlock()
	ev, err := check()
	if err != nil {
		return err
	}
	if err := s.emit(*ev); err != nil { // want `WAL emit without the commit-barrier stripe held`
		return err
	}
	apply()
	return nil
}

type doubleEmitSystem struct{ System }

// write logs two records for one write.
func (s *doubleEmitSystem) write(stripe uint32, sh *userShard, check func() (*Event, error), apply func()) error {
	s.barrier.rlock(stripe)
	defer s.barrier.runlock(stripe)
	s.lockShard(sh)
	defer sh.mu.Unlock()
	ev, err := check()
	if err != nil {
		return err
	}
	_ = s.emit(*ev)
	if err := s.emit(*ev); err != nil { // want `second WAL emit in one critical section`
		return err
	}
	apply()
	return nil
}

type twoSectionSystem struct{ System }

// write emits once per critical section — two sections, two records,
// no finding.
func (s *twoSectionSystem) write(stripe uint32, sh *userShard, apply func()) {
	s.barrier.rlock(stripe)
	defer s.barrier.runlock(stripe)
	s.lockShard(sh)
	_ = s.emit(Event{Type: "bump"})
	apply()
	sh.mu.Unlock()
	s.lockShard(sh)
	_ = s.emit(Event{Type: "bump"})
	apply()
	sh.mu.Unlock()
}

type errorPathSystem struct{ System }

// write unlocks by hand on its error path: the unlock inside the
// terminating if body belongs to the early return and must not count
// against the fall-through emit.
func (s *errorPathSystem) write(stripe uint32, sh *userShard, check func() (*Event, error), apply func()) error {
	s.barrier.rlock(stripe)
	defer s.barrier.runlock(stripe)
	s.lockShard(sh)
	ev, err := check()
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	err = s.emit(*ev)
	if err == nil {
		apply()
	}
	sh.mu.Unlock()
	return err
}
