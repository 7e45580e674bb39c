package pphcr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"pphcr/internal/durable"
)

// snapshotEnvelope is the versioned on-disk format of a full system
// snapshot: every durable store serialized independently so formats can
// evolve per store.
type snapshotEnvelope struct {
	Version  int             `json:"version"`
	Repo     json.RawMessage `json:"repo"`
	Profiles json.RawMessage `json:"profiles"`
	Feedback json.RawMessage `json:"feedback"`
	Tracking json.RawMessage `json:"tracking"`
	// Compacted is the mobility-model provenance: user → number of
	// fixes their live model was compacted from. The model itself is
	// derived state — Restore re-runs the (deterministic) compaction on
	// exactly those fixes, reproducing it bit for bit from the folded
	// trips and the raw suffix without serializing the model.
	Compacted map[string]int `json:"compacted,omitempty"`
	// Injected is the pending editorial injection queue per user.
	Injected map[string][]string `json:"injected,omitempty"`
}

// snapshotVersion 3 stores each user's folded trips and raw suffix in
// the tracking section; version 2 stored every raw fix, and Restore
// still reads it.
const snapshotVersion = 3

// Snapshot serializes the system's durable state — content repository,
// profiles, feedback, raw tracking, mobility-model provenance and
// pending editorial injections — as one JSON document. Remaining
// derived state (plan caches, last plans) is rebuilt lazily after
// Restore, as in a fresh deployment.
//
// Each store is captured under its own lock; for a cross-store
// consistent snapshot the write paths must be quiesced — the
// checkpointer runs Snapshot inside the mutation barrier and
// SaveSnapshot takes it itself. A snapshot raced by writers can pair a
// mobility provenance with a tracking capture that predates it, which
// Restore rejects.
func (s *System) Snapshot(w io.Writer) error {
	var env snapshotEnvelope
	env.Version = snapshotVersion
	capture := func(name string, f func(io.Writer) error) (json.RawMessage, error) {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			return nil, fmt.Errorf("pphcr: snapshotting %s: %w", name, err)
		}
		return json.RawMessage(buf.Bytes()), nil
	}
	var err error
	if env.Repo, err = capture("repository", s.Repo.Snapshot); err != nil {
		return err
	}
	if env.Profiles, err = capture("profiles", s.Profiles.Snapshot); err != nil {
		return err
	}
	if env.Feedback, err = capture("feedback", s.Feedback.Snapshot); err != nil {
		return err
	}
	if env.Tracking, err = capture("tracking", s.Tracker.Snapshot); err != nil {
		return err
	}
	env.Compacted = make(map[string]int)
	env.Injected = make(map[string][]string)
	for i := range s.shards {
		sh := &s.shards[i]
		s.rlockShard(sh)
		for u, n := range sh.compactN {
			env.Compacted[u] = n
		}
		for u, ids := range sh.injected {
			if len(ids) > 0 {
				env.Injected[u] = append([]string(nil), ids...)
			}
		}
		sh.mu.RUnlock()
	}
	return json.NewEncoder(w).Encode(env)
}

// Restore loads a Snapshot into a freshly constructed System (same
// Config). All stores must be empty. Mobility models are re-derived
// from the snapshot's per-user compaction provenance.
func (s *System) Restore(r io.Reader) error {
	var env snapshotEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("pphcr: decoding snapshot: %w", err)
	}
	restoreTracking := s.Tracker.Restore
	switch env.Version {
	case snapshotVersion:
	case 2:
		restoreTracking = s.Tracker.RestoreTraces
	default:
		return fmt.Errorf("pphcr: unsupported snapshot version %d", env.Version)
	}
	if err := s.Repo.Restore(bytes.NewReader(env.Repo)); err != nil {
		return err
	}
	if err := s.Profiles.Restore(bytes.NewReader(env.Profiles)); err != nil {
		return err
	}
	if err := s.Feedback.Restore(bytes.NewReader(env.Feedback)); err != nil {
		return err
	}
	if err := restoreTracking(bytes.NewReader(env.Tracking)); err != nil {
		return err
	}
	for u, n := range env.Compacted {
		if got := s.Tracker.FixCount(u); n > got {
			// A provenance that exceeds the restored fixes means the
			// snapshot was captured while writers raced it (plain
			// Snapshot without the barrier); rebuilding from fewer
			// fixes would silently install a model the live system
			// never had.
			return fmt.Errorf("pphcr: inconsistent snapshot: %q compacted from %d fixes but tracker holds %d", u, n, got)
		}
		cm, err := s.Tracker.CompactN(u, n)
		if err != nil {
			return fmt.Errorf("pphcr: rebuilding mobility model for %q: %w", u, err)
		}
		sh := s.shardFor(u)
		s.lockShard(sh)
		sh.mobility[u] = cm
		sh.compactN[u] = n
		sh.mu.Unlock()
	}
	for u, ids := range env.Injected {
		sh := s.shardFor(u)
		s.lockShard(sh)
		sh.injected[u] = append([]string(nil), ids...)
		sh.mu.Unlock()
	}
	return nil
}

// SaveSnapshot writes a Snapshot to path atomically: the bytes go to a
// temp file in the same directory, are fsynced, and renamed into place,
// so a crash mid-write can never corrupt (or half-overwrite) the only
// copy. Every file-level snapshot in this repo goes through this path.
// The write paths are paused for the duration (see Snapshot), so the
// file is cross-store consistent even on a live system.
func (s *System) SaveSnapshot(path string) error {
	var err error
	s.checkpointBarrier(func() {
		err = durable.WriteFileAtomic(path, s.Snapshot)
	})
	return err
}
