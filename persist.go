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
// It writes the document in one pass: the envelope's fields go to w
// around each store's own encoder, which writes its section straight to
// w. The bytes are those encoding/json writes for snapshotEnvelope with
// each section as a json.RawMessage: a store writes one compact, escaped
// JSON value and a newline, as json.Encoder does, and only the newline
// is left out. A store's error leaves w holding part of a document.
//
// Each store is captured under its own lock; for a cross-store
// consistent snapshot the write paths must be quiesced — the
// checkpointer runs Snapshot inside the mutation barrier and
// SaveSnapshot takes it itself. A snapshot raced by writers can pair a
// mobility provenance with a tracking capture that predates it, which
// Restore rejects.
func (s *System) Snapshot(w io.Writer) error {
	sw := sectionWriter{w: w}
	sw.put(fmt.Sprintf(`{"version":%d`, snapshotVersion))
	for _, sec := range []struct {
		key, name string
		write     func(io.Writer) error
	}{
		{"repo", "repository", s.Repo.Snapshot},
		{"profiles", "profiles", s.Profiles.Snapshot},
		{"feedback", "feedback", s.Feedback.Snapshot},
		{"tracking", "tracking", s.Tracker.Snapshot},
	} {
		sw.put(`,"` + sec.key + `":`)
		if sw.err != nil {
			return sw.err
		}
		if err := sec.write(&sw); err != nil {
			return fmt.Errorf("pphcr: snapshotting %s: %w", sec.name, err)
		}
	}
	compacted := make(map[string]int)
	injected := make(map[string][]string)
	for i := range s.shards {
		sh := &s.shards[i]
		s.rlockShard(sh)
		for u, n := range sh.compactN {
			compacted[u] = n
		}
		for u, ids := range sh.injected {
			if len(ids) > 0 {
				injected[u] = append([]string(nil), ids...)
			}
		}
		sh.mu.RUnlock()
	}
	// Both fields are omitempty in snapshotEnvelope.
	if len(compacted) > 0 {
		sw.value(`,"compacted":`, compacted)
	}
	if len(injected) > 0 {
		sw.value(`,"injected":`, injected)
	}
	sw.put("}\n")
	return sw.err
}

// sectionWriter writes a snapshot document to w: the envelope's own
// bytes through put and value, and each store's section through Write,
// less the newline json.Encoder ends the section with. The first error
// sticks.
type sectionWriter struct {
	w   io.Writer
	err error
}

func (sw *sectionWriter) put(s string) {
	if sw.err == nil {
		_, sw.err = io.WriteString(sw.w, s)
	}
}

// value writes key and v as encoding/json writes them.
func (sw *sectionWriter) value(key string, v any) {
	b, err := json.Marshal(v)
	if sw.err == nil {
		sw.err = err
	}
	sw.put(key)
	if sw.err == nil {
		_, sw.err = sw.w.Write(b)
	}
}

// Write passes p on, less a newline that ends it.
func (sw *sectionWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	q := p
	if n := len(q); n > 0 && q[n-1] == '\n' {
		q = q[:n-1]
	}
	if _, sw.err = sw.w.Write(q); sw.err != nil {
		return 0, sw.err
	}
	return len(p), nil
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
