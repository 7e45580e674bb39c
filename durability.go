package pphcr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/tracking"
	"pphcr/internal/trajectory"
)

// Event payload schemas. Register/ingest/feedback events reuse the
// store types directly; the rest are thin argument records. All replay
// deterministically through the write that emitted them.
type (
	fixEvent struct {
		User string
		Fix  trajectory.Fix
	}
	compactEvent struct {
		User string
		// N is the trace-prefix length the model was compacted from,
		// pinned at emit time so replay is exact regardless of how
		// concurrent fixes interleaved with the compaction.
		N int
	}
	feedbackCompactEvent struct {
		User    string
		At      time.Time
		Horizon time.Duration
	}
	injectEvent struct {
		User, Item string
	}
	consumeEvent struct {
		User string
	}
)

// durableTypeForKind maps a feedback kind to its WAL event type: skips
// and dislikes are first-class in the log (the paper's negative-signal
// flows), everything else is a generic feedback event.
func durableTypeForKind(k feedback.Kind) durable.Type {
	switch k {
	case feedback.Skip:
		return durable.TypeSkip
	case feedback.Dislike:
		return durable.TypeDislike
	default:
		return durable.TypeFeedback
	}
}

// skipInstantRange drops a logged fix or feedback event whose instant the
// stores refuse because Unix nanoseconds cannot hold it (after 2262 or
// before 1678). Older nodes accepted and logged such instants. Replay and
// a follower's apply skip the record, as they skip an ingest whose check
// fails, rather than refuse to boot or wedge on it.
func skipInstantRange(err error) error {
	if errors.Is(err, feedback.ErrInstantRange) || errors.Is(err, tracking.ErrInstantRange) {
		return nil
	}
	return err
}

// applyDurableEvent replays one WAL record through the write that
// emitted it. Recovery runs before the mutation hook is attached, and a
// follower has none, so nothing is re-logged.
func (s *System) applyDurableEvent(e durable.Event) error {
	switch e.Type {
	case durable.TypeRegister:
		return decoded(e, s.RegisterUser)
	case durable.TypeIngest:
		return decoded(e, func(it *content.Item) error {
			// Older nodes logged an ingest before its Add ran: skipping
			// one whose check fails reproduces the live outcome.
			_ = s.addItem(it)
			return nil
		})
	case durable.TypeFix:
		return decoded(e, func(fe fixEvent) error { return skipInstantRange(s.RecordFix(fe.User, fe.Fix)) })
	case durable.TypeFeedback, durable.TypeSkip, durable.TypeDislike:
		return decoded(e, func(fe feedback.Event) error { return skipInstantRange(s.AddFeedback(fe)) })
	case durable.TypeCompact:
		return decoded(e, func(ce compactEvent) error {
			_, err := s.compactTracking(ce.User, ce.N)
			return err
		})
	case durable.TypeFeedbackCompact:
		return decoded(e, func(fc feedbackCompactEvent) error {
			s.CompactFeedback(fc.User, fc.At, fc.Horizon)
			return nil
		})
	case durable.TypeInject:
		return decoded(e, func(ie injectEvent) error { return s.Inject(ie.User, ie.Item) })
	case durable.TypeConsume:
		return decoded(e, func(ce consumeEvent) error {
			s.consumeInjections(ce.User)
			return nil
		})
	default:
		return fmt.Errorf("pphcr: unknown durable event type %d", e.Type)
	}
}

// decoded hands fn the payload of e, decoded as a T.
func decoded[T any](e durable.Event, fn func(T) error) error {
	var v T
	if err := json.Unmarshal(e.Payload, &v); err != nil {
		return err
	}
	return fn(v)
}

// DurabilityOptions parameterizes OpenDurability.
type DurabilityOptions struct {
	// Dir is the data directory holding WAL segments and checkpoints.
	Dir string
	// Sync is the WAL fsync policy (-wal-sync). Default durable.SyncAlways.
	Sync durable.SyncPolicy
	// SegmentBytes is the WAL rotation threshold. Default 8 MiB.
	SegmentBytes int64
	// RetainSegments keeps WAL segments that checkpoints would otherwise
	// truncate. A replication leader sets it so the log holds every
	// user's full history from sequence 1 — the slice a rebalance replays
	// on a user's new owner (see internal/replicate). Checkpoints still
	// land and bound recovery time; only segment removal is skipped.
	RetainSegments bool
}

// Durability binds a System to its on-disk write-ahead log and
// checkpoints: OpenDurability recovers the newest durable state into
// the (fresh) System, then attaches the WAL so every subsequent
// mutation is logged; Checkpoint snapshots and truncates; Close takes a
// final checkpoint. One Durability per data directory.
type Durability struct {
	sys    *System
	dir    string
	wal    *durable.WAL
	retain bool

	// mu serializes Checkpoint against Close.
	mu      sync.Mutex
	closed  bool
	crashed bool // closed by Crash: no final checkpoint was written

	replayed       int
	torn           bool
	recovered      bool
	checkpoints    atomic.Int64
	checkpointErrs atomic.Int64
	lastCheckpoint atomic.Int64 // unix nanos; 0 = never
	// lastBarrierNs / totalBarrierNs measure the write-path pause each
	// checkpoint's quiesce imposed (snapshot serialization + WAL
	// rotation) — the latency cost durability charges the hot path,
	// reported on /stats.
	lastBarrierNs  atomic.Int64
	totalBarrierNs atomic.Int64
	// pauseHist is the distribution of those pauses — the p99 of the
	// stall a checkpoint can inject into every write path.
	pauseHist obs.Histogram
}

// keepCheckpoints is how many checkpoint generations a Durability
// retains: the older one is the fallback if the newest fails validation.
const keepCheckpoints = 2

// openDurability is what OpenDurability and PromoteStandby share: check
// o, let load bring sys up to date from o.Dir (it returns the
// highest record sequence it saw), then open the WAL for writing past
// that sequence and attach it to every write path.
func openDurability(sys *System, o DurabilityOptions, load func(d *Durability) (uint64, error)) (*Durability, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("pphcr: DurabilityOptions.Dir required")
	}
	d := &Durability{sys: sys, dir: o.Dir, retain: o.RetainSegments}
	maxSeq, err := load(d)
	if err != nil {
		return nil, err
	}
	wal, err := durable.OpenWAL(o.Dir, durable.Options{
		SegmentBytes: o.SegmentBytes,
		Sync:         o.Sync,
		// Recovery just read the retained tail; hand its max sequence
		// over so the open does not re-read every segment.
		InitialSeq: maxSeq,
	})
	if err != nil {
		return nil, err
	}
	d.wal = wal
	sys.SetMutationHook(wal.Append)
	return d, nil
}

// OpenDurability recovers state from o.Dir into sys — which must be
// freshly constructed with the same Config as the crashed instance —
// and attaches the write-ahead log to its mutation hook.
//
// Recovery restores the newest checkpoint that passes CRC validation
// (falling back to an older retained one if the newest is damaged),
// then replays the WAL segments the checkpoint does not cover, in
// order, through the System entry points. A torn final record — the
// signature of a crash mid-append — is tolerated and dropped; torn
// records anywhere else fail recovery loudly.
func OpenDurability(sys *System, o DurabilityOptions) (*Durability, error) {
	return openDurability(sys, o, func(d *Durability) (uint64, error) {
		cps, err := durable.ListCheckpoints(d.dir)
		if err != nil {
			return 0, fmt.Errorf("pphcr: listing checkpoints: %w", err)
		}
		var fromSeq int64
		for i := len(cps) - 1; i >= 0; i-- {
			data, err := durable.ReadCheckpoint(cps[i].Path)
			if err != nil {
				continue // damaged: fall back to the previous generation
			}
			if err := sys.Restore(bytes.NewReader(data)); err != nil {
				return 0, fmt.Errorf("pphcr: restoring checkpoint %d: %w", cps[i].Seq, err)
			}
			fromSeq = cps[i].Seq
			d.recovered = true
			break
		}
		if len(cps) > 0 && !d.recovered {
			// Checkpoints exist but none validated. Booting anyway would
			// replay only the retained WAL tail over an empty system and
			// silently serve with most state gone — data loss must be a
			// loud startup failure, not a quiet degradation.
			return 0, fmt.Errorf("pphcr: %d checkpoint(s) in %s but none passed validation", len(cps), d.dir)
		}
		st, err := durable.Replay(d.dir, fromSeq, sys.applyDurableEvent)
		if err != nil {
			return 0, fmt.Errorf("pphcr: replaying WAL: %w", err)
		}
		d.replayed = st.Events
		d.torn = st.Torn
		if st.Events > 0 {
			d.recovered = true
		}
		return st.MaxSeq, nil
	})
}

// Recovered reports whether opening found prior state (a checkpoint or
// WAL events) — the server uses it to skip its synthetic preload.
func (d *Durability) Recovered() bool { return d.recovered }

// Healthy reports whether the durability layer can still accept writes:
// nil while the WAL is live, its terminal failure once a segment write
// or fsync failed, under either sync policy. The readiness probe uses it
// to turn a broken node 503 so a load balancer ejects it.
func (d *Durability) Healthy() error { return d.wal.Err() }

// SetFsyncDegraded injects (0 clears) a per-fsync stall into the WAL —
// the degraded-disk fault mode scenario runs flip at phase boundaries.
// Acked writes stay durable; only latency degrades.
func (d *Durability) SetFsyncDegraded(stall time.Duration) { d.wal.SetFsyncDegraded(stall) }

// Degraded reports partial degradation: non-nil while the WAL runs in
// degraded-fsync mode. Distinct from Healthy — a degraded node still
// accepts and persists writes (slowly), so /readyz reports it as
// degraded rather than ejecting it, and the probe must not flap.
func (d *Durability) Degraded() error {
	if stall := d.wal.FsyncDegraded(); stall > 0 {
		return fmt.Errorf("wal fsync degraded: injected %v stall per fsync", stall)
	}
	return nil
}

// PauseHistogram is the checkpoint write-path pause distribution, for
// metrics-endpoint registration.
func (d *Durability) PauseHistogram() *obs.Histogram { return &d.pauseHist }

// WALAppendHistogram / WALFsyncHistogram expose the log's latency
// distributions for metrics-endpoint registration.
func (d *Durability) WALAppendHistogram() *obs.Histogram { return d.wal.AppendHistogram() }

// WALFsyncHistogram is the WAL flush+fsync latency distribution.
func (d *Durability) WALFsyncHistogram() *obs.Histogram { return d.wal.FsyncHistogram() }

// ReplayedEvents returns the number of WAL records applied at open.
func (d *Durability) ReplayedEvents() int { return d.replayed }

// Checkpoint writes a full snapshot and truncates the WAL segments it
// covers. The write paths are paused only while the snapshot serializes
// to memory and the WAL rotates; the disk writes happen outside the
// barrier. The snapshot lands atomically (temp file + fsync + rename),
// older generations beyond keepCheckpoints are deleted, and WAL
// segments below the oldest retained checkpoint are removed.
func (d *Durability) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

func (d *Durability) checkpointLocked() error {
	if d.closed {
		return fmt.Errorf("pphcr: checkpoint on closed durability")
	}
	var (
		buf bytes.Buffer
		seq int64
		err error
	)
	barrierStart := time.Now()
	d.sys.checkpointBarrier(func() {
		if err = d.sys.Snapshot(&buf); err != nil {
			return
		}
		seq, err = d.wal.Rotate()
	})
	paused := time.Since(barrierStart).Nanoseconds()
	d.lastBarrierNs.Store(paused)
	d.totalBarrierNs.Add(paused)
	d.pauseHist.ObserveNs(paused)
	if err == nil {
		err = durable.WriteCheckpoint(d.dir, seq, buf.Bytes())
	}
	if err != nil {
		d.checkpointErrs.Add(1)
		return fmt.Errorf("pphcr: checkpoint: %w", err)
	}
	d.checkpoints.Add(1)
	d.lastCheckpoint.Store(time.Now().UnixNano())
	kept, err := durable.RemoveCheckpointsKeep(d.dir, keepCheckpoints)
	if err != nil || len(kept) == 0 {
		return err
	}
	if d.retain {
		// RetainSegments: the full log is the rebalance source of truth;
		// keep every segment on disk.
		return nil
	}
	return d.wal.RemoveSegmentsBelow(kept[0].Seq)
}

// ErrCrashed is what Close returns after Crash: the layer was abandoned
// without a final checkpoint, and none can be written now.
var ErrCrashed = errors.New("pphcr: durability crashed: no final checkpoint")

// Close takes a final checkpoint (the shutdown flush) and closes the
// WAL. The WAL stays attached to the System, so a late mutation fails
// fast: the closed log refuses it and the write returns ErrNotLogged,
// unapplied. A second Close returns nil; a Close after Crash returns
// ErrCrashed.
func (d *Durability) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if d.closed {
		return nil
	}
	err := d.checkpointLocked()
	d.closed = true
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the durability layer without flushing or
// checkpointing — the crash-simulation path used by recovery tests and
// the kill-node scenario. Buffered, unsynced WAL records are lost
// exactly as in a process kill. The abandoned WAL stays attached and
// refuses every later write with ErrNotLogged, as a dead process would.
func (d *Durability) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed, d.crashed = true, true
	d.wal.Abandon()
}

// DurabilityStats is the /stats view of the durability subsystem.
type DurabilityStats struct {
	WAL durable.WALStats `json:"wal"`
	// Replayed is the number of WAL records applied at startup.
	Replayed int `json:"replayed"`
	// RecoveredTorn reports whether startup found (and dropped) a torn
	// final record.
	RecoveredTorn bool `json:"recovered_torn,omitempty"`
	// Checkpoints / CheckpointErrors count checkpoint attempts since
	// open.
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
	// EmitErrors counts WAL-append failures on the write paths whose
	// signatures cannot propagate them (injection consumption, feedback
	// compaction). Nonzero means the log is missing events.
	EmitErrors int64 `json:"emit_errors"`
	// LastCheckpointUnix is when the newest checkpoint completed (0 =
	// never); LastCheckpointAgeSec is its age now.
	LastCheckpointUnix   int64   `json:"last_checkpoint_unix"`
	LastCheckpointAgeSec float64 `json:"last_checkpoint_age_sec"`
	// LastBarrierMicros / TotalBarrierMicros are the write-path pauses
	// the checkpoint quiesces imposed (snapshot + WAL rotation inside
	// the striped commit barrier); Pause is their distribution.
	LastBarrierMicros  float64     `json:"last_barrier_micros"`
	TotalBarrierMicros float64     `json:"total_barrier_micros"`
	Pause              obs.Summary `json:"pause"`
}

// Stats snapshots the durability counters.
func (d *Durability) Stats() DurabilityStats {
	st := DurabilityStats{
		WAL:                d.wal.Stats(),
		Replayed:           d.replayed,
		RecoveredTorn:      d.torn,
		Checkpoints:        d.checkpoints.Load(),
		CheckpointErrors:   d.checkpointErrs.Load(),
		EmitErrors:         d.sys.emitErrs.Load(),
		LastBarrierMicros:  float64(d.lastBarrierNs.Load()) / 1e3,
		TotalBarrierMicros: float64(d.totalBarrierNs.Load()) / 1e3,
		Pause:              d.pauseHist.Summary(),
	}
	if ns := d.lastCheckpoint.Load(); ns > 0 {
		st.LastCheckpointUnix = ns / 1e9
		st.LastCheckpointAgeSec = time.Since(time.Unix(0, ns)).Seconds()
	}
	return st
}

// WALSeq is the highest WAL sequence number handed out so far — an
// upper bound on the sequence of every write that has already returned.
// The HTTP layer stamps it on write responses (X-Pphcr-Wal-Seq) so a
// replication-aware router can hold the client ack until a follower has
// applied at least this far.
func (d *Durability) WALSeq() uint64 { return d.wal.SeqCeiling() }

// SyncWAL forces a group flush+fsync of everything appended so far. The
// replication source calls it before listing segment sizes, so under
// the interval policy a follower's cursor never runs ahead of what the
// leader has durably written. It returns the WAL's failure once the log
// has failed.
func (d *Durability) SyncWAL() error { return d.wal.Sync() }

// ApplyReplicated applies one shipped WAL record through the write that
// emitted it on the leader. It is the warm-standby apply
// path: the System must have no mutation hook attached (nothing is
// re-logged; the follower's on-disk log is the shipped bytes
// themselves). The caller owns ordering: records must arrive in log
// order, which is sequence order (see the durable.WAL ordering
// contract), because cross-user causality on the leader is the order
// its writes reached the log.
func (s *System) ApplyReplicated(e durable.Event) error {
	return s.applyDurableEvent(e)
}

// eventUserProbe matches the user field of every durable payload
// schema: the store types carry UserID (profile.Profile,
// feedback.Event), the thin argument records carry User.
type eventUserProbe struct {
	User   string
	UserID string
}

// EventUser extracts the user a durable event belongs to. ok is false
// for events that are not user-scoped (catalog ingest) — a rebalance
// replaying one user's history skips those, because every node ingests
// the same seeded catalog itself.
func EventUser(e durable.Event) (string, bool) {
	switch e.Type {
	case durable.TypeIngest:
		return "", false
	}
	var p eventUserProbe
	if err := json.Unmarshal(e.Payload, &p); err != nil {
		return "", false
	}
	if p.UserID != "" {
		return p.UserID, true
	}
	return p.User, p.User != ""
}

// PromoteStandby turns a warm standby into a leader. The System already
// holds live state from applying shipped records contiguously up to
// appliedSeq; promotion replays the local (shipped) log's remaining
// suffix — every record with a sequence above appliedSeq, in log order —
// then opens the WAL for writing and attaches the mutation hook. From
// the moment it returns, the node acks its own writes. The replay reads
// every retained segment. The returned count
// is the number of suffix records applied — the acked-but-unapplied
// window the promotion closed.
func PromoteStandby(sys *System, o DurabilityOptions, appliedSeq uint64) (*Durability, int, error) {
	applied := 0
	d, err := openDurability(sys, o, func(d *Durability) (uint64, error) {
		d.recovered = true
		st, err := durable.Replay(d.dir, 0, func(e durable.Event) error {
			if e.Seq <= appliedSeq {
				return nil // the standby applied this one live
			}
			applied++
			return sys.applyDurableEvent(e)
		})
		if err != nil {
			return 0, fmt.Errorf("pphcr: promoting standby: %w", err)
		}
		d.replayed = applied
		d.torn = st.Torn
		return max(st.MaxSeq, appliedSeq), nil
	})
	return d, applied, err
}
