package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/obs"
)

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

// Sync policies. SyncAlways makes every Append durable before it
// returns — appenders park on a commit notify and one group-commit
// fsync retires every record staged while the previous fsync was in
// flight. SyncInterval flushes and fsyncs every syncEvery, bounding
// loss to one tick.
const (
	SyncAlways SyncPolicy = iota
	SyncInterval
)

// syncEvery is the SyncInterval tick.
const syncEvery = 50 * time.Millisecond

// String returns the policy name (the -wal-sync flag values).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	default:
		return 0, fmt.Errorf("durable: unknown sync policy %q (want always or interval)", s)
	}
}

// ErrClosed is returned by Append on a closed WAL.
var ErrClosed = errors.New("durable: append on closed WAL")

// Options parameterizes a WAL.
type Options struct {
	// SegmentBytes is the rotation threshold. Default 8 MiB.
	SegmentBytes int64
	// Sync is the fsync policy. Default SyncAlways.
	Sync SyncPolicy
	// InitialSeq, when nonzero, is the highest record sequence the
	// caller knows is on disk (a recovery that just ran Replay has it
	// in ReplayStats.MaxSeq). It spares OpenWAL re-reading every
	// retained segment; the final segment is still scanned for
	// torn-tail truncation and its maximum still wins if larger.
	InitialSeq uint64
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
}

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"

	// formatFile marks the record framing version of a WAL directory.
	// Version 2 added the seq field to the record body. The marker is
	// what makes an old-format directory fail loudly: a v1 record's CRC
	// covers its whole body, so it still validates under the v2 reader —
	// which would then silently read payload bytes as a sequence number.
	formatFile    = "wal-format"
	formatVersion = "2"
)

// ensureFormat validates the directory's WAL format marker, creating it
// for a directory that has no segments yet. A directory with segments
// but no marker was written by a pre-v2 release and must not be parsed.
func ensureFormat(dir string, haveSegments bool) error {
	path := filepath.Join(dir, formatFile)
	b, err := os.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(b)); got != formatVersion {
			return fmt.Errorf("durable: unsupported WAL format %q in %s (this release reads format %s)", got, dir, formatVersion)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if haveSegments {
		return fmt.Errorf("durable: %s holds WAL segments without a format marker — written by a pre-sequence-format release; recover with that release or start from a fresh directory", dir)
	}
	// The marker must be at least as durable as the first fsynced
	// record, or a crash could persist the segments while losing the
	// marker — and recovery would then refuse a perfectly valid log.
	return WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, formatVersion+"\n")
		return err
	})
}

// segmentName renders the file name of segment seq.
func segmentName(seq int64) string {
	return fmt.Sprintf("%s%016d%s", segmentPrefix, seq, segmentSuffix)
}

// File is one <prefix>NNN<suffix> file in a data directory: a WAL
// segment or a checkpoint. The JSON names are the shipping manifest's
// (/replication/status), a wire format between versions.
type File struct {
	// Seq is the file's number: the segment's, or for a checkpoint the
	// first WAL segment its snapshot does not cover.
	Seq int64 `json:"seq"`
	// Size is the byte size when listed. The active segment grows
	// between listings; bytes past a follower's cursor are its ship
	// window.
	Size int64 `json:"size"`
	// Path is the local path, never serialized.
	Path string `json:"-"`
}

// listNumbered returns dir's <prefix>NNN<suffix> files ascending by
// number, skipping entries that do not parse. A missing directory holds
// none.
func listNumbered(dir, prefix, suffix string) ([]File, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, File{Seq: seq, Size: info.Size(), Path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// ListSegments returns the WAL segments in dir, ascending.
func ListSegments(dir string) ([]File, error) {
	return listNumbered(dir, segmentPrefix, segmentSuffix)
}

// WALStats are the log's counters, reported on /stats.
type WALStats struct {
	// Appended counts records staged since open.
	Appended int64 `json:"appended"`
	// Synced counts fsync calls since open.
	Synced int64 `json:"synced"`
	// Bytes counts record bytes staged since open.
	Bytes int64 `json:"bytes"`
	// Segments is the number of live segment files.
	Segments int64 `json:"segments"`
	// SegmentSeq is the sequence number of the active segment.
	SegmentSeq int64 `json:"segment_seq"`
	// Policy is the fsync policy name.
	Policy string `json:"policy"`
	// GroupCommits counts drain cycles that retired at least one staged
	// record; GroupCommitRecords is the total they retired. Their ratio
	// (MeanCommitBatch) is the group-commit amortization: how many
	// appends one pass of the background writer — and, under SyncAlways,
	// one fsync — retires.
	GroupCommits       int64   `json:"group_commits"`
	GroupCommitRecords int64   `json:"group_commit_records"`
	MeanCommitBatch    float64 `json:"mean_commit_batch"`
	// MaxCommitBatch is the largest single drain.
	MaxCommitBatch int64 `json:"max_commit_batch"`
	// Staged is the number of records currently queued and not yet
	// handed to the segment writer.
	Staged int64 `json:"staged"`
	// Append is the Append latency distribution (including the
	// group-commit wait under SyncAlways); Fsync is the
	// flush+fsync pass distribution.
	Append obs.Summary `json:"append"`
	Fsync  obs.Summary `json:"fsync"`
	// DegradedFsyncMillis is the injected per-fsync stall of the
	// degraded-disk fault mode (0 = healthy).
	DegradedFsyncMillis float64 `json:"degraded_fsync_millis,omitempty"`
}

// WAL is the append-only, segment-rotated, multi-producer write-ahead
// log. Append takes the next sequence number and frames the record onto
// the staging queue in one critical section; one background writer
// drains the queue front to back into the active segment and — under
// SyncAlways — retires the whole drain with a single group-commit fsync.
// It is safe for concurrent use.
//
// Ordering contract: file order is sequence order. Consecutive records
// carry consecutive sequence numbers, across segment boundaries too (a
// crash or a failed write loses a suffix, never a record in the
// middle), so every reader can apply records as it reads them. Per-key order is the
// caller's half of the contract: callers that require a key's records
// in its apply order (the System's per-user mutations) must serialize
// that key's Append calls, which the System's shard locks do.
type WAL struct {
	dir  string
	opts Options

	// mu guards the staging queue: the framed bytes of every record
	// appended since the writer's last drain, in sequence order. seq is
	// the last sequence number handed out; it only moves under mu, in
	// the same critical section that queues its record (atomic so
	// SeqCeiling and Stats read it without the lock).
	mu     sync.Mutex
	queue  []byte
	queued int64 // records in queue
	closed bool
	seq    atomic.Uint64

	// ioMu is the segment writer's domain: the active file, its bufio
	// writer and the drain machinery. Producers never take it.
	ioMu     sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      atomic.Int64 // active segment (atomic: Stats reads it without ioMu)
	firstSeg atomic.Int64 // oldest retained segment
	size     int64        // bytes in the active segment
	dirty    bool         // bytes written since last fsync
	ioClosed bool
	spare    []byte // the last drained queue, reused as the next one
	written  uint64 // highest sequence written to a segment, pending fsync

	// commitMu/commitCond wake SyncAlways waiters after each group
	// commit; durableSeq is the highest sequence written and fsynced.
	// failure holds the first failed segment write, flush or fsync under
	// any policy, and is terminal: every parked producer is woken with it
	// and nothing is written after it — so durableSeq covering a record
	// always means "written and fsynced", never "dropped by a failure but
	// acked by a later success". It is set under commitMu so a parking
	// producer cannot miss the wakeup.
	commitMu   sync.Mutex
	commitCond *sync.Cond
	durableSeq atomic.Uint64
	failure    atomic.Pointer[error]

	stopOnce sync.Once

	appended      atomic.Int64
	bytes         atomic.Int64
	synced        atomic.Int64
	groupCommits  atomic.Int64
	commitRecords atomic.Int64
	maxBatch      atomic.Int64

	// appendHist is the end-to-end Append latency (under SyncAlways it
	// includes the group-commit wait — the durability price a producer
	// actually pays); fsyncHist times each flush+fsync pass.
	appendHist obs.Histogram
	fsyncHist  obs.Histogram

	// degradedNs, when nonzero, is an injected per-fsync stall — the
	// scenario engine's "sick disk" fault mode. The log stays correct
	// (every durability promise holds, just slower), which is exactly the
	// partial-degradation state /readyz must report without flapping.
	degradedNs atomic.Int64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// OpenWAL opens (or creates) the log in dir, truncating any torn tail
// left in the newest segment by a crash, and continues appending to it
// (the record sequence resumes past the highest on disk). Callers that
// need the torn records replayed must run Replay before OpenWAL
// truncates them away — Open is destructive to the torn tail by design
// (an append after a torn record would otherwise be unreachable to
// every future replay, which stops at the tear).
func OpenWAL(dir string, opts Options) (*WAL, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating wal dir: %w", err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: listing segments: %w", err)
	}
	if err := ensureFormat(dir, len(segs) > 0); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:  dir,
		opts: opts,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	w.seg.Store(1)
	w.firstSeg.Store(1)
	w.commitCond = sync.NewCond(&w.commitMu)
	if len(segs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		// The record sequence must resume past everything on disk. A
		// log this release wrote ends in its maximum, but one an older
		// release wrote could land a record one drain late, across a
		// rotation, so the maximum can live in any retained segment.
		// Callers that just replayed the log pass the maximum they saw
		// via Options.InitialSeq so only the final segment is re-read
		// (for torn-tail truncation); a standalone open scans every
		// segment.
		maxSeq := opts.InitialSeq
		scan := segs[len(segs)-1:]
		if maxSeq == 0 {
			scan = segs
		}
		// The last scan is the final segment's: where its valid prefix
		// ends, everything after is a torn tail. Real I/O failures
		// propagate; they must not be mistaken for a tear and truncated
		// away.
		var valid int64
		for _, seg := range scan {
			valid, _, err = ScanSegment(seg.Path, 0, func(e Event) error {
				maxSeq = max(maxSeq, e.Seq)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("durable: scanning %s: %w", seg.Path, err)
			}
		}
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.Path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("durable: opening segment: %w", err)
		}
		if valid < last.Size {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("durable: truncating torn tail: %w", err)
			}
		}
		if _, err := f.Seek(valid, 0); err != nil {
			f.Close()
			return nil, err
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, 1<<16)
		w.seg.Store(last.Seq)
		w.firstSeg.Store(segs[0].Seq)
		w.size = valid
		w.seq.Store(maxSeq)
	}
	var tick *time.Ticker
	if opts.Sync == SyncInterval {
		tick = time.NewTicker(syncEvery)
	}
	go w.writerLoop(tick)
	return w, nil
}

func (w *WAL) createSegment(seq int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.seg.Store(seq)
	w.size = 0
	return nil
}

// writerLoop is the staging queue's single consumer: it drains
// on producer wakeups (and, under SyncInterval, flushes on the tick).
// Under SyncAlways each pass ends in one fsync that retires every
// record staged since the previous pass — producers that stacked up
// while the disk was busy are all released by the same write barrier,
// which is what makes the log multi-producer without making it
// multi-fsync.
func (w *WAL) writerLoop(tick *time.Ticker) {
	defer close(w.done)
	var tickC <-chan time.Time
	if tick != nil {
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-w.stop:
			return
		case <-w.wake:
			w.commitCycle()
		case <-tickC:
			w.Sync()
		}
	}
}

// wakeWriter nudges the writer goroutine; the buffered channel
// coalesces bursts into one drain.
func (w *WAL) wakeWriter() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Append stamps e with the next sequence number and queues it for the
// background writer. Under SyncAlways it is durable on return (the
// caller parked on the group-commit notify); under SyncInterval a crash
// may lose it. Once the log has failed or closed it returns the failure
// (or ErrClosed) and takes no sequence number. The critical section is
// the stamp and the framing of one record onto the queue: taking the
// number where the record is queued is what makes file order sequence
// order.
func (w *WAL) Append(e Event) error {
	start := time.Now()
	w.mu.Lock()
	if err := w.Err(); err != nil || w.closed {
		w.mu.Unlock()
		if err != nil {
			return err
		}
		return ErrClosed
	}
	e.Seq = w.seq.Load() + 1
	w.seq.Store(e.Seq)
	w.queue = appendRecord(w.queue, e)
	w.queued++
	w.mu.Unlock()

	w.appended.Add(1)
	w.bytes.Add(recordSize(e))
	w.wakeWriter()

	if w.opts.Sync != SyncAlways {
		w.appendHist.Observe(time.Since(start))
		return nil
	}

	// Group commit: park until the durable watermark covers this record,
	// or the log fails. A drain takes the whole queue, a prefix of the
	// sequence, so durableSeq covering e.Seq means this record was
	// written and fsynced — a failure can never be followed by a
	// successful cycle that would falsely ack a dropped record (failure
	// is terminal).
	w.commitMu.Lock()
	for w.durableSeq.Load() < e.Seq && w.failure.Load() == nil {
		w.commitCond.Wait()
	}
	var err error
	if w.durableSeq.Load() < e.Seq {
		err = w.Err()
	}
	w.commitMu.Unlock()
	w.appendHist.Observe(time.Since(start))
	return err
}

// commitCycle is one pass of the background writer: drain the queue
// into the active segment and (under SyncAlways) fsync and release the
// parked producers.
func (w *WAL) commitCycle() {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if !w.ioClosed {
		w.cycleLocked(w.opts.Sync == SyncAlways)
	}
}

// cycleLocked drains the queue into the active segment and, when fsync
// is set and anything is unsynced, flushes, fsyncs and releases the
// parked producers. The first failure is terminal (see fail): a failed
// log writes nothing more and returns its failure. Callers hold ioMu.
func (w *WAL) cycleLocked(fsync bool) error {
	if err := w.Err(); err != nil {
		return err
	}
	if err := w.drainLocked(); err != nil {
		return w.fail(err)
	}
	if !fsync || !w.dirty {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return w.fail(err)
	}
	w.publishDurableLocked()
	return nil
}

// drainLocked takes the whole queue and writes it, front to back, to the
// active segment, rotating between records once a segment is full. The
// queue is in sequence order and holds every sequence number handed out
// since the last drain, so the file stays gapless in sequence order. On
// a failed write the unwritten suffix is dropped: the log is about to
// fail, and nothing is written after a failure. Callers hold ioMu.
func (w *WAL) drainLocked() error {
	w.mu.Lock()
	batch, n, hi := w.queue, w.queued, w.seq.Load()
	w.queue, w.queued = w.spare[:0], 0
	w.mu.Unlock()
	w.spare = batch
	if n == 0 {
		return nil
	}
	for off := 0; off < len(batch); {
		end := off + headerSize + int(binary.LittleEndian.Uint32(batch[off:]))
		if w.size >= w.opts.SegmentBytes {
			// Rotate mid-batch so one large drain cannot blow past the
			// segment bound. The old segment's retirement fsync does not
			// publish: records later in this batch are not written yet,
			// and publication waits for the cycle's final fsync.
			if err := w.rotateLocked(); err != nil {
				return err
			}
		}
		if _, err := w.bw.Write(batch[off:end]); err != nil {
			return fmt.Errorf("durable: appending record: %w", err)
		}
		w.size += int64(end - off)
		off = end
	}
	w.written = hi
	w.dirty = true
	w.groupCommits.Add(1)
	w.commitRecords.Add(n)
	for {
		cur := w.maxBatch.Load()
		if n <= cur || w.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	return nil
}

// publishDurableLocked advances the durable watermark to the last drain
// and wakes parked producers. Callers hold ioMu and have fsynced
// everything drained so far.
func (w *WAL) publishDurableLocked() {
	w.commitMu.Lock()
	w.durableSeq.Store(w.written)
	w.commitCond.Broadcast()
	w.commitMu.Unlock()
}

// fail makes the log terminal, under every policy, and returns the
// failure it keeps (the first one). Every parked producer is woken with
// it, and every later Append, Sync, Rotate and Close returns it. There
// is no retry: after a failed fsync the kernel may already have dropped
// the dirty pages, so a later fsync that succeeds proves nothing about
// the records before it; and a retry that succeeded would falsely ack
// records the failing cycle dropped.
func (w *WAL) fail(err error) error {
	w.commitMu.Lock()
	w.failure.CompareAndSwap(nil, &err)
	w.commitCond.Broadcast()
	w.commitMu.Unlock()
	return w.Err()
}

// SetFsyncDegraded injects (or, with 0, clears) a per-fsync stall of d —
// the degraded-disk fault mode scenario runs use to model a device whose
// writeback latency collapsed. Durability semantics are untouched: every
// fsync still completes, acked records are still on stable storage; only
// the latency distribution (and everything parked behind a group commit)
// degrades. Safe to flip while the log is live.
func (w *WAL) SetFsyncDegraded(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.degradedNs.Store(d.Nanoseconds())
}

// FsyncDegraded reports the injected per-fsync stall (0 = healthy).
func (w *WAL) FsyncDegraded() time.Duration {
	return time.Duration(w.degradedNs.Load())
}

// syncLocked flushes and fsyncs the active segment. Callers hold ioMu.
func (w *WAL) syncLocked() error {
	start := time.Now()
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("durable: flushing: %w", err)
	}
	if d := w.degradedNs.Load(); d > 0 {
		// The stall sits where a real device's latency would: between the
		// write handoff and the durability barrier, while ioMu is held —
		// so group commits batch up behind it exactly as they would
		// behind a slow disk.
		time.Sleep(time.Duration(d))
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.fsyncHist.Observe(time.Since(start))
	w.dirty = false
	w.synced.Add(1)
	return nil
}

// Sync drains the staging queue, flushes buffered records and fsyncs
// the active segment — the background tick under SyncInterval, and the
// explicit barrier tests and tools use to observe a settled log.
func (w *WAL) Sync() error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.ioClosed {
		return w.Err()
	}
	return w.cycleLocked(true)
}

// Rotate drains the staging queue, closes the active segment (flushed
// and fsynced) and starts a new one, returning the new segment's
// sequence number. The checkpointer calls it inside the mutation
// barrier — every producer quiesced — so the new segment is the exact
// WAL position its snapshot covers up to.
func (w *WAL) Rotate() (int64, error) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if err := w.Err(); err != nil {
		return 0, err
	}
	if w.ioClosed {
		return 0, fmt.Errorf("durable: rotate on closed WAL")
	}
	if err := w.drainLocked(); err != nil {
		return 0, w.fail(err)
	}
	if err := w.rotateLocked(); err != nil {
		return 0, w.fail(err)
	}
	// Everything drained was fsynced before the old segment closed.
	w.publishDurableLocked()
	return w.seg.Load(), nil
}

// rotateLocked retires the active segment — flushed and fsynced inside
// the writer pass, under every policy — and starts the next one.
// Callers hold ioMu.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: closing segment: %w", err)
	}
	return w.createSegment(w.seg.Load() + 1)
}

// RemoveSegmentsBelow deletes segments with sequence < seq (never the
// active one). The checkpointer calls it after its snapshot is durable.
func (w *WAL) RemoveSegmentsBelow(seq int64) error {
	if cur := w.seg.Load(); seq > cur {
		seq = cur
	}
	segs, err := ListSegments(w.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.Seq >= seq {
			continue
		}
		if err := os.Remove(s.Path); err != nil {
			return fmt.Errorf("durable: removing segment %d: %w", s.Seq, err)
		}
	}
	for {
		cur := w.firstSeg.Load()
		if seq <= cur || w.firstSeg.CompareAndSwap(cur, seq) {
			break
		}
	}
	return nil
}

// Stats snapshots the counters. It never takes ioMu — the writer holds
// that across fsync, and a /stats read must not stall behind disk
// writeback.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	staged := w.queued
	w.mu.Unlock()
	seg, first := w.seg.Load(), w.firstSeg.Load()
	s := WALStats{
		Appended:           w.appended.Load(),
		Synced:             w.synced.Load(),
		Bytes:              w.bytes.Load(),
		Segments:           seg - first + 1,
		SegmentSeq:         seg,
		Policy:             w.opts.Sync.String(),
		GroupCommits:       w.groupCommits.Load(),
		GroupCommitRecords: w.commitRecords.Load(),
		MaxCommitBatch:     w.maxBatch.Load(),
		Staged:             staged,
	}
	if s.GroupCommits > 0 {
		s.MeanCommitBatch = float64(s.GroupCommitRecords) / float64(s.GroupCommits)
	}
	s.Append = w.appendHist.Summary()
	s.Fsync = w.fsyncHist.Summary()
	s.DegradedFsyncMillis = float64(w.degradedNs.Load()) / 1e6
	return s
}

// AppendHistogram is the Append latency distribution, for
// metrics-endpoint registration.
func (w *WAL) AppendHistogram() *obs.Histogram { return &w.appendHist }

// FsyncHistogram is the flush+fsync latency distribution, for
// metrics-endpoint registration.
func (w *WAL) FsyncHistogram() *obs.Histogram { return &w.fsyncHist }

// Err reports the log's terminal failure: the first failed segment
// write, flush or fsync under any policy (see fail), or the abandon of
// a simulated crash. A readiness probe uses it to eject a node whose
// log can no longer accept writes. Returns nil while the log is healthy
// (or merely closed).
func (w *WAL) Err() error {
	if p := w.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// closeQueue marks the queue closed (failing subsequent appends) and
// must run before the final drain so nothing is queued after it.
func (w *WAL) closeQueue() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
}

// stopWriter halts the background writer goroutine.
func (w *WAL) stopWriter() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Close drains, flushes, fsyncs and closes the log. On failure any
// parked SyncAlways producer is woken with the error — a shutdown I/O
// error must not strand a request handler on the commit notify. A
// failed log drains nothing: still-staged records belong to producers
// that were already told their commit failed.
func (w *WAL) Close() error {
	w.closeQueue()
	w.stopWriter()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.ioClosed {
		return w.Err()
	}
	w.ioClosed = true
	err := w.cycleLocked(true)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon drops the log without draining or flushing — the
// crash-simulation path used by recovery tests and the kill-node
// scenario: whatever the writer has not handed to the OS is lost,
// exactly as in a process kill. Parked SyncAlways producers are woken
// with an error.
func (w *WAL) Abandon() {
	w.closeQueue()
	w.stopWriter()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.ioClosed {
		return
	}
	w.ioClosed = true
	w.f.Close()
	w.fail(errors.New("durable: wal abandoned"))
}
