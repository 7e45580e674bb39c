package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// This file is the read-back and shipping surface of the WAL: the one
// record scanner, and the naming primitives a replication follower needs
// to mirror a leader's data directory byte-for-byte and apply the
// records as they arrive. The framing and torn-tail semantics are exactly those
// of Replay; shipping adds nothing to the format — a follower's
// directory is a valid recovery directory at every instant, which is
// what makes promotion "just recover from local disk".

// SegmentFileName renders the file name of WAL segment seq, so a
// follower writes shipped bytes under the exact name recovery expects.
func SegmentFileName(seq int64) string { return segmentName(seq) }

// CheckpointFileName renders the file name of the checkpoint covering
// WAL segments below seq.
func CheckpointFileName(seq int64) string { return checkpointName(seq) }

// InitShipDir prepares a follower data directory: creates it and writes
// the WAL format marker, so the shipped segments parse under the same
// format guard as locally written ones. Safe to call repeatedly; fails
// if the directory already holds a different format.
func InitShipDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: creating ship dir: %w", err)
	}
	return ensureFormat(dir, false)
}

// FormatVersion is the WAL record-framing version this release writes
// and reads. A shipping source advertises it so a follower refuses to
// mirror a log it cannot parse.
const FormatVersion = formatVersion

// ScanRecords reads the records of r from its start, applying each
// through fn, and returns the byte length of the valid prefix read. A
// record cut short or failing its checksum ends the scan with torn set:
// at the end of the active segment that is the normal "rest of the
// record has not arrived yet" state, and a caller resumes past n once
// more bytes are there; elsewhere it is corruption the caller must
// surface. An error from fn stops the scan with n at the start of the
// failed record, so a retry re-applies it. Recovery, the WAL's open,
// shipping and rebalance all read a logged write back through here.
func ScanRecords(r io.Reader, fn func(Event) error) (n int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		e, err := readRecord(br)
		switch {
		case err == io.EOF:
			return n, false, nil
		case err == ErrTorn:
			return n, true, nil
		case err != nil:
			return n, false, err // real I/O failure
		}
		if err := fn(e); err != nil {
			return n, false, err
		}
		n += recordSize(e)
	}
}

// ScanSegment is ScanRecords over the segment file at path from byte
// offset off; newOff is where the valid prefix read ends.
func ScanSegment(path string, off int64, fn func(Event) error) (newOff int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return off, false, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, false, err
	}
	n, torn, err := ScanRecords(f, fn)
	return off + n, torn, err
}

// SeqCeiling is the highest record sequence number the log has handed
// out. Every record whose Append returned is stamped with a sequence at
// or below it, so "a follower has applied everything up to SeqCeiling
// taken after a write" implies the follower has that write — the
// replication acknowledgment bound the router waits on.
func (w *WAL) SeqCeiling() uint64 { return w.seq.Load() }
