package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ReplayStats reports what a recovery pass read.
type ReplayStats struct {
	// Events is the number of valid records applied.
	Events int
	// Segments is the number of segment files visited.
	Segments int
	// Torn reports whether the newest segment ended in a torn record
	// (the expected signature of a crash mid-append).
	Torn bool
	// MaxSeq is the highest record sequence number seen. Callers hand
	// it to OpenWAL via Options.InitialSeq so the open does not re-read
	// the segments replay just read.
	MaxSeq uint64
}

// Replay reads every WAL record in segments >= fromSeq and applies each
// through fn as it reads it, in file order. File order is sequence
// order (see the WAL ordering contract), so nothing is buffered: the
// replayed range costs one record in memory, not one checkpoint
// interval of traffic. A log an older release wrote may hold two
// records of different users out of sequence order across a drain
// boundary; neither had observed the other, so file order replays it to
// the same state.
//
// A torn record at the tail of the newest segment is tolerated (replay
// drops it and Torn is set); a torn or corrupt record anywhere else is
// real corruption and fails the recovery, as does an error from fn.
// Missing segments inside the replayed range fail it too — a gap means
// mutations are unrecoverable. Records before such a failure have
// already been applied.
func Replay(dir string, fromSeq int64, fn func(Event) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := ListSegments(dir)
	if err != nil {
		return st, fmt.Errorf("durable: listing segments: %w", err)
	}
	if len(segs) > 0 {
		// Refuse to parse segments written by a pre-seq-format release:
		// their records CRC-validate under this reader but decode to
		// garbage sequence numbers and types.
		if err := ensureFormat(dir, true); err != nil {
			return st, err
		}
	}
	// Seeding prev at fromSeq-1 makes the gap check cover the range
	// start too: if the segment the checkpoint hands off to is missing,
	// recovery must fail, not silently resume at a later one.
	prev := fromSeq - 1
	for _, seg := range segs {
		if seg.Seq < fromSeq {
			continue
		}
		if prev > 0 && seg.Seq != prev+1 {
			return st, fmt.Errorf("durable: segment gap: %d follows %d", seg.Seq, prev)
		}
		prev = seg.Seq
		st.Segments++
		last := seg.Seq == segs[len(segs)-1].Seq
		validOff, torn, err := ScanSegment(seg.Path, 0, func(e Event) error {
			st.MaxSeq = max(st.MaxSeq, e.Seq)
			if err := fn(e); err != nil {
				return fmt.Errorf("durable: applying %s record: %w", e.Type, err)
			}
			st.Events++
			return nil
		})
		if err != nil {
			return st, err
		}
		if torn {
			if !last {
				return st, fmt.Errorf("durable: torn record mid-log in segment %d", seg.Seq)
			}
			// A benign crash tear is strictly a suffix: one partial
			// record and nothing after it. A valid frame anywhere past
			// the tear means the tear is mid-segment *corruption* —
			// tolerating it would silently drop (and, via OpenWAL's
			// truncation, destroy) durably-synced records.
			ok, err := validFrameAfter(seg.Path, validOff)
			if err != nil {
				return st, err
			}
			if ok {
				return st, fmt.Errorf("durable: corrupt record inside segment %d (valid records follow the damage)", seg.Seq)
			}
			st.Torn = true
		}
	}
	return st, nil
}

// validFrameAfter reports whether any byte offset past `from` in the
// segment decodes as a CRC-valid record frame. Only called on the
// (bounded-size) final segment when a tear was found, so the sliding
// scan is affordable; a CRC false positive needs a 1-in-2^32 collision
// at some alignment of a partial record's own bytes.
func validFrameAfter(path string, from int64) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if _, err := f.Seek(from, 0); err != nil {
		return false, err
	}
	rem, err := io.ReadAll(f)
	if err != nil {
		return false, err
	}
	for i := 1; i+headerSize < len(rem); i++ {
		n := binary.LittleEndian.Uint32(rem[i : i+4])
		if n <= seqSize || n > maxRecordSize || i+headerSize+int(n) > len(rem) {
			continue
		}
		want := binary.LittleEndian.Uint32(rem[i+4 : i+8])
		if crc32.Checksum(rem[i+headerSize:i+headerSize+int(n)], castagnoli) == want {
			return true, nil
		}
	}
	return false, nil
}
