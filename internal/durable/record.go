// Package durable is the durability subsystem of the PPHCR server: an
// append-only, segment-rotated write-ahead log of typed mutation events,
// atomic checkpoint files holding full-system snapshots, and the replay
// machinery that reconstructs the latest state after a crash (newest
// valid checkpoint + WAL tail). The event payloads are opaque to this
// package — the root pphcr package owns their schemas and the mapping
// back onto System entry points.
//
// On-disk record framing (little endian):
//
//	| length uint32 | crc32c uint32 | seq uint64 | type byte | payload ... |
//
// length counts the sequence number, the type byte and the payload; the
// CRC (Castagnoli) covers the same bytes. A record is valid only if it
// is complete and its CRC matches, so a crash mid-write leaves a
// detectable torn tail rather than silently corrupt state.
//
// seq is the global append sequence number the WAL stamps into every
// record. The WAL takes it in the critical section that queues the
// record, so file order is sequence order and consecutive records carry
// consecutive numbers; Replay, a follower and a rebalance apply records in the
// order they read them (see the WAL ordering contract).
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Type tags one WAL event with the mutation it records.
type Type uint8

// Event types, one per System write-path entry point. Skip and Dislike
// are split out of the generic feedback event so the log is
// self-describing about the negative signals the paper's skip flows
// generate.
const (
	TypeRegister        Type = 1  // user registered (payload: profile)
	TypeIngest          Type = 2  // content ingested (payload: classified item)
	TypeFix             Type = 3  // GPS fix recorded
	TypeFeedback        Type = 4  // listen/like feedback event
	TypeSkip            Type = 5  // skip feedback event
	TypeDislike         Type = 6  // dislike feedback event
	TypeCompact         Type = 7  // tracking compaction ran for a user
	TypeFeedbackCompact Type = 8  // feedback log folded into the baseline
	TypeInject          Type = 9  // editorial item queued for a user
	TypeConsume         Type = 10 // pending injections consumed
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeRegister:
		return "register"
	case TypeIngest:
		return "ingest"
	case TypeFix:
		return "fix"
	case TypeFeedback:
		return "feedback"
	case TypeSkip:
		return "skip"
	case TypeDislike:
		return "dislike"
	case TypeCompact:
		return "compact"
	case TypeFeedbackCompact:
		return "feedback-compact"
	case TypeInject:
		return "inject"
	case TypeConsume:
		return "consume"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Event is one durable mutation record. Seq is assigned by the WAL on
// append (any caller-set value is overwritten) and populated on replay;
// it is the record's position in the log.
type Event struct {
	Seq     uint64
	Type    Type
	Payload []byte
}

const (
	headerSize = 8 // uint32 length + uint32 crc
	seqSize    = 8 // uint64 sequence number, first body field
	// maxRecordSize guards decoding against garbage lengths: no single
	// mutation event comes anywhere near it.
	maxRecordSize = 64 << 20
)

// castagnoli is the CRC32-C table (hardware accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks an incomplete or checksum-failed record at the point the
// reader stopped — the expected state of the final record after a crash
// mid-append.
var ErrTorn = errors.New("durable: torn record")

// appendRecord appends the framed encoding of e (with e.Seq stamped
// into the header) to dst.
func appendRecord(dst []byte, e Event) []byte {
	n := seqSize + 1 + len(e.Payload)
	var hdr [headerSize + seqSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint64(hdr[8:16], e.Seq)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, []byte{byte(e.Type)})
	crc = crc32.Update(crc, castagnoli, e.Payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(e.Type))
	return append(dst, e.Payload...)
}

// recordSize returns the framed size of e.
func recordSize(e Event) int64 { return int64(headerSize + seqSize + 1 + len(e.Payload)) }

// readRecord decodes the next record from r. It returns io.EOF at a
// clean segment end, ErrTorn when the stream holds a partial or
// checksum-failed record, and the underlying error for a real I/O
// failure — an EIO during recovery must fail it loudly, not be
// mistaken for a benign crash tear and truncated away.
func readRecord(r *bufio.Reader) (Event, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return Event{}, ErrTorn // partial header
		}
		return Event{}, fmt.Errorf("durable: reading record header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n <= seqSize || n > maxRecordSize {
		return Event{}, ErrTorn
	}
	body, err := readBody(r, int(n))
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Event{}, ErrTorn // partial body
		}
		return Event{}, fmt.Errorf("durable: reading record body: %w", err)
	}
	if crc32.Checksum(body, castagnoli) != want {
		return Event{}, ErrTorn
	}
	return Event{
		Seq:     binary.LittleEndian.Uint64(body[0:seqSize]),
		Type:    Type(body[seqSize]),
		Payload: body[seqSize+1:],
	}, nil
}

// bodyChunk is as much as readBody allocates before the stream has shown
// that it holds more.
const bodyChunk = 64 << 10

// readBody reads an n-byte record body. A body of up to bodyChunk bytes
// is read into one buffer of exactly n; a longer one into buffers that
// double as its bytes arrive, the last of them exactly n. A torn
// header's length field can read up to maxRecordSize, and the tear is
// only proven by the short read: this way it costs about twice the bytes
// the stream actually holds, not the size the header claims.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, bodyChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err != nil {
			return nil, err
		}
		if got == n {
			return body, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, body)
		body = grown
	}
}
