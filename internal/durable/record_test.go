package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// checkRecords decodes in record by record and holds each outcome to
// the decoder's contract: a record whose encoding is exactly the bytes
// it consumed, io.EOF only where the input ends, or ErrTorn — no other
// error, no panic.
func checkRecords(t *testing.T, in []byte) {
	r := bufio.NewReader(bytes.NewReader(in))
	for off := 0; ; {
		e, err := readRecord(r)
		switch {
		case err == io.EOF:
			if off != len(in) {
				t.Fatalf("io.EOF at byte %d of %d", off, len(in))
			}
			return
		case err == ErrTorn:
			return
		case err != nil:
			t.Fatalf("at byte %d: %v, want a record, io.EOF or ErrTorn", off, err)
		}
		enc := appendRecord(nil, e)
		if !bytes.HasPrefix(in[off:], enc) {
			t.Fatalf("at byte %d: decoded %+v, whose encoding is not the bytes read", off, e)
		}
		off += len(enc)
	}
}

// FuzzReadRecord: appendRecord → readRecord round-trips any event, and
// any bytes at all — the record followed by arbitrary ones, a prefix of
// it, arbitrary ones alone — decode only as checkRecords allows.
func FuzzReadRecord(f *testing.F) {
	rec := appendRecord(nil, Event{Seq: 7, Type: TypeIngest, Payload: []byte(`{"id":"pod-1"}`)})
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordSize)
	f.Add(uint64(7), uint8(TypeIngest), []byte(`{"id":"pod-1"}`), []byte{})
	f.Add(uint64(0), uint8(0), []byte{}, rec)
	f.Add(uint64(1), uint8(TypeSkip), []byte("x"), rec[:headerSize+3])
	f.Add(uint64(2), uint8(255), bytes.Repeat([]byte{0xff}, 300), append(huge, "crc?then a few bytes"...))
	f.Add(uint64(3), uint8(TypeFix), []byte("fix"), []byte{seqSize, 0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, seq uint64, typ uint8, payload, tail []byte) {
		e := Event{Seq: seq, Type: Type(typ), Payload: payload}
		rec := appendRecord(nil, e)
		got, err := readRecord(bufio.NewReader(bytes.NewReader(rec)))
		if err != nil || got.Seq != e.Seq || got.Type != e.Type || !bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("round trip of %+v: %+v, %v", e, got, err)
		}
		checkRecords(t, append(rec, tail...))
		checkRecords(t, rec[:len(tail)%len(rec)])
		checkRecords(t, tail)
	})
}

// TestTornHeaderAllocatesWhatTheStreamHolds: a header whose length field
// claims the largest record the decoder accepts, followed by a few
// bytes, is a tear; proving it must not cost the 64 MiB the header
// claims.
func TestTornHeaderAllocatesWhatTheStreamHolds(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(nil, maxRecordSize)
	in = append(in, make([]byte, 4+100_000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readRecord(bufio.NewReader(bytes.NewReader(in)))
	runtime.ReadMemStats(&after)
	if err != ErrTorn {
		t.Fatalf("readRecord = %v, want ErrTorn", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a torn record with 100 000 body bytes allocated %d B", n)
	}
}
