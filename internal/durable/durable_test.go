package durable

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func ev(t Type, payload string) Event { return Event{Type: t, Payload: []byte(payload)} }

func collect(t *testing.T, dir string, fromSeq int64) ([]Event, ReplayStats) {
	t.Helper()
	var got []Event
	st, err := Replay(dir, fromSeq, func(e Event) error {
		got = append(got, Event{Type: e.Type, Payload: append([]byte(nil), e.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for i := 0; i < 200; i++ {
		e := ev(Type(1+i%10), fmt.Sprintf("payload-%04d", i))
		want = append(want, e)
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir, 0)
	if len(got) != len(want) || st.Torn {
		t.Fatalf("replayed %d events (torn=%v), want %d", len(got), st.Torn, len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("event %d mismatch: %v %q vs %v %q", i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncInterval, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append(ev(TypeFix, strings.Repeat("x", 40))); err != nil {
			t.Fatal(err)
		}
	}
	// Staging is asynchronous under SyncInterval: settle the background
	// writer before reading the segment counters.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Segments < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d of 100 across segments", len(got))
	}

	// Truncation: drop everything below the last segment.
	if err := func() error {
		w2, err := OpenWAL(dir, Options{Sync: SyncInterval, SegmentBytes: 256})
		if err != nil {
			return err
		}
		defer w2.Close()
		return w2.RemoveSegmentsBelow(st.SegmentSeq)
	}(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].Seq != st.SegmentSeq {
		t.Fatalf("truncation kept %v, want first seq %d", segs, st.SegmentSeq)
	}
}

func TestTornTailToleratedAndTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(ev(TypeFeedback, fmt.Sprintf("event-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Abandon()

	// Hard-cut the newest segment mid-record.
	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(last.Path, last.Size-5); err != nil {
		t.Fatal(err)
	}

	got, st := collect(t, dir, 0)
	if len(got) != 9 || !st.Torn {
		t.Fatalf("got %d events torn=%v, want 9 torn=true", len(got), st.Torn)
	}

	// Reopen truncates the tear so new appends are replayable.
	w2, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(ev(TypeFeedback, "after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, st = collect(t, dir, 0)
	if len(got) != 10 || st.Torn {
		t.Fatalf("after reopen: %d events torn=%v, want 10 torn=false", len(got), st.Torn)
	}
	if string(got[9].Payload) != "after-crash" {
		t.Fatalf("last event %q", got[9].Payload)
	}
}

func TestReplayRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := w.Append(ev(TypeFix, strings.Repeat("y", 30))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Flip a byte in the middle of the first segment.
	raw, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0].Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Event) error { return nil }); err == nil {
		t.Fatal("mid-log corruption not rejected")
	}
}

func TestReplayRejectsCorruptionInsideFinalSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(ev(TypeFeedback, fmt.Sprintf("synced-event-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	raw, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in an early record: valid, durably-synced records
	// follow the damage, so this is corruption — not a crash tear — and
	// tolerating it would silently destroy them.
	raw[len(raw)/4] ^= 0xff
	if err := os.WriteFile(segs[0].Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Event) error { return nil }); err == nil {
		t.Fatal("mid-segment corruption in the final segment accepted as a benign tear")
	}
}

func TestCheckpointWriteReadValidate(t *testing.T) {
	dir := t.TempDir()
	data := []byte(`{"version":2,"hello":"world"}`)
	if err := WriteCheckpoint(dir, 7, data); err != nil {
		t.Fatal(err)
	}
	cps, err := ListCheckpoints(dir)
	if err != nil || len(cps) != 1 || cps[0].Seq != 7 {
		t.Fatalf("checkpoints: %v %v", cps, err)
	}
	got, err := ReadCheckpoint(cps[0].Path)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read: %q %v", got, err)
	}
	// Corruption is detected.
	raw, _ := os.ReadFile(cps[0].Path)
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(cps[0].Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(cps[0].Path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	// Retention keeps the newest.
	for seq := int64(8); seq <= 12; seq++ {
		if err := WriteCheckpoint(dir, seq, data); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := RemoveCheckpointsKeep(dir, 2)
	if err != nil || len(kept) != 2 || kept[0].Seq != 11 || kept[1].Seq != 12 {
		t.Fatalf("retention kept %v (%v)", kept, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failed rewrite leaves the old content and no temp litter.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("write error swallowed")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("old content lost: %q %v", got, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp litter: %v", entries)
	}
}

func TestSyncPolicyParseAndInterval(t *testing.T) {
	for _, s := range []string{"always", "interval"} {
		p, err := ParseSyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("parse %q: %v %v", s, p, err)
		}
	}
	for _, s := range []string{"none", "sometimes"} {
		if _, err := ParseSyncPolicy(s); err == nil {
			t.Fatalf("bad policy %q accepted", s)
		}
	}

	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(TypeFeedback, "tick")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Stats().Synced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALFormatMarker: a directory holding segments without the format
// marker was written by the pre-seq framing — its records CRC-validate
// under this reader but decode payload bytes as sequence numbers, so
// both Replay and OpenWAL must refuse it loudly instead of parsing
// garbage. A mismatched marker version is refused the same way.
func TestWALFormatMarker(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ev(TypeFeedback, "marked")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(dir, formatFile)
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("no format marker written: %v", err)
	}

	// Simulate a pre-v2 directory: segments present, marker absent.
	if err := os.Remove(marker); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Event) error { return nil }); err == nil {
		t.Fatal("replay parsed a marker-less (old-format) directory")
	}
	if _, err := OpenWAL(dir, Options{Sync: SyncInterval}); err == nil {
		t.Fatal("open accepted a marker-less (old-format) directory")
	}

	// A future-format marker is refused too.
	if err := os.WriteFile(marker, []byte("9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, Options{Sync: SyncInterval}); err == nil {
		t.Fatal("open accepted an unsupported format version")
	}
}

// TestWALConcurrentAppends is the multi-producer ordering proof under
// -race: many goroutines hammer appends for few users (each user
// serialized by a per-user mutex, the way the System's shard locks
// serialize a user's mutations). After a
// clean close, the replayed log must hold (a) a gapless, strictly
// increasing sequence run 1..N in replay order — the total order the
// group-commit writer promises — and (b) every user's records in
// exactly their apply order.
func TestWALConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := filepath.Join(dir, policy.String())
			w, err := OpenWAL(dir, Options{Sync: policy, SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines = 16
				users      = 3 // users ≪ goroutines: maximal same-user contention
				perG       = 200
			)
			var userMu [users]sync.Mutex
			applied := make([][]string, users)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						u := (g + i) % users
						// The caller's half of the ordering contract: a
						// user's appends are serialized, and the apply-order
						// record is taken inside the same critical section.
						userMu[u].Lock()
						payload := fmt.Sprintf("u%d-g%d-i%d", u, g, i)
						if err := w.Append(ev(TypeFeedback, payload)); err != nil {
							userMu[u].Unlock()
							t.Errorf("append: %v", err)
							return
						}
						applied[u] = append(applied[u], payload)
						userMu[u].Unlock()
					}
				}(g)
			}
			wg.Wait()
			// Close drains whatever the background writer has not caught
			// up with; the group-commit counters are complete only after.
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()

			var lastSeq uint64
			replayed := make([][]string, users)
			n := 0
			if _, err := Replay(dir, 0, func(e Event) error {
				if e.Seq != lastSeq+1 {
					return fmt.Errorf("sequence gap or misorder: %d follows %d", e.Seq, lastSeq)
				}
				lastSeq = e.Seq
				var u, g, i int
				if _, err := fmt.Sscanf(string(e.Payload), "u%d-g%d-i%d", &u, &g, &i); err != nil {
					return fmt.Errorf("payload %q: %v", e.Payload, err)
				}
				replayed[u] = append(replayed[u], string(e.Payload))
				n++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := goroutines * perG; n != want {
				t.Fatalf("replayed %d of %d records", n, want)
			}
			for u := range applied {
				if len(applied[u]) != len(replayed[u]) {
					t.Fatalf("user %d: %d applied vs %d replayed", u, len(applied[u]), len(replayed[u]))
				}
				for i := range applied[u] {
					if applied[u][i] != replayed[u][i] {
						t.Fatalf("user %d record %d: applied %q, replayed %q", u, i, applied[u][i], replayed[u][i])
					}
				}
			}
			if st.GroupCommits == 0 || st.GroupCommitRecords != int64(goroutines*perG) {
				t.Fatalf("group-commit stats: %+v", st)
			}
			if policy == SyncAlways && st.Synced >= st.Appended {
				t.Fatalf("no group-commit amortization: %d fsyncs for %d appends", st.Synced, st.Appended)
			}
		})
	}
}

// TestWALFileOrderIsSequenceOrder is the ordering contract every reader
// relies on: 16 producers append under each policy with segments so
// small that drains rotate mid-batch, and a plain scan of the segments
// in file order reads seqs 1, 2, 3, … with no gap. Under SyncAlways an
// Append that returned nil is at or below the durable watermark.
func TestWALFileOrderIsSequenceOrder(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, Options{Sync: policy, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			const producers, perG = 16, 100
			// durableAt[payload] is the durable watermark read as its
			// Append returned.
			var (
				mu        sync.Mutex
				durableAt = make(map[string]uint64, producers*perG)
				wg        sync.WaitGroup
			)
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						p := fmt.Sprintf("g%d-i%d", g, i)
						if err := w.Append(ev(TypeFix, p)); err != nil {
							t.Errorf("append: %v", err)
							return
						}
						d := w.durableSeq.Load()
						mu.Lock()
						durableAt[p] = d
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()

			segs, err := ListSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			var last uint64
			for _, seg := range segs {
				_, torn, err := ScanSegment(seg.Path, 0, func(e Event) error {
					if e.Seq != last+1 {
						return fmt.Errorf("segment %d: seq %d follows %d", seg.Seq, e.Seq, last)
					}
					last = e.Seq
					if d := durableAt[string(e.Payload)]; policy == SyncAlways && e.Seq > d {
						return fmt.Errorf("%s: seq %d acked with the durable watermark at %d", e.Payload, e.Seq, d)
					}
					return nil
				})
				if err != nil || torn {
					t.Fatalf("scanning segment %d: torn=%v err=%v", seg.Seq, torn, err)
				}
			}
			if want := uint64(producers * perG); last != want {
				t.Fatalf("scanned seqs 1..%d, want 1..%d", last, want)
			}
			if len(segs) < 2 {
				t.Fatalf("%d segment(s): the drains never rotated", len(segs))
			}
			if policy == SyncAlways && st.MaxCommitBatch < 2 {
				t.Fatalf("no drain held two records, so none could cross a rotation: %+v", st)
			}
			t.Logf("%d segments, %d drains, max batch %d", len(segs), st.GroupCommits, st.MaxCommitBatch)
		})
	}
}

// TestGroupCommitTornTail exercises the crash contract of the staged
// group-commit path: concurrent producers append, the log is settled
// and then hard-cut mid-record. Replay must tolerate exactly that tear,
// and what survives must be a causally consistent prefix — for every
// user, an unbroken prefix of their applied records (file order is
// sequence order, so a lost suffix never keeps a record while dropping
// one it depends on).
func TestGroupCommitTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	const users = 4
	var userMu [users]sync.Mutex
	applied := make([][]uint64, users)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				u := (g + i) % users
				userMu[u].Lock()
				e := ev(TypeFix, fmt.Sprintf("u%d payload %d-%d", u, g, i))
				if err := w.Append(e); err != nil {
					userMu[u].Unlock()
					t.Errorf("append: %v", err)
					return
				}
				applied[u] = append(applied[u], 0) // count only; seq filled on replay
				userMu[u].Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := w.Sync(); err != nil { // settle the writer so the tail is on disk
		t.Fatal(err)
	}
	w.Abandon()

	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(last.Path, last.Size-9); err != nil {
		t.Fatal(err)
	}

	perUser := make([]int, users)
	var lastSeq uint64
	n := 0
	st, err := Replay(dir, 0, func(e Event) error {
		if e.Seq <= lastSeq {
			return fmt.Errorf("misordered replay: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		var u int
		if _, err := fmt.Sscanf(string(e.Payload), "u%d", &u); err != nil {
			return fmt.Errorf("payload %q: %v", e.Payload, err)
		}
		perUser[u]++
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("hard-cut tail not reported as torn")
	}
	if n != 8*100-1 {
		t.Fatalf("replayed %d records, want all but the torn one (%d)", n, 8*100-1)
	}
	total := 0
	for u := range perUser {
		if perUser[u] > len(applied[u]) {
			t.Fatalf("user %d: replayed %d > applied %d", u, perUser[u], len(applied[u]))
		}
		total += perUser[u]
	}
	if total != n {
		t.Fatalf("per-user totals %d != replayed %d", total, n)
	}
}

// BenchmarkWALAppend measures the sustained append overhead a System
// write path pays per mutation, with the server's default fsync policy
// (-wal-sync=interval): the record is framed, CRC'd and buffered; fsync
// happens on the background tick. The acceptance bar is < 2µs/op.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := []byte(`{"UserID":"user-0042","ItemID":"clip-000123","Kind":1,"At":"2017-03-21T08:30:00Z","Categories":{"traffic":0.61,"regional":0.39}}`)
	e := Event{Type: TypeSkip, Payload: payload}
	b.SetBytes(recordSize(e))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	// The append path records into its own histogram; report the tail the
	// benchmark run produced so the perf trajectory tracks p99, not just
	// the mean.
	b.ReportMetric(float64(w.AppendHistogram().Snapshot().Quantile(0.99)), "p99-ns/op")
}

// TestFsyncDegradedMode proves the degraded-disk fault injection: the
// stall shows up in every fsync (and therefore in a SyncAlways append's
// commit wait), the stats report the mode, records stay durable, and
// clearing the stall restores the healthy path. Crucially the log's
// Err() stays nil throughout — degraded is not dead.
func TestFsyncDegradedMode(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const stall = 5 * time.Millisecond
	w.SetFsyncDegraded(stall)
	if got := w.FsyncDegraded(); got != stall {
		t.Fatalf("FsyncDegraded = %v, want %v", got, stall)
	}
	start := time.Now()
	if err := w.Append(Event{Type: TypeFeedback, Payload: []byte(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("degraded SyncAlways append returned in %v, want >= %v", elapsed, stall)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("degraded log reports dead: %v", err)
	}
	st := w.Stats()
	if st.DegradedFsyncMillis != 5 {
		t.Fatalf("DegradedFsyncMillis = %v, want 5", st.DegradedFsyncMillis)
	}
	if st.Fsync.P50Micros < float64(stall.Microseconds()) {
		t.Fatalf("fsync p50 %vµs does not reflect the %v stall", st.Fsync.P50Micros, stall)
	}

	w.SetFsyncDegraded(0)
	if w.FsyncDegraded() != 0 {
		t.Fatal("stall not cleared")
	}
	if err := w.Append(Event{Type: TypeFeedback, Payload: []byte(`{"a":2}`)}); err != nil {
		t.Fatal(err)
	}

	// Both appends — degraded and healthy — replay back.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	st2, err := Replay(dir, 0, func(Event) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || st2.Events != 2 {
		t.Fatalf("replayed %d events, want 2", n)
	}
}
