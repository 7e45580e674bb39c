package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A fault breaks the active segment the way a failing disk would. It
// runs under ioMu, between two writer passes.
type fault struct {
	name   string
	inject func(t *testing.T, w *WAL)
}

var faults = []fault{
	// Writes fail: the segment's file is closed under the bufio writer,
	// so the next flush (or a write past the buffer) errors.
	{"write", func(t *testing.T, w *WAL) {
		w.ioMu.Lock()
		defer w.ioMu.Unlock()
		w.f.Close()
	}},
	// Fsync fails while writes still land: the bufio writer keeps the
	// real segment, but fsync goes to a read-only /dev/null handle.
	{"fsync", func(t *testing.T, w *WAL) {
		null, err := os.Open(os.DevNull)
		if err != nil {
			t.Fatal(err)
		}
		w.ioMu.Lock()
		seg := w.f
		w.f = null
		w.ioMu.Unlock()
		t.Cleanup(func() { seg.Close() })
	}},
}

// skipUnlessFaultFails skips the fsync fault on a platform where fsync
// of /dev/null succeeds (it fails with EINVAL on Linux).
func skipUnlessFaultFails(t *testing.T, f fault) {
	if f.name != "fsync" {
		return
	}
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Skip(err)
	}
	defer null.Close()
	if null.Sync() == nil {
		t.Skip("fsync of /dev/null succeeds on this platform")
	}
}

// replayedPayloads returns the payloads Replay reads from dir.
func replayedPayloads(t *testing.T, dir string) map[string]bool {
	t.Helper()
	got := make(map[string]bool)
	if _, err := Replay(dir, 0, func(e Event) error {
		got[string(e.Payload)] = true
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// TestWALFailureIsTerminal: under both policies, the first failed
// segment write or fsync makes the log terminal. Err() reports it
// without any caller calling Sync (the group commit under always, the
// tick under interval), every later Append, Sync, Rotate and Close
// returns it, and nothing is written after it: the log replays every
// record acked before the fault and none appended after it.
func TestWALFailureIsTerminal(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		for _, f := range faults {
			t.Run(policy.String()+"/"+f.name, func(t *testing.T) {
				skipUnlessFaultFails(t, f)
				dir := t.TempDir()
				w, err := OpenWAL(dir, Options{Sync: policy})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					if err := w.Append(ev(TypeFeedback, fmt.Sprintf("before-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}

				f.inject(t, w)
				atFault := w.Append(ev(TypeFeedback, "at-fault"))
				deadline := time.Now().Add(5 * time.Second)
				for w.Err() == nil {
					if time.Now().After(deadline) {
						t.Fatalf("Err() still nil %v after the %s fault (append returned %v)", 5*time.Second, f.name, atFault)
					}
					time.Sleep(time.Millisecond)
				}
				failure := w.Err()
				if policy == SyncAlways && !errors.Is(atFault, failure) {
					t.Fatalf("append through the fault returned %v, want %v", atFault, failure)
				}

				if err := w.Append(ev(TypeFeedback, "after")); !errors.Is(err, failure) {
					t.Fatalf("Append after the failure = %v, want %v", err, failure)
				}
				if err := w.Sync(); !errors.Is(err, failure) {
					t.Fatalf("Sync after the failure = %v, want %v", err, failure)
				}
				if _, err := w.Rotate(); !errors.Is(err, failure) {
					t.Fatalf("Rotate after the failure = %v, want %v", err, failure)
				}
				for i := 0; i < 2; i++ {
					if err := w.Close(); !errors.Is(err, failure) {
						t.Fatalf("Close #%d after the failure = %v, want %v", i+1, err, failure)
					}
				}
				if err := w.Append(ev(TypeFeedback, "after-close")); !errors.Is(err, failure) {
					t.Fatalf("Append after Close = %v, want %v", err, failure)
				}
				if err := w.Err(); err != failure {
					t.Fatalf("Err() changed from %v to %v", failure, err)
				}

				got := replayedPayloads(t, dir)
				for i := 0; i < 5; i++ {
					if p := fmt.Sprintf("before-%d", i); !got[p] {
						t.Fatalf("acked record %q lost", p)
					}
				}
				if got["after"] || got["after-close"] {
					t.Fatalf("a record appended after the failure reached the log: %v", got)
				}
			})
		}
	}
}

// TestWALFailureMidStorm: 16 producers append under SyncAlways while the
// disk fails mid-storm. Every record whose Append returned nil must
// replay, and no Append that began after Err() read non-nil may
// return nil.
func TestWALFailureMidStorm(t *testing.T) {
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			skipUnlessFaultFails(t, f)
			dir := t.TempDir()
			w, err := OpenWAL(dir, Options{Sync: SyncAlways, SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const (
				producers = 16
				midStorm  = 500   // acked appends before the fault
				maxPerG   = 50000 // bound on a storm the fault never stops
				afterFail = 3     // appends each producer makes once failed
			)
			var (
				mu      sync.Mutex
				acked   []string
				total   atomic.Int64
				midway  = make(chan struct{})
				wg      sync.WaitGroup
				stopped atomic.Bool
			)
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					refused := 0
					for i := 0; i < maxPerG && refused < afterFail && !stopped.Load(); i++ {
						failedBefore := w.Err() != nil
						p := fmt.Sprintf("g%d-i%d", g, i)
						err := w.Append(ev(TypeFeedback, p))
						if err != nil {
							if w.Err() == nil {
								t.Errorf("%s: Append = %v while Err() is nil", p, err)
								return
							}
							refused++
							continue
						}
						if failedBefore {
							t.Errorf("%s: Append returned nil after Err() read non-nil", p)
							return
						}
						mu.Lock()
						acked = append(acked, p)
						mu.Unlock()
						if total.Add(1) == midStorm {
							close(midway)
						}
					}
				}(g)
			}
			select {
			case <-midway:
				f.inject(t, w)
			case <-time.After(30 * time.Second):
				stopped.Store(true)
				wg.Wait()
				t.Fatalf("storm acked only %d appends", total.Load())
			}
			wg.Wait()
			failure := w.Err()
			if failure == nil {
				t.Fatal("Err() nil after the storm hit the fault")
			}
			if err := w.Close(); !errors.Is(err, failure) {
				t.Fatalf("Close = %v, want %v", err, failure)
			}
			got := replayedPayloads(t, dir)
			for _, p := range acked {
				if !got[p] {
					t.Fatalf("acked record %q lost (%d acked)", p, len(acked))
				}
			}
			t.Logf("%d acked before the %s fault: %v", len(acked), f.name, failure)
		})
	}
}
