package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// newWorldSystem builds a small deterministic world and a fresh System
// for it. Every System in a shipping test is built from the same call,
// so leader, follower and oracle share Config exactly.
func newWorldSystem(t *testing.T, seed int64) (*pphcr.System, *synth.World, pphcr.Config) {
	t.Helper()
	w, err := synth.GenerateWorld(synth.Params{
		Seed: seed, Days: 3, Users: 10, Stations: 2,
		PodcastsPerDay: 10, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pphcr.Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: seed}
	sys, err := pphcr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w, cfg
}

// freshSystem builds another System with the same config.
func freshSystem(t *testing.T, cfg pphcr.Config) *pphcr.System {
	t.Helper()
	sys, err := pphcr.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// snapshotBytes serializes a quiesced system's durable state.
func snapshotBytes(t *testing.T, sys *pphcr.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyDir mirrors every file of src into a new temp dir (the "same
// segments" the oracle rebuilds from).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// driveLeader ingests a catalog slice, registers users and runs
// concurrent per-user write storms (feedback + fixes) against sys. One
// goroutine per user: callers must serialize a single user's appends,
// concurrency across users is the interesting part.
func driveLeader(t *testing.T, sys *pphcr.System, w *synth.World, users, eventsPerUser int) []string {
	t.Helper()
	itemIDs := make([]string, 0, 16)
	for i, raw := range w.Corpus {
		if i >= 16 {
			break
		}
		it, err := sys.IngestPodcast(raw)
		if err != nil {
			t.Fatal(err)
		}
		itemIDs = append(itemIDs, it.ID)
	}
	if users > len(w.Personas) {
		users = len(w.Personas)
	}
	for _, p := range w.Personas[:users] {
		if err := sys.RegisterUser(p.Profile); err != nil {
			t.Fatal(err)
		}
	}
	base := w.Params.StartDate.Add(12 * time.Hour)
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for ui, p := range w.Personas[:users] {
		wg.Add(1)
		go func(ui int, user string) {
			defer wg.Done()
			for i := 0; i < eventsPerUser; i++ {
				at := base.Add(time.Duration(i) * time.Minute)
				kind := feedback.ImplicitListen
				if i%5 == 1 {
					kind = feedback.Skip
				}
				e := feedback.Event{
					UserID: user,
					ItemID: itemIDs[(ui+i)%len(itemIDs)],
					Kind:   kind,
					At:     at,
					Categories: map[string]float64{
						"news": 0.5, "sport": 0.5,
					},
				}
				if err := sys.AddFeedback(e); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					fix := trajectory.Fix{
						Point: geo.Point{Lat: 46.0 + float64(ui)/100, Lon: 11.0 + float64(i)/1000},
						Time:  at,
					}
					if err := sys.RecordFix(user, fix); err != nil {
						errs <- err
						return
					}
				}
			}
		}(ui, p.Profile.UserID)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	userIDs := make([]string, users)
	for i, p := range w.Personas[:users] {
		userIDs[i] = p.Profile.UserID
	}
	return userIDs
}

// shipUntilCaughtUp drives the standby until its contiguous applied
// watermark covers ceil.
func shipUntilCaughtUp(t *testing.T, s *Standby, ceil uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for s.AppliedSeq() < ceil {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at %d, want %d (stats %+v)", s.AppliedSeq(), ceil, s.Stats())
		}
		if err := s.Poll(context.Background()); err != nil {
			if s.Err() != nil {
				t.Fatalf("standby wedged: %v", s.Err())
			}
			// transient; retry
		}
	}
}

// TestShippingOracle is the satellite's bit-for-bit proof: a follower
// that tailed the leader's WAL over HTTP while concurrent writers were
// appending ends in exactly the state of (a) the live leader and (b) an
// oracle rebuilt from a copy of the same segments by the ordinary
// recovery path. Runs under -race: the Run loop tails WHILE the write
// storm is in flight.
func TestShippingOracle(t *testing.T) {
	leader, w, cfg := newWorldSystem(t, 41)
	leaderDir := t.TempDir()
	dur, err := pphcr.OpenDurability(leader, pphcr.DurabilityOptions{
		Dir: leaderDir, Sync: durable.SyncAlways, SegmentBytes: 16 << 10, RetainSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	NewSource(leaderDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	follower := freshSystem(t, cfg)
	standby, err := NewStandby(follower, t.TempDir(), srv.URL, "/replication")
	if err != nil {
		t.Fatal(err)
	}
	standby.Interval = 2 * time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan struct{})
	go func() { defer close(runDone); standby.Run(stop) }()

	driveLeader(t, leader, w, 6, 80)

	ceil := dur.WALSeq()
	deadline := time.Now().Add(60 * time.Second)
	for standby.AppliedSeq() < ceil {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at %d, want %d (stats %+v)", standby.AppliedSeq(), ceil, standby.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-runDone
	if err := standby.Err(); err != nil {
		t.Fatalf("standby wedged: %v", err)
	}
	if lag := standby.LagSeconds(); lag != 0 {
		t.Errorf("caught-up standby reports lag %v, want 0", lag)
	}

	// The follower tracked the live leader...
	leaderSnap := snapshotBytes(t, leader)
	followerSnap := snapshotBytes(t, follower)
	if !bytes.Equal(leaderSnap, followerSnap) {
		t.Fatalf("follower snapshot diverges from leader: %d vs %d bytes, first diff at %d",
			len(leaderSnap), len(followerSnap), firstDiff(leaderSnap, followerSnap))
	}

	// ...and both equal the oracle rebuilt from the same segments by the
	// ordinary recovery path.
	oracle := freshSystem(t, cfg)
	if _, err := pphcr.OpenDurability(oracle, pphcr.DurabilityOptions{Dir: copyDir(t, leaderDir)}); err != nil {
		t.Fatal(err)
	}
	oracleSnap := snapshotBytes(t, oracle)
	if !bytes.Equal(followerSnap, oracleSnap) {
		t.Fatalf("follower snapshot diverges from segment-rebuilt oracle: %d vs %d bytes, first diff at %d",
			len(followerSnap), len(oracleSnap), firstDiff(followerSnap, oracleSnap))
	}
}

// TestShippingTornBoundary forces the ship boundary to land inside
// records: every /file response is truncated to a few dozen bytes, so
// nearly every scan ends on a torn final record that completes on a
// later poll. The follower must still converge to the exact oracle
// state.
func TestShippingTornBoundary(t *testing.T) {
	leader, w, cfg := newWorldSystem(t, 42)
	leaderDir := t.TempDir()
	dur, err := pphcr.OpenDurability(leader, pphcr.DurabilityOptions{
		Dir: leaderDir, Sync: durable.SyncAlways, SegmentBytes: 8 << 10, RetainSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveLeader(t, leader, w, 3, 30)

	mux := http.NewServeMux()
	NewSource(leaderDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	// chunked serves at most `limit` bytes per file fetch: the ship
	// window advances mid-record on almost every poll.
	const limit = 53
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/replication/file" {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			body := rec.Body.Bytes()
			if len(body) > limit {
				body = body[:limit]
			}
			for k, v := range rec.Header() {
				rw.Header()[k] = v
			}
			rw.WriteHeader(rec.Code)
			rw.Write(body)
			return
		}
		mux.ServeHTTP(rw, req)
	}))
	defer srv.Close()

	follower := freshSystem(t, cfg)
	standby, err := NewStandby(follower, t.TempDir(), srv.URL, "/replication")
	if err != nil {
		t.Fatal(err)
	}
	shipUntilCaughtUp(t, standby, dur.WALSeq())

	followerSnap := snapshotBytes(t, follower)
	oracle := freshSystem(t, cfg)
	if _, err := pphcr.OpenDurability(oracle, pphcr.DurabilityOptions{Dir: copyDir(t, leaderDir)}); err != nil {
		t.Fatal(err)
	}
	oracleSnap := snapshotBytes(t, oracle)
	if !bytes.Equal(followerSnap, oracleSnap) {
		t.Fatalf("follower snapshot diverges from oracle after torn-boundary shipping: %d vs %d bytes, first diff at %d",
			len(followerSnap), len(oracleSnap), firstDiff(followerSnap, oracleSnap))
	}
	if st := standby.Stats(); st.ShippedBytes == 0 || st.Polls == 0 {
		t.Fatalf("implausible standby stats: %+v", st)
	}
}

// TestPromotion kills the leader and promotes the standby: the promoted
// system equals the oracle rebuilt from the follower's own directory,
// accepts writes, and logs them durably into that directory.
func TestPromotion(t *testing.T) {
	leader, w, cfg := newWorldSystem(t, 43)
	leaderDir := t.TempDir()
	dur, err := pphcr.OpenDurability(leader, pphcr.DurabilityOptions{
		Dir: leaderDir, Sync: durable.SyncAlways, SegmentBytes: 16 << 10, RetainSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	users := driveLeader(t, leader, w, 4, 40)

	mux := http.NewServeMux()
	NewSource(leaderDir, dur.SyncWAL, dur.WALSeq).Mount(mux, "/replication")
	srv := httptest.NewServer(mux)

	follower := freshSystem(t, cfg)
	followerDir := t.TempDir()
	standby, err := NewStandby(follower, followerDir, srv.URL, "/replication")
	if err != nil {
		t.Fatal(err)
	}
	shipUntilCaughtUp(t, standby, dur.WALSeq())

	// Leader dies: process-kill semantics, and the source goes away.
	dur.Crash()
	srv.Close()

	newDur, replayed, err := standby.Promote(pphcr.DurabilityOptions{
		Sync: durable.SyncAlways, RetainSegments: true,
	})
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer newDur.Close()
	// Fully caught up before the kill: the suffix replay had nothing to
	// re-apply.
	if replayed != 0 {
		t.Errorf("promotion replayed %d records after a caught-up tail, want 0", replayed)
	}

	// The promoted node acks its own writes now, into its own log.
	preSeq := newDur.WALSeq()
	e := feedback.Event{
		UserID: users[0], ItemID: "post-promotion-item", Kind: feedback.Like,
		At:         w.Params.StartDate.Add(48 * time.Hour),
		Categories: map[string]float64{"news": 1},
	}
	if err := follower.AddFeedback(e); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if newDur.WALSeq() <= preSeq {
		t.Fatalf("post-promotion write did not advance the WAL: %d -> %d", preSeq, newDur.WALSeq())
	}
	if err := newDur.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the promoted node's directory yields its state —
	// including the post-promotion write.
	recovered := freshSystem(t, cfg)
	if _, err := pphcr.OpenDurability(recovered, pphcr.DurabilityOptions{Dir: copyDir(t, followerDir)}); err != nil {
		t.Fatal(err)
	}
	a, b := snapshotBytes(t, follower), snapshotBytes(t, recovered)
	if !bytes.Equal(a, b) {
		t.Fatalf("promoted state not recoverable from its own directory: %d vs %d bytes, first diff at %d",
			len(a), len(b), firstDiff(a, b))
	}
	got := follower.Feedback.ByUser(users[0])
	if len(got) == 0 || got[len(got)-1].ItemID != "post-promotion-item" {
		t.Fatalf("post-promotion write missing from state")
	}
}

// TestWaitApplied exercises the ack-barrier primitive: a waiter blocks
// until the watermark advances and times out cleanly when it does not.
func TestWaitApplied(t *testing.T) {
	follower, _, _ := newWorldSystem(t, 44)
	standby, err := NewStandby(follower, t.TempDir(), "http://127.0.0.1:0", "/replication")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := standby.WaitApplied(ctx, 10); err == nil {
		t.Fatal("WaitApplied(10) on an empty standby must time out")
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- standby.WaitApplied(ctx, 3)
	}()
	time.Sleep(10 * time.Millisecond)
	// Simulate three applied records.
	standby.mu.Lock()
	standby.applied = 3
	standby.cond.Broadcast()
	standby.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("WaitApplied after advance: %v", err)
	}
}

// TestStandbyMount pins the follower endpoints production and the
// kill-node harness both serve: malformed seq or timeout_ms is a 400,
// an unreached seq is a 504 once timeout_ms passes, a reached seq is a
// 200 carrying the applied watermark.
func TestStandbyMount(t *testing.T) {
	follower, _, _ := newWorldSystem(t, 45)
	standby, err := NewStandby(follower, t.TempDir(), "http://127.0.0.1:0", "/replication")
	if err != nil {
		t.Fatal(err)
	}
	standby.mu.Lock()
	standby.applied = 3
	standby.mu.Unlock()
	mux := http.NewServeMux()
	standby.Mount(mux, "/replication")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		name, query string
		want        int
	}{
		{"missing seq", "", http.StatusBadRequest},
		{"bad seq", "seq=-1", http.StatusBadRequest},
		{"bad timeout", "seq=3&timeout_ms=soon", http.StatusBadRequest},
		{"zero timeout", "seq=3&timeout_ms=0", http.StatusBadRequest},
		{"unreached seq", "seq=4&timeout_ms=50", http.StatusGatewayTimeout},
		{"reached seq", "seq=3&timeout_ms=50", http.StatusOK},
	} {
		start := time.Now()
		resp, err := http.Get(srv.URL + "/replication/wait?" + tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: answered after %v, timeout_ms not honoured", tc.name, took)
		}
		if tc.want == http.StatusOK {
			var got struct {
				Applied uint64 `json:"applied"`
			}
			if err := json.Unmarshal(body, &got); err != nil || got.Applied != 3 {
				t.Errorf("%s: body %q, want applied=3 (%v)", tc.name, body, err)
			}
		}
	}

	resp, err := http.Get(srv.URL + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StandbyStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.AppliedSeq != 3 {
		t.Fatalf("status: %+v (%v), want applied_seq=3", st, err)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestSourceFileEndpoint pins the byte-offset contract: off past EOF is
// empty, kind validation, and byte-exact suffix serving.
func TestSourceFileEndpoint(t *testing.T) {
	dir := t.TempDir()
	if err := durable.InitShipDir(dir); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, durable.SegmentFileName(1))
	payload := []byte("0123456789abcdef")
	if err := os.WriteFile(seg, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewSource(dir, nil, nil).Mount(mux, "/replication")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(q string) (int, []byte) {
		resp, err := http.Get(srv.URL + "/replication/file?" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, body := get("kind=segment&seq=1&off=10"); code != 200 || string(body) != "abcdef" {
		t.Fatalf("suffix fetch: %d %q", code, body)
	}
	if code, body := get("kind=segment&seq=1&off=" + strconv.Itoa(len(payload))); code != 200 || len(body) != 0 {
		t.Fatalf("off==EOF fetch: %d %q", code, body)
	}
	if code, _ := get("kind=segment&seq=7"); code != http.StatusNotFound {
		t.Fatalf("missing segment: %d, want 404", code)
	}
	if code, _ := get("kind=weird&seq=1"); code != http.StatusBadRequest {
		t.Fatalf("bad kind: %d, want 400", code)
	}
	if code, _ := get("kind=segment&seq=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative seq: %d, want 400", code)
	}

	status, err := http.Get(srv.URL + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	defer status.Body.Close()
	var sv StatusView
	if err := json.NewDecoder(status.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Format != durable.FormatVersion || len(sv.Segments) != 1 || sv.Segments[0].Size != int64(len(payload)) {
		t.Fatalf("status view: %+v", sv)
	}
}
