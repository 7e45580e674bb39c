package pphcr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
	"pphcr/internal/tracking"
	"pphcr/internal/trajectory"
)

// mutation is one scripted write-path operation, applied identically to
// the durable system and the never-crashed oracle.
type mutation func(*System) error

// buildMutationScript produces a deterministic mixed-workload script
// covering every durable event type: registrations, ingests, fixes,
// tracking compactions, all four feedback kinds, feedback compaction,
// editorial injections and their consumption.
func buildMutationScript(t *testing.T, w *synth.World) ([]mutation, time.Time) {
	t.Helper()
	var script []mutation
	for _, p := range w.Personas {
		prof := p.Profile
		script = append(script, func(s *System) error { return s.RegisterUser(prof) })
	}
	corpus := w.Corpus
	if len(corpus) > 60 {
		corpus = corpus[:60]
	}
	var newest time.Time
	for _, raw := range corpus {
		raw := raw
		if raw.Published.After(newest) {
			newest = raw.Published
		}
		script = append(script, func(s *System) error {
			_, err := s.IngestPodcast(raw)
			return err
		})
	}
	now := newest.Add(time.Hour)

	// Two personas drive: three commute days of fixes, then compaction.
	for pi := 0; pi < 2 && pi < len(w.Personas); pi++ {
		p := w.Personas[pi]
		user := p.Profile.UserID
		commutes, err := w.Commutes(p, w.Params.StartDate, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, fix := range commutes {
			script = append(script, func(s *System) error { return s.RecordFix(user, fix) })
		}
		script = append(script, func(s *System) error {
			_, err := s.CompactTracking(user)
			return err
		})
		// More fixes AFTER the compaction: the recovered mobility model
		// must reflect the compaction-time prefix, not these.
		day := w.Params.StartDate.AddDate(0, 0, 3)
		trace, _, err := w.CommuteTrace(p, day, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, fix := range trace[:len(trace)/2] {
			fix := fix
			script = append(script, func(s *System) error { return s.RecordFix(user, fix) })
		}
	}

	// Three fixes an hour apart hold no trip of five fixes, so their
	// compaction is refused. A refused compaction folds nothing: the
	// tracker keeps all three, and recovery and the oracle agree.
	nomad := w.Personas[0].Profile.Hometown
	for i := 0; i < 3; i++ {
		fix := trajectory.Fix{Point: nomad, Time: now.Add(time.Duration(i) * time.Hour)}
		script = append(script, func(s *System) error { return s.RecordFix("nomad", fix) })
	}
	script = append(script, func(s *System) error {
		if _, err := s.CompactTracking("nomad"); err == nil {
			return fmt.Errorf("compaction of three fixes an hour apart accepted")
		}
		if got := len(s.Tracker.Trace("nomad")); got != 3 {
			return fmt.Errorf("a refused compaction left %d of 3 fixes raw", got)
		}
		return nil
	})

	// Feedback of every kind, spread back in time so compaction below
	// has something to fold.
	kinds := []feedback.Kind{feedback.Like, feedback.ImplicitListen, feedback.Skip, feedback.Dislike}
	for i, raw := range corpus {
		if i >= 24 {
			break
		}
		user := w.Personas[i%len(w.Personas)].Profile.UserID
		ev := feedback.Event{
			UserID: user,
			ItemID: raw.ID,
			Kind:   kinds[i%len(kinds)],
			At:     now.Add(-time.Duration(i) * 6 * time.Hour),
		}
		// No Categories: the event means the catalog item's own, and
		// the log spells them out.
		script = append(script, func(s *System) error {
			if _, ok := s.Repo.Get(ev.ItemID); !ok {
				return fmt.Errorf("item %s missing", ev.ItemID)
			}
			return s.AddFeedback(ev)
		})
	}
	// Fold everything older than two days into the baseline.
	for _, p := range w.Personas {
		user := p.Profile.UserID
		script = append(script, func(s *System) error {
			s.CompactFeedback(user, now, 48*time.Hour)
			return nil
		})
	}
	// Editorial injections; the first is consumed (inject-once), the
	// second stays pending across the crash.
	u0 := w.Personas[0].Profile.UserID
	u1 := w.Personas[len(w.Personas)-1].Profile.UserID
	first, second := corpus[0].ID, corpus[1].ID
	script = append(script,
		func(s *System) error { return s.Inject(u0, first) },
		func(s *System) error { return s.Inject(u1, second) },
		func(s *System) error { s.Recommend(u0, recommend.Context{Now: now}, 3); return nil },
	)
	// A final tail of feedback; the very last event is the one the
	// crash tears.
	for i := 0; i < 6; i++ {
		user := w.Personas[i%len(w.Personas)].Profile.UserID
		ev := feedback.Event{
			UserID: user,
			ItemID: corpus[i].ID,
			Kind:   kinds[i%len(kinds)],
			At:     now.Add(-time.Duration(i) * time.Minute),
		}
		script = append(script, func(s *System) error { return s.AddFeedback(ev) })
	}
	return script, now
}

func mapsEqual(t *testing.T, what string, a, b map[string]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", what, len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || math.Abs(av-bv) > 1e-9 {
			t.Fatalf("%s[%s]: %v vs %v", what, k, av, bv)
		}
	}
}

// assertSystemsEquivalent proves got (the recovered system) matches
// want (the never-crashed oracle): stores, preference vectors, pending
// injections, and the full proactive plans for the drivers.
func assertSystemsEquivalent(t *testing.T, w *synth.World, want, got *System, now time.Time) {
	t.Helper()
	if a, b := want.Repo.Len(), got.Repo.Len(); a != b {
		t.Fatalf("repo: %d vs %d items", a, b)
	}
	if a, b := want.Profiles.Len(), got.Profiles.Len(); a != b {
		t.Fatalf("profiles: %d vs %d", a, b)
	}
	// The tracking section holds every user's folded trips and raw
	// suffix, the listeners' and the script's others.
	var wtr, gtr bytes.Buffer
	if err := want.Tracker.Snapshot(&wtr); err != nil {
		t.Fatal(err)
	}
	if err := got.Tracker.Snapshot(&gtr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wtr.Bytes(), gtr.Bytes()) {
		t.Fatalf("tracking: %d vs %d snapshot bytes", wtr.Len(), gtr.Len())
	}
	wfb, gfb := want.Feedback.Stats(), got.Feedback.Stats()
	if wfb.Users != gfb.Users || wfb.LiveEvents != gfb.LiveEvents || wfb.CompactedEvents != gfb.CompactedEvents {
		t.Fatalf("feedback stats: %+v vs %+v", wfb, gfb)
	}
	for _, p := range w.Personas {
		user := p.Profile.UserID
		if a, b := want.Tracker.FixCount(user), got.Tracker.FixCount(user); a != b {
			t.Fatalf("%s: %d vs %d fixes", user, a, b)
		}
		mapsEqual(t, user+" preferences", want.Preferences(user, now).Map(), got.Preferences(user, now).Map())
		wp, gp := want.PendingInjections(user), got.PendingInjections(user)
		if len(wp) != len(gp) {
			t.Fatalf("%s injections: %v vs %v", user, wp, gp)
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("%s injections: %v vs %v", user, wp, gp)
			}
		}
	}
	// Plans: both systems plan the same trip cold; destinations, phase-1
	// decisions, the scheduled items and their relevance must agree.
	for pi := 0; pi < 2 && pi < len(w.Personas); pi++ {
		p := w.Personas[pi]
		day := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, w.Params.Days))
		full, _, err := w.CommuteTrace(p, day, true)
		if err != nil {
			t.Fatal(err)
		}
		partial := full.Head(3 * time.Minute)
		at := partial[len(partial)-1].Time
		wplan, werr := want.PlanTrip(p.Profile.UserID, partial, at, nil)
		gplan, gerr := got.PlanTrip(p.Profile.UserID, partial, at, nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s plan errors: %v vs %v", p.Profile.UserID, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if wplan.Proactive != gplan.Proactive || wplan.Reason != gplan.Reason {
			t.Fatalf("%s phase-1: %v %q vs %v %q", p.Profile.UserID,
				wplan.Proactive, wplan.Reason, gplan.Proactive, gplan.Reason)
		}
		if wplan.Prediction.Dest != gplan.Prediction.Dest ||
			math.Abs(wplan.Prediction.Confidence-gplan.Prediction.Confidence) > 1e-9 ||
			wplan.Prediction.DeltaT != gplan.Prediction.DeltaT {
			t.Fatalf("%s prediction: %+v vs %+v", p.Profile.UserID, wplan.Prediction, gplan.Prediction)
		}
		if math.Abs(wplan.Plan.TotalValue-gplan.Plan.TotalValue) > 1e-9 || wplan.Plan.Used != gplan.Plan.Used {
			t.Fatalf("%s plan value: %v/%v vs %v/%v", p.Profile.UserID,
				wplan.Plan.TotalValue, wplan.Plan.Used, gplan.Plan.TotalValue, gplan.Plan.Used)
		}
		if len(wplan.Plan.Items) != len(gplan.Plan.Items) {
			t.Fatalf("%s plan size: %d vs %d", p.Profile.UserID, len(wplan.Plan.Items), len(gplan.Plan.Items))
		}
		for i := range wplan.Plan.Items {
			wi, gi := wplan.Plan.Items[i], gplan.Plan.Items[i]
			if wi.Scored.Item.ID != gi.Scored.Item.ID ||
				math.Abs(wi.Scored.Compound-gi.Scored.Compound) > 1e-9 ||
				wi.StartOffset != gi.StartOffset {
				t.Fatalf("%s plan item %d: %s@%v (%v) vs %s@%v (%v)", p.Profile.UserID, i,
					wi.Scored.Item.ID, wi.StartOffset, wi.Scored.Compound,
					gi.Scored.Item.ID, gi.StartOffset, gi.Scored.Compound)
			}
		}
	}
}

// TestCrashRecoveryMatchesOracle is the end-to-end durability proof: a
// system with a WAL applies a mixed mutation script (with a checkpoint
// mid-way), crashes with the final record torn mid-write, and recovers
// into a state equivalent — plans, preference vectors to 1e-9, stores,
// injections — to an oracle that executed the same script without the
// torn final mutation and never crashed.
func TestCrashRecoveryMatchesOracle(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 11, Days: 5, Users: 3, Stations: 3, PodcastsPerDay: 30,
		TrainingDocsPerCategory: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 11}
	script, now := buildMutationScript(t, w)

	dir := t.TempDir()
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if dur.Recovered() {
		t.Fatal("fresh directory reported recovered state")
	}
	for i, m := range script {
		if err := m(live); err != nil {
			t.Fatalf("live mutation %d: %v", i, err)
		}
		if i == len(script)/2 {
			if err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dur.Crash()

	// Hard-cut the WAL mid-record: the torn final record is the last
	// mutation, which the oracle therefore skips.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 16 {
		t.Fatalf("last segment too small to tear (%d bytes)", info.Size())
	}
	if err := os.Truncate(last, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range script[:len(script)-1] {
		if err := m(oracle); err != nil {
			t.Fatalf("oracle mutation %d: %v", i, err)
		}
	}

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer rdur.Close()
	st := rdur.Stats()
	if !rdur.Recovered() || !st.RecoveredTorn {
		t.Fatalf("recovery stats: recovered=%v torn=%v", rdur.Recovered(), st.RecoveredTorn)
	}
	if st.Replayed == 0 || st.Replayed >= len(script) {
		t.Fatalf("replayed %d events of a %d-mutation script with a mid-way checkpoint", st.Replayed, len(script))
	}

	assertSystemsEquivalent(t, w, oracle, recovered, now)
}

// TestCleanShutdownRecoversFromFinalCheckpoint proves Close's final
// checkpoint: after a clean shutdown recovery restores everything from
// the snapshot with zero WAL replay.
func TestCleanShutdownRecoversFromFinalCheckpoint(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 7, Days: 3, Users: 2, Stations: 2, PodcastsPerDay: 20,
		TrainingDocsPerCategory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 7}
	script, now := buildMutationScript(t, w)

	dir := t.TempDir()
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range script {
		if err := m(live); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer rdur.Crash()
	if got := rdur.ReplayedEvents(); got != 0 {
		t.Fatalf("replayed %d events after a clean shutdown, want 0", got)
	}
	assertSystemsEquivalent(t, w, live, recovered, now)
}

// TestCloseAfterCrashRefuses: a second Close is a no-op, but a Close
// after Crash must not report a final checkpoint it never wrote.
func TestCloseAfterCrashRefuses(t *testing.T) {
	for _, crash := range []bool{false, true} {
		sys, _ := newTestSystem(t)
		dur, err := OpenDurability(sys, DurabilityOptions{Dir: t.TempDir(), Sync: durable.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if crash {
			dur.Crash()
		} else if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			err := dur.Close()
			if crash && !errors.Is(err, ErrCrashed) {
				t.Fatalf("Close %d after Crash = %v, want ErrCrashed", i+1, err)
			}
			if !crash && err != nil {
				t.Fatalf("Close %d after Close = %v, want nil", i+1, err)
			}
		}
	}
}

// TestWritesRacingShutdownAreRefused: a closed or crashed Durability
// keeps its WAL attached, so each write that races Close or Crash is
// either logged or refused with ErrNotLogged and not applied. The
// recovered directory holds every write that returned nil and none that
// was refused, and a write after the stop changes no snapshot byte.
func TestWritesRacingShutdownAreRefused(t *testing.T) {
	for _, crash := range []bool{false, true} {
		sys, w := newTestSystem(t)
		dir := t.TempDir()
		dur, err := OpenDurability(sys, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		user := w.Personas[0].Profile.UserID
		if err := sys.RegisterUser(w.Personas[0].Profile); err != nil {
			t.Fatal(err)
		}
		like := func(id string) error {
			return sys.AddFeedback(feedback.Event{UserID: user, ItemID: id, Kind: feedback.Like, At: w.Params.StartDate})
		}
		const writers = 16
		acked := make([][]string, writers)
		refused := make([]string, writers)
		var nAcked atomic.Int64
		var wg sync.WaitGroup
		for i := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range 4096 {
					id := fmt.Sprintf("w%02d-%d", i, n)
					err := like(id)
					if err == nil {
						acked[i] = append(acked[i], id)
						nAcked.Add(1)
						continue
					}
					if !errors.Is(err, ErrNotLogged) {
						t.Errorf("write %s: %v, want ErrNotLogged", id, err)
					}
					refused[i] = id
					return
				}
			}()
		}
		for nAcked.Load() < 8*writers {
			time.Sleep(time.Millisecond)
		}
		if crash {
			dur.Crash()
		} else if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		before := snapshotBytes(t, sys)
		if err := like("after-stop"); !errors.Is(err, ErrNotLogged) {
			t.Fatalf("crash=%v: write after stop = %v, want ErrNotLogged", crash, err)
		}
		if !bytes.Equal(before, snapshotBytes(t, sys)) {
			t.Fatalf("crash=%v: a refused write changed the snapshot", crash)
		}
		recovered, err := NewWorld(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		held := map[string]bool{}
		for _, e := range recovered.Feedback.Log(user) {
			held[e.ItemID] = true
		}
		for i := range writers {
			for _, id := range acked[i] {
				if !held[id] {
					t.Fatalf("crash=%v: acked write %s lost", crash, id)
				}
			}
			if held[refused[i]] {
				t.Fatalf("crash=%v: refused write %s recovered", crash, refused[i])
			}
		}
		if len(held) != int(nAcked.Load()) {
			t.Fatalf("crash=%v: recovered %d writes, %d acked", crash, len(held), nAcked.Load())
		}
		rdur.Crash()
	}
}

// TestRecoveryToleratesFailedIngestRecord: a duplicate ingest is refused
// before it is logged, but an older node logged an ingest before its
// repository Add ran, so its log can hold a record whose Add failed live
// (duplicate ID). Replay must skip it exactly as that node did, not
// abort recovery.
func TestRecoveryToleratesFailedIngestRecord(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 17, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 17}
	dir := t.TempDir()
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	it, err := live.IngestPodcast(w.Corpus[0])
	if err != nil {
		t.Fatal(err)
	}
	seq := dur.WALSeq()
	if _, err := live.IngestPodcast(w.Corpus[0]); err == nil {
		t.Fatal("duplicate ingest accepted")
	}
	if dur.WALSeq() != seq {
		t.Fatal("a refused ingest reached the log")
	}
	// The duplicate as an older node logged it: the payload the ingest
	// write emits.
	if err := live.emit(durable.TypeIngest, it); err != nil {
		t.Fatal(err)
	}
	if _, err := live.IngestPodcast(w.Corpus[1]); err != nil {
		t.Fatal(err)
	}
	dur.Crash()

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatalf("recovery aborted on the failed-ingest record: %v", err)
	}
	defer rdur.Crash()
	if got := recovered.Repo.Len(); got != live.Repo.Len() {
		t.Fatalf("recovered %d items, live had %d", got, live.Repo.Len())
	}
}

// TestReplaySkipsItemWithoutFiniteNorm: an ingest record written by a
// version whose Add still took any weight can hold one whose square
// overflows (JSON spells 1e200, not NaN). Replay skips the item as it
// skips every record whose Add fails.
func TestReplaySkipsItemWithoutFiniteNorm(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 17, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWorld(w, 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestPodcast(w.Corpus[0]); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"ID":"huge","Duration":60000000000,"Categories":{"music":1e200}}`)
	if err := s.applyDurableEvent(durable.Event{Type: durable.TypeIngest, Payload: payload}); err != nil {
		t.Fatalf("replay aborted on the item: %v", err)
	}
	if _, ok := s.Repo.Get("huge"); ok || s.Repo.Len() != 1 {
		t.Fatalf("item without a finite norm was restored (%d items)", s.Repo.Len())
	}
}

// TestReplaySkipsInstantsARecordCannotHold: older nodes accepted and
// logged fixes and feedback events dated after 2262, which the stores now
// refuse with a named error. Recovery skips those records, keeps the ones
// around them, and ends in the state of a node that refused them live.
func TestReplaySkipsInstantsARecordCannotHold(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 17, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 17}
	dir := t.TempDir()
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2016, 11, 21, 8, 0, 0, 0, time.UTC)
	far := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	like := func(when time.Time) feedback.Event {
		return feedback.Event{UserID: "u", ItemID: "ep", Kind: feedback.Like, At: when, Categories: map[string]float64{"music": 1}}
	}
	fix := func(when time.Time) trajectory.Fix {
		return trajectory.Fix{Point: geo.Point{Lat: 45.07, Lon: 7.68}, Time: when}
	}
	if err := live.AddFeedback(like(far)); !errors.Is(err, feedback.ErrInstantRange) {
		t.Fatalf("AddFeedback(2300) = %v, want ErrInstantRange", err)
	}
	if err := live.RecordFix("u", fix(far)); !errors.Is(err, tracking.ErrInstantRange) {
		t.Fatalf("RecordFix(2300) = %v, want ErrInstantRange", err)
	}
	// The 2300 records are logged as an older node logged them: the
	// payloads the write paths emit.
	for _, err := range []error{
		live.AddFeedback(like(at)),
		live.emit(durable.TypeFeedback, like(far)),
		live.AddFeedback(like(at.Add(time.Minute))),
		live.RecordFix("u", fix(at)),
		live.RecordFix("u", fix(at.Add(time.Minute))),
		live.emit(durable.TypeFix, fixEvent{User: "u", Fix: fix(far)}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	dur.Crash()

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatalf("recovery aborted on a 2300 record: %v", err)
	}
	defer rdur.Crash()
	if got, want := recovered.Feedback.Events("u"), live.Feedback.Events("u"); len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered events %+v, want %+v", got, want)
	}
	if got, want := recovered.Tracker.Trace("u"), live.Tracker.Trace("u"); len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered trace %+v, want %+v", got, want)
	}
}

// TestRecoveryRejectsAllCorruptCheckpoints: when checkpoint files exist
// but none passes validation, recovery must fail loudly instead of
// silently booting from the (truncated) WAL tail with most state gone.
func TestRecoveryRejectsAllCorruptCheckpoints(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 13, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 13}
	dir := t.TempDir()
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.RegisterUser(w.Personas[0].Profile); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("checkpoints: %v %v", snaps, err)
	}
	for _, p := range snaps {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurability(fresh, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval}); err == nil {
		t.Fatal("recovery accepted a directory whose every checkpoint is corrupt")
	}
}

// TestConcurrentAppendsDuringCheckpoint exercises the mutation barrier
// under -race: writers hammer the durable write paths while checkpoints
// run concurrently, then the recovered state must match the live
// system's final state exactly (every completed mutation either in the
// restored snapshot or replayed from the WAL — never both, never
// neither).
func TestConcurrentAppendsDuringCheckpoint(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 5, Days: 2, Users: 4, Stations: 2, PodcastsPerDay: 10,
		TrainingDocsPerCategory: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 5}
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Personas {
		if err := live.RegisterUser(p.Profile); err != nil {
			t.Fatal(err)
		}
	}
	var items []string
	for i, raw := range w.Corpus {
		if i >= 10 {
			break
		}
		it, err := live.IngestPodcast(raw)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, it.ID)
	}
	now := w.Params.StartDate.AddDate(0, 0, w.Params.Days)

	const perWorker = 300
	var wg sync.WaitGroup
	for wi, p := range w.Personas {
		wg.Add(1)
		go func(wi int, user string) {
			defer wg.Done()
			base := now.Add(time.Duration(wi) * time.Second)
			for i := 0; i < perWorker; i++ {
				ev := feedback.Event{
					UserID: user,
					ItemID: items[i%len(items)],
					Kind:   feedback.Kind(i % 4),
					At:     base.Add(time.Duration(i) * time.Millisecond),
				}
				if err := live.AddFeedback(ev); err != nil {
					t.Errorf("feedback: %v", err)
					return
				}
				if i%50 == 0 {
					fix := trajectory.Fix{
						Point: w.Personas[wi].Profile.Hometown,
						Time:  base.Add(time.Duration(i) * time.Millisecond),
					}
					if err := live.RecordFix(user, fix); err != nil {
						t.Errorf("fix: %v", err)
						return
					}
				}
			}
		}(wi, p.Profile.UserID)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := dur.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer rdur.Crash()
	readAt := now.Add(time.Hour)
	for _, p := range w.Personas {
		user := p.Profile.UserID
		if a, b := live.Feedback.Len(), recovered.Feedback.Len(); a != b {
			t.Fatalf("feedback len: %d vs %d", a, b)
		}
		if a, b := live.Tracker.FixCount(user), recovered.Tracker.FixCount(user); a != b {
			t.Fatalf("%s fixes: %d vs %d", user, a, b)
		}
		mapsEqual(t, user+" preferences", live.Preferences(user, readAt).Map(), recovered.Preferences(user, readAt).Map())
	}
}

// BenchmarkRecoveryReplay measures end-to-end recovery throughput: b.N
// feedback events are logged by a live system, which then crashes; the
// timed section is OpenDurability replaying them through the System
// entry points into a fresh instance. ns/op is per replayed event
// (recovery_events_per_sec in the perf trajectory).
func BenchmarkRecoveryReplay(b *testing.B) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 2, Stations: 2, PodcastsPerDay: 10,
		TrainingDocsPerCategory: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 3}
	live, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	user := w.Personas[0].Profile.UserID
	if err := live.RegisterUser(w.Personas[0].Profile); err != nil {
		b.Fatal(err)
	}
	it, err := live.IngestPodcast(w.Corpus[0])
	if err != nil {
		b.Fatal(err)
	}
	now := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	for i := 0; i < b.N; i++ {
		ev := feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Kind(i % 4),
			At: now.Add(time.Duration(i) * time.Millisecond),
		}
		if err := live.AddFeedback(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := dur.wal.Sync(); err != nil {
		b.Fatal(err)
	}
	dur.Crash()

	recovered, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rdur.ReplayedEvents() < b.N {
		b.Fatalf("replayed %d of %d", rdur.ReplayedEvents(), b.N)
	}
	rdur.Crash()
}
