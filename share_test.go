package pphcr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/profile"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// shareT0 is the instant the shared-catalog tests write around.
var shareT0 = time.Date(2016, 11, 21, 8, 0, 0, 0, time.UTC)

// addCatalog adds n synthetic clips straight to the repository, each
// with its own 2–4-category map, the way every node of a deployment
// loads the same seeded catalog before it opens its log.
func addCatalog(tb testing.TB, sys *System, n int) []*content.Item {
	tb.Helper()
	items := catalogItems(n)
	for _, it := range items {
		if err := sys.Repo.Add(it); err != nil {
			tb.Fatal(err)
		}
	}
	return items
}

// catalogItems returns addCatalog's n clips, not added anywhere.
func catalogItems(n int) []*content.Item {
	rng := rand.New(rand.NewSource(int64(n)))
	items := make([]*content.Item, n)
	for i := range items {
		cats := map[string]float64{}
		for len(cats) < 2+i%3 {
			cats[content.Categories[rng.Intn(len(content.Categories))]] = 0.1 + rng.Float64()
		}
		items[i] = &content.Item{
			ID: fmt.Sprintf("clip-%04d", i), Kind: content.KindClip,
			Duration: 4 * time.Minute, Published: shareT0.Add(-time.Hour), Categories: cats,
		}
	}
	return items
}

func sameMap(a, b map[string]float64) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFeedbackKeepsCatalogMap: an event about a catalog item whose
// categories equal the item's, or that carries none, is kept by the
// item's seq and reads back the item's own categories, on every path an
// event enters a node by — a live write, WAL recovery, a standby apply
// and checkpoint restore — and a caller's map is never kept.
func TestFeedbackKeepsCatalogMap(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 3}
	node := func() (*System, []*content.Item) {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, addCatalog(t, sys, 8)
	}
	assertShared := func(t *testing.T, sys *System) {
		t.Helper()
		for i, e := range sys.Feedback.Events("lilly") {
			it, _ := sys.Repo.Get(e.ItemID)
			if !maps.EqualFunc(e.Categories, maps.Collect(it.Weights()), sameBits) {
				t.Fatalf("event %d about %s reads back %v, not the catalog item's categories", i, e.ItemID, e.Categories)
			}
		}
		if n := len(sys.Feedback.Events("lilly")); n != 8 {
			t.Fatalf("%d events, want 8", n)
		}
	}

	dir := t.TempDir()
	live, items := node()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var shipped []durable.Event
	hook := live.durHook
	live.SetMutationHook(func(e durable.Event) error {
		shipped = append(shipped, e)
		return hook(e)
	})
	for i, it := range items {
		// A copy of the item's map, not the map itself, as every event
		// decoded off the wire carries; or no categories, which means
		// the catalog item's own.
		e := feedback.Event{
			UserID: "lilly", ItemID: it.ID, Kind: feedback.Kind(i % 4),
			At: shareT0.Add(time.Duration(i) * time.Minute), Categories: maps.Clone(it.Categories),
		}
		if i%2 == 1 {
			e.Categories = nil
		}
		if err := live.AddFeedback(e); err != nil {
			t.Fatal(err)
		}
	}
	// The log spells out the categories an event left to the catalog.
	for _, e := range shipped {
		var fe feedback.Event
		if err := json.Unmarshal(e.Payload, &fe); err != nil {
			t.Fatal(err)
		}
		it, _ := live.Repo.Get(fe.ItemID)
		if !maps.EqualFunc(fe.Categories, maps.Collect(it.Weights()), sameBits) {
			t.Fatalf("logged event about %s carries %v", fe.ItemID, fe.Categories)
		}
	}
	t.Run("live", func(t *testing.T) { assertShared(t, live) })
	dur.Crash()

	t.Run("recovery", func(t *testing.T) {
		recovered, _ := node()
		rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer rdur.Crash()
		if rdur.ReplayedEvents() == 0 {
			t.Fatal("nothing replayed")
		}
		assertShared(t, recovered)
	})
	t.Run("standby apply", func(t *testing.T) {
		follower, _ := node()
		for _, e := range shipped {
			if err := follower.ApplyReplicated(e); err != nil {
				t.Fatal(err)
			}
		}
		assertShared(t, follower)
	})
	t.Run("checkpoint restore", func(t *testing.T) {
		var buf bytes.Buffer
		var err error
		live.checkpointBarrier(func() { err = live.Snapshot(&buf) })
		if err != nil {
			t.Fatal(err)
		}
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		assertShared(t, restored)
	})

	t.Run("caller map copied", func(t *testing.T) {
		sys, items := node()
		equal := maps.Clone(items[0].Categories)
		other := map[string]float64{"food": 0.7, "culture": 0.3}
		for _, e := range []feedback.Event{
			{UserID: "greg", ItemID: items[0].ID, Kind: feedback.Like, At: shareT0, Categories: equal},
			{UserID: "greg", ItemID: items[1].ID, Kind: feedback.Like, At: shareT0, Categories: other},
			{UserID: "greg", ItemID: "not-in-catalog", Kind: feedback.Skip, At: shareT0, Categories: other},
		} {
			if err := sys.AddFeedback(e); err != nil {
				t.Fatal(err)
			}
		}
		evs := sys.Feedback.Events("greg")
		if len(evs) != 3 {
			t.Fatalf("%d events, want 3", len(evs))
		}
		for i, e := range evs[1:] {
			if m := e.Categories; sameMap(m, other) || sameMap(m, items[1].Categories) {
				t.Fatalf("event %d kept a map it does not own", i+1)
			}
		}
		want := sys.Preferences("greg", shareT0)
		for _, m := range []map[string]float64{equal, other} {
			for k := range m {
				m[k] = -1e9
			}
			m["art"] = 42
		}
		if got := sys.Preferences("greg", shareT0); !reflect.DeepEqual(got, want) {
			t.Fatalf("mutating the caller's maps moved preferences: %v, was %v", got, want)
		}
	})
}

// TestNilCategoryFeedbackRacingIngest: listeners send feedback with nil
// Categories about the item an ingest is about to add, so the ingest
// lands before, during and after their writes. A write resolves nil
// once, before it is logged, and applies what it logged, so a follower
// fed the logged records in their order holds the leader's state byte
// for byte, whichever side of the ingest a resolution fell on.
func TestNilCategoryFeedbackRacingIngest(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 3}
	leader, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		records []durable.Event
	)
	leader.SetMutationHook(func(e durable.Event) error {
		mu.Lock()
		defer mu.Unlock()
		records = append(records, durable.Event{Type: e.Type, Payload: bytes.Clone(e.Payload)})
		return nil
	})

	items := catalogItems(50)
	var (
		next atomic.Int32 // the item the ingest adds next
		sent atomic.Int32 // feedback writes about it so far
		wg   sync.WaitGroup
	)
	for u := 0; u < 4; u++ {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			for i := 0; ; i++ {
				n := int(next.Load())
				if n == len(items) {
					return
				}
				if err := leader.AddFeedback(feedback.Event{
					UserID: user, ItemID: items[n].ID, Kind: feedback.Kind(i % 4),
					At: shareT0.Add(time.Duration(i) * time.Second),
				}); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
			}
		}(fmt.Sprintf("listener-%d", u))
	}
	for i, it := range items {
		// Each item is added while feedback about it is in flight.
		for from := sent.Load(); sent.Load() < from+4; {
			runtime.Gosched()
		}
		if err := leader.addItem(it); err != nil {
			t.Fatal(err)
		}
		next.Store(int32(i + 1))
	}
	wg.Wait()
	leader.SetMutationHook(nil)

	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range records {
		if err := follower.ApplyReplicated(e); err != nil {
			t.Fatalf("record %d (%s): %v", i, e.Type, err)
		}
	}
	if a, b := snapshotBytes(t, leader), snapshotBytes(t, follower); !bytes.Equal(a, b) {
		t.Fatalf("follower's snapshot (%d B) differs from the leader's (%d B)", len(b), len(a))
	}
}

// TestCatalogFeedbackAllocatesNoMore: keeping the catalog's map is the
// point; feedback on a catalog item must not allocate more than the
// same feedback on an item the catalog does not hold.
func TestCatalogFeedbackAllocatesNoMore(t *testing.T) {
	sys, _ := newTestSystem(t)
	it := addCatalog(t, sys, 1)[0]
	cats := maps.Clone(it.Categories)
	at := shareT0
	write := func(user, item string) func() {
		return func() {
			at = at.Add(time.Second)
			if err := sys.AddFeedback(feedback.Event{UserID: user, ItemID: item, Kind: feedback.Like, At: at, Categories: cats}); err != nil {
				t.Fatal(err)
			}
		}
	}
	known := testing.AllocsPerRun(500, write("a", it.ID))
	unknown := testing.AllocsPerRun(500, write("b", "not-in-catalog"))
	t.Logf("allocs per AddFeedback: catalog item %.0f, unknown item %.0f", known, unknown)
	if known > unknown {
		t.Fatalf("feedback on a catalog item allocates %.0f, on an unknown item %.0f", known, unknown)
	}
}

// TestSharedCategoryMapsUnderCheckpoint races writers of events about
// catalog items, each with the caller's own map or a copy of it,
// against snapshots, which encode the events after the shard lock is
// released (a checkpoint's, inside the commit barrier, and the feedback
// store's own, outside it), and against the two read paths; under -race
// it is the proof that neither a caller's map nor a map handed out is
// written by the store, and that the catalog's pairs are read safely.
func TestSharedCategoryMapsUnderCheckpoint(t *testing.T) {
	sys, _ := newTestSystem(t)
	items := addCatalog(t, sys, 40)
	orig := make([]map[string]float64, len(items))
	for i, it := range items {
		orig[i] = maps.Clone(it.Categories)
	}
	users := []string{"u0", "u1", "u2", "u3"}
	var wg sync.WaitGroup
	for wi := range users {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				it := items[(i*7+wi)%len(items)]
				cats := it.Categories
				if i%2 == 1 {
					cats = maps.Clone(cats)
				}
				if err := sys.AddFeedback(feedback.Event{
					UserID: users[(i+wi)%len(users)], ItemID: it.ID, Kind: feedback.Kind(i % 4),
					At: shareT0.Add(time.Duration(i) * time.Second), Categories: cats,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			var err error
			if j%2 == 0 {
				sys.checkpointBarrier(func() { err = sys.Snapshot(io.Discard) })
			} else {
				err = sys.Feedback.Snapshot(io.Discard)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 300; j++ {
			u := users[j%len(users)]
			sys.Preferences(u, shareT0.Add(time.Hour))
			for _, e := range sys.Feedback.ByUser(u) {
				e.Categories["scribble"] = 1
			}
		}
	}()
	wg.Wait()

	for i, it := range items {
		if !reflect.DeepEqual(it.Categories, orig[i]) {
			t.Fatalf("catalog map of %s changed: %v, was %v", it.ID, it.Categories, orig[i])
		}
	}
	for _, u := range users {
		assertIndexMatchesReplay(t, sys, u, shareT0.Add(time.Hour))
	}
}

// TestCatalogItemsHoldNoMap: once the catalog holds an item, the item
// holds no map, whichever path it arrived by — Repo.Add, an ingest
// replayed from the WAL, one shipped to a standby (ApplyReplicated) and
// a checkpoint restore — and whichever read hands it out: Get, All,
// ItemAt and a View. Each reads back through Weights the map it was
// added with, bit for bit.
func TestCatalogItemsHoldNoMap(t *testing.T) {
	w, err := synth.GenerateWorld(synth.Params{
		Seed: 3, Days: 2, Users: 1, Stations: 2, PodcastsPerDay: 5, TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: w.Training, Vocabulary: w.FlatVocab, Seed: 3}
	want := map[string]map[string]float64{}
	node := func() *System {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range addCatalog(t, sys, 6) {
			want[it.ID] = it.Categories
		}
		return sys
	}
	check := func(t *testing.T, sys *System) {
		t.Helper()
		if n := sys.Repo.Len(); n != len(want) {
			t.Fatalf("%d items, want %d", n, len(want))
		}
		all := map[string]*content.Item{}
		for _, it := range sys.Repo.All() {
			all[it.ID] = it
		}
		var v content.View
		sys.Repo.ReadView(&v)
		for id, m := range want {
			seq, ok := sys.Repo.Seq(id)
			got, _ := sys.Repo.Get(id)
			if !ok || got == nil {
				t.Fatalf("%s missing", id)
			}
			for read, it := range map[string]*content.Item{"Get": got, "All": all[id], "ItemAt": sys.Repo.ItemAt(seq), "View": v.Item(seq)} {
				if it.Categories != nil {
					t.Fatalf("%s: %s hands out an item holding a map", read, id)
				}
				if ws := maps.Collect(it.Weights()); !maps.EqualFunc(ws, m, sameBits) {
					t.Fatalf("%s: %s weighs %v, added with %v", read, id, ws, m)
				}
			}
		}
	}

	dir := t.TempDir()
	live := node()
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var shipped []durable.Event
	hook := live.durHook
	live.SetMutationHook(func(e durable.Event) error {
		shipped = append(shipped, e)
		return hook(e)
	})
	if err := live.IngestAll(w.Corpus[:4]); err != nil {
		t.Fatal(err)
	}
	// An ingest's input map is the one its log record carries.
	for _, e := range shipped {
		var it content.Item
		if err := json.Unmarshal(e.Payload, &it); err != nil {
			t.Fatal(err)
		}
		want[it.ID] = it.Categories
	}
	if len(want) != 10 {
		t.Fatalf("%d items to check, want 10", len(want))
	}
	t.Run("Add", func(t *testing.T) { check(t, live) })
	var buf bytes.Buffer
	live.checkpointBarrier(func() { err = live.Snapshot(&buf) })
	if err != nil {
		t.Fatal(err)
	}
	dur.Crash()
	t.Run("WAL replay", func(t *testing.T) {
		recovered := node()
		rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer rdur.Crash()
		if rdur.ReplayedEvents() != len(shipped) {
			t.Fatalf("replayed %d events, want %d", rdur.ReplayedEvents(), len(shipped))
		}
		check(t, recovered)
	})
	t.Run("ApplyReplicated", func(t *testing.T) {
		follower := node()
		for _, e := range shipped {
			if err := follower.ApplyReplicated(e); err != nil {
				t.Fatal(err)
			}
		}
		check(t, follower)
	})
	t.Run("Restore", func(t *testing.T) {
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		check(t, restored)
	})
}

// BenchmarkRetainedPerItem measures what one catalog item leaves on the
// heap: b.N batches of 20 000 items with 2–4 categories each, in the
// shape of the benchmark's catalog, each added to an empty repository
// by a caller that keeps nothing of it. It reports HeapAlloc after two
// collections, after the batch minus before it, per item. Run it with
// -benchtime 3x; the ns/op column is the batch's.
func BenchmarkRetainedPerItem(b *testing.B) {
	const n = 20000
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var retained float64
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(int64(iter)))
		before := heap()
		b.StartTimer()
		repo := content.NewRepository()
		for i := 0; i < n; i++ {
			cats := make(map[string]float64, 4)
			for len(cats) < 2+rng.Intn(3) {
				cats[content.Categories[rng.Intn(len(content.Categories))]] = 0.2 + rng.Float64()
			}
			if err := repo.Add(&content.Item{
				ID: fmt.Sprintf("cat-%06d", i), Title: fmt.Sprintf("bench item %d", i), Program: "bench",
				Kind: content.KindClip, Duration: 4 * time.Minute, Published: shareT0.Add(time.Duration(i) * time.Second),
				Categories: cats, BitrateKbps: 96,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		retained += float64(heap()) - float64(before)
		runtime.KeepAlive(repo)
		b.StartTimer()
	}
	b.ReportMetric(retained/float64(b.N*n), "retained-B/item")
}

// retainedPerWrite runs b.N fixed batches of writes, each on a fresh
// set of users, and reports the heap the writes left behind: HeapAlloc
// after two collections, after the batch minus before it, per write.
func retainedPerWrite(b *testing.B, sys *System, write func(user string, i int) error) {
	const batch, users = 20000, 20
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var retained float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		names := make([]string, users)
		for u := range names {
			names[u] = fmt.Sprintf("w%d-%02d", n, u)
		}
		before := heap()
		b.StartTimer()
		for i := 0; i < batch; i++ {
			if err := write(names[i%users], i/users); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		retained += float64(heap()) - float64(before)
		b.StartTimer()
	}
	runtime.KeepAlive(sys)
	b.ReportMetric(retained/float64(b.N*batch), "retained-B/op")
}

// BenchmarkRetainedPerWrite measures what one write leaves on a node's
// heap, by kind: feedback about a catalog item (a 16 B record that names
// the item by its catalog seq, its ID and map the catalog's), feedback
// about an unknown item (the record, a side-table entry with its ID, and
// a private copy of its map), a GPS fix nothing compacts, and a GPS fix
// whose trip has closed and been compacted. Run it with -benchtime 3x;
// the ns/op column is the batch's.
func BenchmarkRetainedPerWrite(b *testing.B) {
	feedbackOn := func(catalog bool) func(b *testing.B) {
		return func(b *testing.B) {
			sys, _ := newTestSystem(b)
			items := addCatalog(b, sys, 200)
			ids := make([]string, len(items))
			for i, it := range items {
				ids[i] = it.ID
				if !catalog {
					ids[i] = "gone-" + it.ID
				}
			}
			retainedPerWrite(b, sys, func(user string, i int) error {
				it, id := items[i%len(items)], ids[i%len(items)]
				return sys.AddFeedback(feedback.Event{
					UserID: user, ItemID: id, Kind: feedback.Like,
					At: shareT0.Add(time.Duration(i) * time.Second), Categories: it.Categories,
				})
			})
		}
	}
	b.Run("feedback-catalog-item", feedbackOn(true))
	b.Run("feedback-unknown-item", feedbackOn(false))
	b.Run("fix", func(b *testing.B) {
		sys, _ := newTestSystem(b)
		retainedPerWrite(b, sys, func(user string, i int) error {
			return sys.RecordFix(user, trajectory.Fix{
				Point: geo.Destination(geo.Point{Lat: 45.0703, Lon: 7.6869}, float64(i%360), float64(i)),
				Time:  shareT0.Add(time.Duration(i) * time.Second),
			})
		})
	})
	// Commute legs of 41 fixes twelve hours apart, each user compacted
	// on the first fix of every leg after the first, which closes the
	// leg before: what is left per fix is the folded records, the
	// mobility model and the open leg's raw fixes.
	b.Run("fix-trip-closed-compacted", func(b *testing.B) {
		sys, _ := newTestSystem(b)
		home := geo.Point{Lat: 45.0703, Lon: 7.6869}
		work := geo.Destination(home, 70, 9000)
		retainedPerWrite(b, sys, func(user string, i int) error {
			const leg = 41
			trip, k := i/leg, i%leg
			from, to := home, work
			if trip%2 == 1 {
				from, to = work, home
			}
			p := geo.Destination(geo.Interpolate(from, to, float64(k)/(leg-1)), float64(k*37%360), float64(k%7*2))
			if err := sys.RecordFix(user, trajectory.Fix{
				Point: p,
				Time:  shareT0.Add(time.Duration(trip)*12*time.Hour + time.Duration(k)*30*time.Second),
			}); err != nil || k != 0 || trip == 0 {
				return err
			}
			_, err := sys.CompactTracking(user)
			return err
		})
	})
}

// BenchmarkRetainedPerListener measures what a listener leaves on a
// node's heap once they are registered, and once their feedback is
// logged, by history: one like, one like of an item the catalog does not
// hold, sent with no categories (what the benchmark's acked_write
// sends), 200 likes over a catalog spanning every category, and the same
// with 16 dislikes. The registered row is RegisterUser alone, a profile
// sharing its name and interests with the caller as BuildPopulation's
// clones do: the profiles DB's cost. The feedback rows count everything
// a listener's writes leave behind, the feedback store's state and the
// plan cache's per-user entry alike. Run it with -benchtime 3x; the
// ns/op column is the batch's.
func BenchmarkRetainedPerListener(b *testing.B) {
	const listeners = 500
	row := func(listen func(sys *System, items []*content.Item, user string) error) func(b *testing.B) {
		return func(b *testing.B) {
			sys, _ := newTestSystem(b)
			items := addCatalog(b, sys, 200)
			var ms runtime.MemStats
			heap := func() uint64 {
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			var retained float64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				names := make([]string, listeners)
				for u := range names {
					names[u] = fmt.Sprintf("l%d-%04d", n, u)
				}
				before := heap()
				b.StartTimer()
				for _, user := range names {
					if err := listen(sys, items, user); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				retained += float64(heap()) - float64(before)
				b.StartTimer()
			}
			runtime.KeepAlive(sys)
			b.ReportMetric(retained/float64(b.N*listeners), "retained-B/listener")
		}
	}
	interests := []string{"food", "culture", "technology"}
	registered := func(sys *System, _ []*content.Item, user string) error {
		return sys.RegisterUser(profile.Profile{UserID: user, Name: "Lilly", Age: 29, Interests: interests})
	}
	feedbackRow := func(likes, dislikes int, unknown bool) func(b *testing.B) {
		return row(func(sys *System, items []*content.Item, user string) error {
			for i := 0; i < likes+dislikes; i++ {
				it, kind := items[i%len(items)], feedback.Like
				if i >= likes {
					kind = feedback.Dislike
				}
				e := feedback.Event{
					UserID: user, ItemID: it.ID, Kind: kind,
					At: shareT0.Add(time.Duration(i) * time.Second), Categories: it.Categories,
				}
				if unknown {
					e.ItemID, e.Categories = "gone-"+user, nil
				}
				if err := sys.AddFeedback(e); err != nil {
					return err
				}
			}
			return nil
		})
	}
	b.Run("registered", row(registered))
	b.Run("one-like", feedbackRow(1, 0, false))
	b.Run("one-like-unknown-item", feedbackRow(1, 0, true))
	b.Run("200-likes", feedbackRow(200, 0, false))
	b.Run("200-likes-16-dislikes", feedbackRow(200, 16, false))
}
