package feedback

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pphcr/internal/content"
)

var t0 = time.Date(2016, 11, 15, 8, 0, 0, 0, time.UTC)

func TestKindStringAndWeight(t *testing.T) {
	if ImplicitListen.String() != "listen" || Skip.String() != "skip" ||
		Like.String() != "like" || Dislike.String() != "dislike" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" || Kind(9).Weight() != 0 {
		t.Fatal("unknown kind handling wrong")
	}
	if Like.Weight() <= ImplicitListen.Weight() {
		t.Fatal("explicit like must outweigh implicit listen")
	}
	if Skip.Weight() >= 0 || Dislike.Weight() >= 0 {
		t.Fatal("negative signals must be negative")
	}
	if -Skip.Weight() <= ImplicitListen.Weight() {
		t.Fatal("a skip must hurt more than a listen helps")
	}
}

func TestAppendValidation(t *testing.T) {
	s := NewStore()
	if err := s.Append(Event{}); err == nil {
		t.Fatal("empty UserID accepted")
	}
	if err := s.Append(Event{UserID: "u", ItemID: "i", Kind: Like, At: t0}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.ByUser("u"); len(got) != 1 || got[0].ItemID != "i" {
		t.Fatalf("ByUser = %+v", got)
	}
	if got := s.ByUser("nobody"); len(got) != 0 {
		t.Fatalf("ByUser(nobody) = %+v", got)
	}
}

func TestPreferencesAccumulate(t *testing.T) {
	s := NewStore()
	cat := map[string]float64{"food": 1}
	for i := 0; i < 3; i++ {
		if err := s.Append(Event{UserID: "lilly", ItemID: "x", Kind: Like, At: t0, Categories: cat}); err != nil {
			t.Fatal(err)
		}
	}
	prefs := prefsOf(s, "lilly", t0, DefaultPreferenceParams())
	if prefs["food"] <= 2.9 { // 3 likes × weight 1 × decay ~1
		t.Fatalf("food pref = %v", prefs["food"])
	}
}

func TestPreferencesDecay(t *testing.T) {
	s := NewStore()
	cat := map[string]float64{"sport": 1}
	if err := s.Append(Event{UserID: "greg", Kind: Like, At: t0, Categories: cat}); err != nil {
		t.Fatal(err)
	}
	params := DefaultPreferenceParams()
	now := prefsOf(s, "greg", t0, params)["sport"]
	later := prefsOf(s, "greg", t0.Add(14*24*time.Hour), params)["sport"]
	if math.Abs(later-now/2) > 0.01 {
		t.Fatalf("half-life decay broken: now=%v later=%v", now, later)
	}
	// Future events (clock skew) are not amplified.
	skewed := prefsOf(s, "greg", t0.Add(-time.Hour), params)["sport"]
	if skewed > now+1e-9 {
		t.Fatalf("future event amplified: %v > %v", skewed, now)
	}
}

func TestPreferencesNegativeSignals(t *testing.T) {
	s := NewStore()
	cat := map[string]float64{"sport": 1}
	for i := 0; i < 5; i++ {
		if err := s.Append(Event{UserID: "greg", Kind: Skip, At: t0, Categories: cat}); err != nil {
			t.Fatal(err)
		}
	}
	prefs := prefsOf(s, "greg", t0, DefaultPreferenceParams())
	if prefs["sport"] >= 0 {
		t.Fatalf("skipped category should be negative: %v", prefs["sport"])
	}
}

func TestPreferencesSeedBlend(t *testing.T) {
	s := NewStore()
	params := DefaultPreferenceParams()
	params.Seed = []string{"technology", "economics"}
	prefs := prefsOf(s, "newuser", t0, params)
	if math.Abs(prefs["technology"]-0.5) > 1e-9 {
		t.Fatalf("seed not applied: %v", prefs)
	}
	// SeedWeight scales the prior.
	params.SeedWeight = 2
	prefs = prefsOf(s, "newuser", t0, params)
	if math.Abs(prefs["technology"]-1.0) > 1e-9 {
		t.Fatalf("seed weight not applied: %v", prefs)
	}
}

// TestSeedPreferences: the profile's declared interests are a uniform
// prior of unit mass, a category listed twice weighing twice, with the
// bits of the map the seed was once built as.
func TestSeedPreferences(t *testing.T) {
	s := NewStore()
	params := DefaultPreferenceParams()
	params.Seed = []string{"technology", "economics"}
	prefs := s.Preferences(nil, "newuser", t0, params)
	if len(prefs) != 2 || prefs[0].Cat != "economics" || prefs[1].Cat != "technology" {
		t.Fatalf("prefs = %v, want two categories in name order", prefs)
	}
	var sum float64
	for _, p := range prefs {
		sum += p.W
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("seed mass = %v", sum)
	}
	params.Seed = nil
	if prefs := s.Preferences(nil, "newuser", t0, params); len(prefs) != 0 {
		t.Fatalf("no interests gave %v", prefs)
	}
	// Duplicate interests accumulate rather than vanish.
	params.Seed = []string{"food", "art", "food"}
	w := 1.0 / 3
	want := map[string]float64{}
	for _, c := range params.Seed {
		want[c] += w
	}
	for _, p := range s.Preferences(nil, "newuser", t0, params) {
		if math.Float64bits(p.W) != math.Float64bits(0+want[p.Cat]*params.SeedWeight) {
			t.Fatalf("%s weighs %v, want %v", p.Cat, p.W, want[p.Cat])
		}
	}
}

func TestPreferencesSoftCategories(t *testing.T) {
	s := NewStore()
	cat := map[string]float64{"food": 0.7, "culture": 0.3}
	if err := s.Append(Event{UserID: "u", Kind: Like, At: t0, Categories: cat}); err != nil {
		t.Fatal(err)
	}
	prefs := prefsOf(s, "u", t0, DefaultPreferenceParams())
	if math.Abs(prefs["food"]-0.7) > 1e-9 || math.Abs(prefs["culture"]-0.3) > 1e-9 {
		t.Fatalf("soft shares wrong: %v", prefs)
	}
}

func TestPreferencesZeroHalfLifeFallsBack(t *testing.T) {
	s := NewStore()
	if err := s.Append(Event{UserID: "u", Kind: Like, At: t0, Categories: map[string]float64{"art": 1}}); err != nil {
		t.Fatal(err)
	}
	prefs := prefsOf(s, "u", t0, PreferenceParams{}) // zero params
	if prefs["art"] <= 0 {
		t.Fatalf("fallback params broke preferences: %v", prefs)
	}
}

func BenchmarkPreferences(b *testing.B) {
	s := NewStore()
	cat := map[string]float64{"food": 0.5, "culture": 0.5}
	for i := 0; i < 1000; i++ {
		if err := s.Append(Event{UserID: "u", Kind: ImplicitListen, At: t0.Add(time.Duration(i) * time.Minute), Categories: cat}); err != nil {
			b.Fatal(err)
		}
	}
	params := DefaultPreferenceParams()
	now := t0.Add(24 * time.Hour)
	var buf Vector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Preferences(buf, "u", now, params)
	}
}

// --- PR 2: incremental index, compaction, aliasing ---------------------

// almostEqual compares two sparse vectors to 1e-9.
// prefsOf is the user's preference vector as a map.
func prefsOf(s *Store, userID string, now time.Time, params PreferenceParams) map[string]float64 {
	return s.Preferences(nil, userID, now, params).Map()
}

func almostEqual(t *testing.T, got, want map[string]float64) {
	t.Helper()
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	for k := range keys {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("category %q: incremental %v vs replay %v", k, got[k], want[k])
		}
	}
}

func TestAppendDeepCopiesCategories(t *testing.T) {
	s := NewStore()
	cat := map[string]float64{"food": 1}
	if err := s.Append(Event{UserID: "u", ItemID: "i", Kind: Like, At: t0, Categories: cat}); err != nil {
		t.Fatal(err)
	}
	// Caller mutates its map after the append: the store must be immune.
	cat["food"] = -100
	cat["crime"] = 42
	prefs := prefsOf(s, "u", t0, PreferenceParams{HalfLife: time.Hour})
	if math.Abs(prefs["food"]-1) > 1e-9 || prefs["crime"] != 0 {
		t.Fatalf("store aliased caller map: %v", prefs)
	}
	// ByUser results are copies too.
	got := s.ByUser("u")
	got[0].Categories["food"] = -7
	if prefs := prefsOf(s, "u", t0, PreferenceParams{HalfLife: time.Hour}); math.Abs(prefs["food"]-1) > 1e-9 {
		t.Fatalf("ByUser aliased store memory: %v", prefs)
	}
}

func TestIncrementalMatchesReplay(t *testing.T) {
	s := NewStore()
	params := DefaultPreferenceParams()
	params.Seed = []string{"technology", "technology", "art"}
	cats := []map[string]float64{
		{"food": 0.7, "culture": 0.3},
		{"sport": 1},
		{"music": 0.5, "art": 0.5},
	}
	kinds := []Kind{ImplicitListen, Skip, Like, Dislike}
	at := t0
	for i := 0; i < 500; i++ {
		// Irregular spacing, including an out-of-order event every 50th.
		at = at.Add(time.Duration(1+i%7) * 13 * time.Minute)
		evAt := at
		if i%50 == 49 {
			evAt = at.Add(-36 * time.Hour)
		}
		if err := s.Append(Event{UserID: "u", Kind: kinds[i%len(kinds)], At: evAt, Categories: cats[i%len(cats)]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, lag := range []time.Duration{0, time.Hour, 40 * 24 * time.Hour} {
		now := at.Add(lag)
		almostEqual(t, prefsOf(s, "u", now, params), s.PreferencesReplay("u", now, params))
	}
	st := s.Stats()
	if st.IndexReads == 0 {
		t.Fatalf("index path never taken: %+v", st)
	}
}

func TestPreferencesNonIndexHalfLifeFallsBackToReplay(t *testing.T) {
	s := NewStore()
	if err := s.Append(Event{UserID: "u", Kind: Like, At: t0, Categories: map[string]float64{"art": 1}}); err != nil {
		t.Fatal(err)
	}
	params := PreferenceParams{HalfLife: time.Hour}
	got := prefsOf(s, "u", t0.Add(time.Hour), params)
	if math.Abs(got["art"]-0.5) > 1e-9 {
		t.Fatalf("custom half-life wrong: %v", got)
	}
	if st := s.Stats(); st.ReplayReads == 0 {
		t.Fatalf("expected replay fallback: %+v", st)
	}
}

func TestPreferencesReadBeforeLastEventMatchesReplay(t *testing.T) {
	s := NewStore()
	params := DefaultPreferenceParams()
	if err := s.Append(Event{UserID: "u", Kind: Like, At: t0, Categories: map[string]float64{"art": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Event{UserID: "u", Kind: Like, At: t0.Add(48 * time.Hour), Categories: map[string]float64{"food": 1}}); err != nil {
		t.Fatal(err)
	}
	// now is before the newest event: the future event must count at full
	// weight (age clamp), exactly as the replay semantics define.
	now := t0.Add(time.Hour)
	almostEqual(t, prefsOf(s, "u", now, params), s.PreferencesReplay("u", now, params))
}

func TestCompactFoldsOldEventsAndPreservesPreferences(t *testing.T) {
	s := NewStore()
	params := DefaultPreferenceParams()
	at := t0
	for i := 0; i < 300; i++ {
		at = at.Add(37 * time.Minute)
		if err := s.Append(Event{UserID: "u", Kind: Like, At: at, Categories: map[string]float64{"food": 0.6, "art": 0.4}}); err != nil {
			t.Fatal(err)
		}
	}
	now := at.Add(time.Hour)
	before := prefsOf(s, "u", now, params)
	beforeReplay := s.PreferencesReplay("u", now, params)

	horizon := 3 * 24 * time.Hour
	folded := s.Compact("u", now, horizon)
	if folded == 0 {
		t.Fatal("nothing compacted")
	}
	if s.Len() != 300-folded {
		t.Fatalf("Len = %d after folding %d of 300", s.Len(), folded)
	}
	for _, e := range s.ByUser("u") {
		if e.At.Before(now.Add(-horizon)) {
			t.Fatalf("event older than horizon survived: %v", e.At)
		}
	}
	// The index is untouched by compaction; replay now goes through the
	// baseline and must still agree.
	almostEqual(t, prefsOf(s, "u", now, params), before)
	almostEqual(t, s.PreferencesReplay("u", now, params), beforeReplay)

	// Idempotent at the same instant; a later compaction folds more.
	if n := s.Compact("u", now, horizon); n != 0 {
		t.Fatalf("re-compaction folded %d", n)
	}
	later := now.Add(5 * 24 * time.Hour)
	if n := s.Compact("u", later, horizon); n == 0 {
		t.Fatal("later compaction folded nothing")
	}
	almostEqual(t, s.PreferencesReplay("u", later, params), prefsOf(s, "u", later, params))

	st := s.Stats()
	if st.CompactedEvents == 0 || st.Compactions < 2 {
		t.Fatalf("compaction counters wrong: %+v", st)
	}
}

func TestPreferencesCostIndependentOfHistory(t *testing.T) {
	// Structural guarantee behind the ≥10× benchmark claim: the index
	// read must not touch the log at all. Compare a 10-event user and a
	// 10k-event user via the counters (both must be index reads).
	s := NewStore()
	cat := map[string]float64{"food": 1}
	for i := 0; i < 10; i++ {
		_ = s.Append(Event{UserID: "small", Kind: Like, At: t0.Add(time.Duration(i) * time.Minute), Categories: cat})
	}
	for i := 0; i < 10000; i++ {
		_ = s.Append(Event{UserID: "big", Kind: Like, At: t0.Add(time.Duration(i) * time.Minute), Categories: cat})
	}
	now := t0.Add(30 * 24 * time.Hour)
	params := DefaultPreferenceParams()
	base := s.Stats()
	prefsOf(s, "small", now, params)
	prefsOf(s, "big", now, params)
	st := s.Stats()
	if st.IndexReads-base.IndexReads != 2 || st.ReplayReads != base.ReplayReads {
		t.Fatalf("reads did not stay on the index: %+v -> %+v", base, st)
	}
}

// --- Benchmarks: the O(history) hot path vs the incremental index ------

func benchStore(b *testing.B, events int) *Store {
	b.Helper()
	s := NewStore()
	cat := map[string]float64{"food": 0.5, "culture": 0.3, "music": 0.2}
	for i := 0; i < events; i++ {
		if err := s.Append(Event{UserID: "u", Kind: ImplicitListen, At: t0.Add(time.Duration(i) * time.Minute), Categories: cat}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPreferencesReplay is the seed behavior: every read replays
// the full 10k-event log.
func BenchmarkPreferencesReplay(b *testing.B) {
	s := benchStore(b, 10000)
	params := DefaultPreferenceParams()
	now := t0.Add(30 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PreferencesReplay("u", now, params)
	}
}

// BenchmarkPreferencesIncremental reads the same 10k-event user from the
// incremental index: O(categories), independent of history length.
func BenchmarkPreferencesIncremental(b *testing.B) {
	s := benchStore(b, 10000)
	params := DefaultPreferenceParams()
	now := t0.Add(30 * 24 * time.Hour)
	var buf Vector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Preferences(buf, "u", now, params)
	}
}

func BenchmarkAppendIncremental(b *testing.B) {
	s := NewStore()
	cat := map[string]float64{"food": 0.5, "culture": 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(Event{UserID: "u", Kind: ImplicitListen, At: t0.Add(time.Duration(i) * time.Second), Categories: cat}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendRefusesWhatARecordCannotHold: a record keeps the kind in one
// byte and the instant as Unix nanoseconds, so Append refuses a kind
// other than the four defined ones and an instant outside years
// 1678–2262; the range's ends are kept.
func TestAppendRefusesWhatARecordCannotHold(t *testing.T) {
	s := NewStore()
	for _, e := range []Event{
		{UserID: "u", Kind: Kind(9), At: t0},
		{UserID: "u", Kind: Kind(-1), At: t0},
		{UserID: "u", Kind: Kind(256 + int(Like)), At: t0},
		{UserID: "u", Kind: Like, At: time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{UserID: "u", Kind: Like, At: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)},
		{UserID: "u", Kind: Like},
	} {
		if err := s.Append(e); err == nil {
			t.Fatalf("%v at %v accepted", e.Kind, e.At)
		}
	}
	for _, ns := range []int64{math.MinInt64, math.MaxInt64} {
		if err := s.Append(Event{UserID: "u", Kind: Dislike, At: time.Unix(0, ns)}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Events("u")
	if len(got) != 2 || !got[0].At.Equal(time.Unix(0, math.MinInt64)) || !got[1].At.Equal(time.Unix(0, math.MaxInt64)) {
		t.Fatalf("events = %+v, want the two in range", got)
	}
}

// TestRecordSize pins what the log keeps per event (Event takes 72 B).
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n != 16 {
		t.Fatalf("record is %d B, want 16", n)
	}
}

// TestRecordHoldsNoPointer: a log slice whose element type holds no
// pointer is allocated noscan, so the collector never reads it.
func TestRecordHoldsNoPointer(t *testing.T) {
	var scan func(reflect.Type) string
	scan = func(typ reflect.Type) string {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if why := scan(typ.Field(i).Type); why != "" {
					return typ.Field(i).Name + " " + why
				}
			}
			return ""
		case reflect.Array:
			return scan(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return ""
		default:
			return "(" + typ.String() + ") holds a pointer"
		}
	}
	if why := scan(reflect.TypeOf(record{})); why != "" {
		t.Fatalf("record field %s", why)
	}
}

// fakeCatalog numbers items in the order they are added, as the content
// repository does.
type fakeCatalog struct {
	ids   []string
	cats  []map[string]float64
	items []*content.Item
}

func (c *fakeCatalog) add(id string, cats map[string]float64) {
	c.ids, c.cats = append(c.ids, id), append(c.cats, cats)
	c.items = append(c.items, &content.Item{ID: id, Categories: cats})
}

func (c *fakeCatalog) seq(id string) (int32, bool) {
	for i, have := range c.ids {
		if have == id {
			return int32(i), true
		}
	}
	return 0, false
}

func (c *fakeCatalog) item(seq int32) *content.Item { return c.items[seq] }

// TestCompactTakesSideEntriesWithTheirRecords: an event the catalog
// cannot stand for keeps its item in the user's side table; compaction
// drops an entry with its record, renumbers the survivors, and leaves
// the log and the table with no spare capacity. The events left read
// back unchanged.
func TestCompactTakesSideEntriesWithTheirRecords(t *testing.T) {
	var cat fakeCatalog
	cat.add("clip-0", map[string]float64{"food": 0.6, "music": 0.4})
	cat.add("clip-1", map[string]float64{"sport": 1})
	s := NewStore()
	s.ShareCatalog(cat.seq, cat.item)
	other := map[string]float64{"news": 0.5, "art": 0.5}
	var want []Event
	for i := 0; i < 12; i++ {
		e := Event{UserID: "u", Kind: Kind(i % 4), At: t0.Add(time.Duration(i) * time.Hour)}
		switch i % 3 {
		case 0: // the catalog item with its own categories: seq only
			e.ItemID, e.Categories = "clip-0", cat.cats[0]
		case 1: // the catalog item with other categories: a side entry
			e.ItemID, e.Categories = "clip-1", other
		case 2: // an item the catalog does not hold: a side entry
			e.ItemID, e.Categories = fmt.Sprintf("gone-%d", i), other
		}
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	state := func() *userState { return s.shardFor("u").users["u"] }
	if n := len(state().side); n != 8 {
		t.Fatalf("%d side entries before compaction, want 8", n)
	}
	now := t0.Add(12 * time.Hour)
	for _, keep := range []int{7, 2, 0} {
		s.Compact("u", now, time.Duration(keep)*time.Hour+30*time.Minute)
		st := state()
		tail := want[len(want)-keep:]
		side := 0
		for _, e := range tail {
			if e.ItemID != "clip-0" {
				side++
			}
		}
		if len(st.events) != keep || cap(st.events) != keep || len(st.side) != side || cap(st.side) != side {
			t.Fatalf("keep %d: log %d/%d, side table %d/%d, want %d and %d with no spare capacity",
				keep, len(st.events), cap(st.events), len(st.side), cap(st.side), keep, side)
		}
		got := s.Events("u")
		if len(got) != len(tail) {
			t.Fatalf("keep %d: %d events read back", keep, len(got))
		}
		for i, e := range got {
			if e.ItemID != tail[i].ItemID || e.Kind != tail[i].Kind || !e.At.Equal(tail[i].At) || !maps.Equal(e.Categories, tail[i].Categories) {
				t.Fatalf("keep %d: event %d read back as %+v, want %+v", keep, i, e, tail[i])
			}
			if e.ItemID == "clip-0" && st.events[i].seq != 0 {
				t.Fatalf("keep %d: event %d is not keyed by the catalog item's seq", keep, i)
			}
		}
	}
}

// TestCatalogEventsKeyedBySeqOnEveryPath: an event about a catalog item
// that carries the item's categories bit for bit, or none, is kept by
// the item's seq with no side entry, whichever way it arrives — with
// the caller's map or a copy, with nil, as a log record decodes it
// (WAL replay and a standby apply) or through a checkpoint restore. Any
// other event takes a side entry.
func TestCatalogEventsKeyedBySeqOnEveryPath(t *testing.T) {
	repo := content.NewRepository()
	for i, cats := range []map[string]float64{{"food": 0.6, "music": 0.4}, {"news": 0.9, "sport": 0.1 + 1e-9}} {
		if err := repo.Add(&content.Item{
			ID: fmt.Sprintf("clip-%d", i), Kind: content.KindClip, Duration: time.Minute, Published: t0, Categories: cats,
		}); err != nil {
			t.Fatal(err)
		}
	}
	store := func() *Store {
		s := NewStore()
		s.ShareCatalog(repo.Seq, repo.ItemAt)
		return s
	}
	it := repo.ItemAt(1)
	own := maps.Collect(it.Weights())
	wire, err := json.Marshal(Event{Categories: own})
	if err != nil {
		t.Fatal(err)
	}
	var decoded Event
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	events := []struct {
		item string
		cats map[string]float64
		side bool
	}{
		{it.ID, nil, false},
		{it.ID, own, false},
		{it.ID, maps.Clone(own), false},
		{it.ID, decoded.Categories, false},
		{it.ID, map[string]float64{}, true},
		{it.ID, map[string]float64{"news": 0.9, "sport": 0.1}, true},
		{"gone", map[string]float64{"art": 1}, true},
	}
	live := store()
	for i, e := range events {
		if err := live.Append(Event{UserID: "u", ItemID: e.item, Kind: Kind(i % 4), At: t0.Add(time.Duration(i) * time.Minute), Categories: e.cats}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, s *Store) {
		st := s.shardFor("u").users["u"]
		side := 0
		for i, r := range st.events {
			if events[i].side != (r.seq < 0) {
				t.Fatalf("event %d: seq %d, want a side entry %v", i, r.seq, events[i].side)
			}
			if r.seq < 0 {
				side++
			} else if r.seq != 1 {
				t.Fatalf("event %d keyed by seq %d, not the item's", i, r.seq)
			}
		}
		if len(st.events) != len(events) || len(st.side) != side {
			t.Fatalf("%d records and %d side entries, want %d and %d", len(st.events), len(st.side), len(events), side)
		}
	}
	t.Run("live", func(t *testing.T) { check(t, live) })
	t.Run("checkpoint restore", func(t *testing.T) {
		var buf bytes.Buffer
		if err := live.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored := store()
		if err := restored.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		check(t, restored)
	})
}

// TestLogReadsWhileCatalogGrows runs Append, Events, ByUser, Snapshot,
// Compact and PreferencesReplay while the content repository takes new
// items: the store reads an item by seq under its shard lock, and under
// -race it is the proof that such a read never sees the catalog torn.
// Each user's log then holds every write compaction left, each event
// with its own ID and categories.
func TestLogReadsWhileCatalogGrows(t *testing.T) {
	repo := content.NewRepository()
	s := NewStore()
	s.ShareCatalog(repo.Seq, repo.ItemAt)
	const items, writes = 400, 300
	catalog := make([]*content.Item, items)
	for i := range catalog {
		catalog[i] = &content.Item{
			ID: fmt.Sprintf("clip-%03d", i), Kind: content.KindClip, Duration: time.Minute, Published: t0,
			Categories: map[string]float64{content.Categories[i%len(content.Categories)]: 1},
		}
	}
	var added atomic.Int32
	users := []string{"u0", "u1", "u2"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, it := range catalog {
			if err := repo.Add(it); err != nil {
				t.Error(err)
				return
			}
			added.Add(1)
		}
	}()
	wants := make([][]Event, len(users))
	for ui, u := range users {
		wg.Add(1)
		go func(ui int, u string) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				e := Event{UserID: u, Kind: Kind(i % 4), At: t0.Add(time.Duration(i) * time.Second)}
				it := catalog[int(added.Load())*i/writes]
				switch i % 3 {
				case 0:
					e.ItemID, e.Categories = it.ID, it.Categories
				case 1:
					e.ItemID, e.Categories = it.ID, map[string]float64{"own": float64(i)}
				case 2:
					e.ItemID, e.Categories = fmt.Sprintf("gone-%d", i), map[string]float64{"own": float64(i)}
				}
				if err := s.Append(e); err != nil {
					t.Error(err)
					return
				}
				wants[ui] = append(wants[ui], e)
			}
		}(ui, u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			u := users[j%len(users)]
			switch j % 5 {
			case 0:
				s.Events(u)
			case 1:
				s.ByUser(u)
			case 2:
				if err := s.Snapshot(io.Discard); err != nil {
					t.Error(err)
					return
				}
			case 3:
				// Folds the user's first minute of events, once written.
				s.Compact(u, t0.Add(2*time.Minute), time.Minute)
			case 4:
				s.PreferencesReplay(u, t0.Add(time.Hour), DefaultPreferenceParams())
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for ui, u := range users {
		got := s.Events(u)
		tail := wants[ui][len(wants[ui])-len(got):]
		if folded := writes - len(got); folded > 60 {
			t.Fatalf("%s: %d events left of %d; compaction folds the first minute at most", u, len(got), writes)
		}
		for i, e := range got {
			w := tail[i]
			if e.ItemID != w.ItemID || e.Kind != w.Kind || !e.At.Equal(w.At) || !maps.Equal(e.Categories, w.Categories) {
				t.Fatalf("%s: event %d read back as %+v, want %+v", u, i, e, w)
			}
		}
		params := DefaultPreferenceParams()
		now := t0.Add(time.Hour)
		index, replay := prefsOf(s, u, now, params), s.PreferencesReplay(u, now, params)
		for c, v := range replay {
			if math.Abs(index[c]-v) > 1e-9 {
				t.Fatalf("%s %q: index %v, replay %v", u, c, index[c], v)
			}
		}
	}
}

// TestLogListsEventsWithoutMaps: Log lists what Events lists — item,
// kind and instant of each live event, in order, catalog-keyed and side
// events alike — and, for a listener with 200 catalog-keyed events,
// allocates only the slice it returns, where Events builds a map per
// event.
func TestLogListsEventsWithoutMaps(t *testing.T) {
	repo := content.NewRepository()
	for i := 0; i < 20; i++ {
		if err := repo.Add(&content.Item{
			ID: fmt.Sprintf("clip-%02d", i), Kind: content.KindClip, Duration: time.Minute, Published: t0,
			Categories: map[string]float64{"food": 0.6, content.Categories[i%len(content.Categories)]: 0.4},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore()
	s.ShareCatalog(repo.Seq, repo.ItemAt)
	kinds := []Kind{Like, ImplicitListen, Skip, Dislike}
	for i := 0; i < 200; i++ {
		e := Event{UserID: "u", ItemID: fmt.Sprintf("clip-%02d", i%20), Kind: kinds[i%len(kinds)], At: t0.Add(time.Duration(i) * time.Minute)}
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Log("u") }); allocs > 1 {
		t.Fatalf("Log of 200 catalog-keyed events: %v allocations, want ≤ 1", allocs)
	}
	t.Logf("Events of the same listener: %v allocations", testing.AllocsPerRun(5, func() { s.Events("u") }))
	// Side events: an item the catalog lacks, and one with other weights.
	for i, e := range []Event{
		{UserID: "u", ItemID: "elsewhere", Kind: Like, At: t0.Add(-time.Hour)},
		{UserID: "u", ItemID: "clip-03", Kind: Skip, At: t0.Add(time.Hour), Categories: map[string]float64{"art": 1}},
	} {
		if err := s.Append(e); err != nil {
			t.Fatalf("side event %d: %v", i, err)
		}
	}
	events, log := s.Events("u"), s.Log("u")
	if len(log) != len(events) || len(log) != 202 {
		t.Fatalf("Log lists %d events, Events %d, want 202", len(log), len(events))
	}
	for i, e := range events {
		if l := log[i]; l.ItemID != e.ItemID || l.Kind != e.Kind || !l.At.Equal(e.At) || l.At.Location() != e.At.Location() {
			t.Fatalf("event %d: Log lists %+v, Events %+v", i, l, e)
		}
	}
	if s.Log("nobody") != nil {
		t.Fatal("Log of a listener without events is not nil")
	}
}
