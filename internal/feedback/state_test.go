package feedback

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// retainedPerListener is the heap n listeners leave in a store that
// shares a catalog of items, per listener: HeapAlloc after two
// collections, after fill ran for each listener minus before. The
// listeners' names are allocated before the first reading.
func retainedPerListener(tb testing.TB, n, items int, fill func(s *Store, user string, cat *fakeCatalog)) float64 {
	tb.Helper()
	var cat fakeCatalog
	for i := 0; i < items; i++ {
		cat.add(fmt.Sprintf("clip-%03d", i), map[string]float64{"news": 0.5, fmt.Sprintf("cat-%02d", i%30): 0.5})
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("listener-%05d", i)
	}
	s := NewStore()
	s.ShareCatalog(cat.seq, cat.item)
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, u := range names {
		fill(s, u, &cat)
	}
	after := heap()
	runtime.KeepAlive(s)
	return (float64(after) - float64(before)) / float64(n)
}

// feedbackOn logs one event of kind k on each of the first n items,
// one minute apart.
func feedbackOn(tb testing.TB, k Kind, n int) func(s *Store, user string, cat *fakeCatalog) {
	return func(s *Store, user string, cat *fakeCatalog) {
		for i := 0; i < n; i++ {
			e := Event{UserID: user, ItemID: cat.ids[i], Kind: k, At: t0.Add(time.Duration(i) * time.Minute), Categories: cat.cats[i]}
			if err := s.Append(e); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestListenerStateSize pins what a listener costs the store: one like
// (its state, its one-event log and its two-category vector) at most
// 256 B, and sixteen dislikes at most 80 B more than sixteen likes of
// the same items, which is the skip set.
func TestListenerStateSize(t *testing.T) {
	const n = 4096
	one := retainedPerListener(t, n, 16, feedbackOn(t, Like, 1))
	likes := retainedPerListener(t, n, 16, feedbackOn(t, Like, 16))
	dislikes := retainedPerListener(t, n, 16, feedbackOn(t, Dislike, 16))
	t.Logf("one like %.1f B, 16 likes %.1f B, 16 dislikes %.1f B", one, likes, dislikes)
	if one > 256 {
		t.Errorf("a one-like listener retains %.0f B, want ≤ 256", one)
	}
	if got := dislikes - likes; got > 80 {
		t.Errorf("a 16-item skip set retains %.0f B, want ≤ 80", got)
	}
}

// concurrentCatalog is a catalog of items spanning 30 categories, a new
// category every few items, so writers keep inserting into the flat
// vectors while readers read them.
func concurrentCatalog(items int) *fakeCatalog {
	var cat fakeCatalog
	for i := 0; i < items; i++ {
		cat.add(fmt.Sprintf("clip-%03d", i), map[string]float64{fmt.Sprintf("cat-%02d", i%30): 0.6, "news": 0.4})
	}
	return &cat
}

// TestFlatIndexReadsWhileAppending reads the flat preference vector,
// into a reused buffer as the plan path does, while appends insert new
// categories into it and compaction folds the log into the baseline.
// Each read is in category-name order, each category once, and once the
// writers are done the index equals the replay oracle.
func TestFlatIndexReadsWhileAppending(t *testing.T) {
	cat := concurrentCatalog(120)
	s := NewStore()
	s.ShareCatalog(cat.seq, cat.item)
	users := []string{"u0", "u1", "u2"}
	params := DefaultPreferenceParams()
	params.Seed = []string{"cat-07", "zydeco"}
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for i := range cat.ids {
				e := Event{UserID: u, ItemID: cat.ids[i], Kind: Kind(i % 4), At: t0.Add(time.Duration(i) * time.Minute), Categories: cat.cats[i]}
				if err := s.Append(e); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 39 {
					s.Compact(u, e.At, 20*time.Minute)
				}
			}
		}(u)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf Vector
			for j := 0; j < 400; j++ {
				buf = s.Preferences(buf, users[j%len(users)], t0.Add(3*time.Hour), params)
				for k := 1; k < len(buf); k++ {
					if buf[k-1].Cat >= buf[k].Cat {
						t.Errorf("read %d: %q before %q", j, buf[k-1].Cat, buf[k].Cat)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	now := t0.Add(3 * time.Hour)
	for _, u := range users {
		almostEqual(t, prefsOf(s, u, now, params), s.PreferencesReplay(u, now, params))
	}
}

// TestSkipSliceReadsWhileAppending takes the published skip set while
// dislikes grow it and reads it after more have landed: a slice once
// handed out never changes (the store replaces it, copy-on-write), it
// is ascending, and the last read holds every disliked item, by seq for
// a catalog item and by ID for one the catalog does not hold.
func TestSkipSliceReadsWhileAppending(t *testing.T) {
	cat := concurrentCatalog(200)
	s := NewStore()
	s.ShareCatalog(cat.seq, cat.item)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Every item, in an order that inserts at the front, the middle
		// and the back, and a few items the catalog does not hold.
		for i := range cat.ids {
			k := (i * 7) % len(cat.ids)
			if err := s.Append(Event{UserID: "u", ItemID: cat.ids[k], Kind: Dislike, At: t0, Categories: cat.cats[k]}); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if err := s.Append(Event{UserID: "u", ItemID: fmt.Sprintf("gone-%03d", i), Kind: Skip, At: t0}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []Skips
			var copies [][]int32
			for j := 0; j < 300; j++ {
				k := s.SkippedItems("u")
				if !slices.IsSorted(k.Seqs) || !slices.IsSorted(k.IDs) {
					t.Errorf("read %d: skip set out of order: %v %v", j, k.Seqs, k.IDs)
					return
				}
				for _, seq := range k.Seqs {
					if !k.Has(seq, "") {
						t.Errorf("read %d: Has(%d) false for a seq the set holds", j, seq)
						return
					}
				}
				if j%30 == 0 {
					held, copies = append(held, k), append(copies, slices.Clone(k.Seqs))
				}
			}
			for i, k := range held {
				if !slices.Equal(k.Seqs, copies[i]) {
					t.Errorf("a skip set handed out changed after: %v, was %v", k.Seqs, copies[i])
				}
			}
		}()
	}
	wg.Wait()
	k := s.SkippedItems("u")
	if len(k.Seqs) != len(cat.ids) || len(k.IDs) != 4 {
		t.Fatalf("skip set holds %d seqs and IDs %v, want %d seqs and 4 IDs", len(k.Seqs), k.IDs, len(cat.ids))
	}
	for seq := range cat.ids {
		if !k.Has(int32(seq), cat.ids[seq]) {
			t.Fatalf("item %d not in the skip set", seq)
		}
	}
	if !k.Has(-1, "gone-050") || k.Has(-1, "gone-051") {
		t.Fatal("an item the catalog does not hold is looked up by ID")
	}
}
