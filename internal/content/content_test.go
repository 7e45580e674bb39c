package content

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pphcr/internal/asr"
	"pphcr/internal/geo"
	"pphcr/internal/textclass"
)

var (
	torino = geo.Point{Lat: 45.0703, Lon: 7.6869}
	t0     = time.Date(2016, 11, 15, 6, 0, 0, 0, time.UTC)
)

func item(id, cat string, dur time.Duration, published time.Time) *Item {
	return &Item{
		ID:         id,
		Title:      "title-" + id,
		Duration:   dur,
		Published:  published,
		Categories: map[string]float64{cat: 1},
	}
}

func TestCategoriesInvariants(t *testing.T) {
	if len(Categories) != 30 {
		t.Fatalf("the paper specifies 30 categories, got %d", len(Categories))
	}
	seen := map[string]bool{}
	for _, c := range Categories {
		if seen[c] {
			t.Fatalf("duplicate category %q", c)
		}
		seen[c] = true
	}
	for _, c := range []string{"art", "culture", "music", "economics"} {
		if !seen[c] {
			t.Fatalf("%q missing (named in the paper)", c)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindClip: "clip", KindNews: "news", KindMusic: "music",
		KindTimeShifted: "timeshifted", Kind(42): "kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestTopCategory(t *testing.T) {
	it := &Item{Categories: map[string]float64{"music": 0.3, "sport": 0.6, "art": 0.1}}
	if got := it.TopCategory(); got != "sport" {
		t.Fatalf("TopCategory = %q", got)
	}
	if got := (&Item{}).TopCategory(); got != "" {
		t.Fatalf("empty TopCategory = %q", got)
	}
}

// TestWeightReadsByKey: Weight reads the weight Weights yields, of an
// item never added and of the repository's copy, for categories the
// item carries and for one it does not.
func TestWeightReadsByKey(t *testing.T) {
	in := item("x", "weather", time.Minute, t0)
	in.Categories["traffic"] = 0.25
	r := NewRepository()
	if err := r.Add(in); err != nil {
		t.Fatal(err)
	}
	held, _ := r.Get("x")
	for _, it := range []*Item{in, held, {}} {
		all := maps.Collect(it.Weights())
		for _, c := range []string{"weather", "traffic", "sport"} {
			if got, want := it.Weight(KeyOf(c)), all[c]; got != want {
				t.Fatalf("item %q: Weight(%s) = %v, Weights has %v", it.ID, c, got, want)
			}
		}
	}
	if held.Weight(KeyOf("traffic")) != 0.25 {
		t.Fatal("the repository's copy lost a weight")
	}
}

// TestAddTakesAnotherRepositorysItem: an item one repository handed out
// (Categories nil, its categories as pairs) is added to another with
// the same weights, and neither repository's copy shares the other's.
func TestAddTakesAnotherRepositorysItem(t *testing.T) {
	a, b := NewRepository(), NewRepository()
	in := item("x", "music", time.Minute, t0)
	in.Categories["sport"] = 0.25
	if err := a.Add(in); err != nil {
		t.Fatal(err)
	}
	fromA, _ := a.Get("x")
	if err := b.Add(fromA); err != nil {
		t.Fatal(err)
	}
	fromB, _ := b.Get("x")
	if fromB == fromA || fromB.Categories != nil || fromB.pairs == fromA.pairs {
		t.Fatal("the second repository shares the first one's copy")
	}
	for c, w := range in.Categories {
		if k := KeyOf(c); fromB.Weight(k) != w || fromA.Weight(k) != w {
			t.Fatalf("%s: %v and %v, added with %v", c, fromA.Weight(k), fromB.Weight(k), w)
		}
	}
	if got := fromB.TopCategory(); got != "music" {
		t.Fatalf("TopCategory = %q", got)
	}
}

func TestRepositoryAddValidation(t *testing.T) {
	r := NewRepository()
	if err := r.Add(nil); err == nil {
		t.Fatal("nil item accepted")
	}
	if err := r.Add(&Item{Duration: time.Minute}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := r.Add(&Item{ID: "x"}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := r.Add(item("a", "music", time.Minute, t0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(item("a", "music", time.Minute, t0)); err == nil {
		t.Fatal("duplicate accepted")
	}
}

// TestRepositoryAddRejectsNonFiniteWeights: a category vector without a
// finite norm has no cosine, so the item is refused whole — and leaves
// nothing behind; any finite weight, negative and zero included, is a
// classifier's business and is accepted.
func TestRepositoryAddRejectsNonFiniteWeights(t *testing.T) {
	r := NewRepository()
	for i, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		it := item(fmt.Sprintf("bad-%d", i), "music", time.Minute, t0)
		it.Categories["sport"] = w
		if err := r.Add(it); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if _, ok := r.Get("bad-0"); ok || r.Len() != 0 {
		t.Fatalf("a refused item is in the repository (%d items)", r.Len())
	}
	for i, w := range []float64{-0.5, 0, math.SmallestNonzeroFloat64, 1e150} {
		it := item(fmt.Sprintf("ok-%d", i), "music", time.Minute, t0)
		it.Categories["sport"] = w
		if err := r.Add(it); err != nil {
			t.Fatalf("weight %v: %v", w, err)
		}
	}
}

func TestRepositoryQueries(t *testing.T) {
	r := NewRepository()
	// Deliberately out of publish order.
	for _, it := range []*Item{
		item("c", "sport", time.Minute, t0.Add(2*time.Hour)),
		item("a", "music", time.Minute, t0),
		item("b", "music", time.Minute, t0.Add(time.Hour)),
	} {
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if it, ok := r.Get("b"); !ok || it.ID != "b" {
		t.Fatalf("Get(b) = %v, %v", it, ok)
	}
	if _, ok := r.Get("zz"); ok {
		t.Fatal("Get(zz) ok")
	}
	all := r.All()
	if len(all) != 3 || all[0].ID != "a" || all[1].ID != "b" || all[2].ID != "c" {
		t.Fatalf("All order: %v %v %v", all[0].ID, all[1].ID, all[2].ID)
	}
	music := r.ByCategory("music")
	if len(music) != 2 {
		t.Fatalf("ByCategory(music) = %d items", len(music))
	}
	since := r.AppendPublishedSince(nil, t0.Add(time.Hour))
	if len(since) != 2 || since[0].ID != "b" {
		t.Fatalf("AppendPublishedSince = %d items, first %v", len(since), since[0].ID)
	}
}

// trainedClassifier returns a classifier over two categories.
func trainedClassifier(t *testing.T) *textclass.NaiveBayes {
	t.Helper()
	var nb textclass.NaiveBayes
	docs := []textclass.Document{
		{Tokens: []string{"goal", "partita", "calcio", "derby"}, Category: "sport"},
		{Tokens: []string{"goal", "campionato", "stadio"}, Category: "sport"},
		{Tokens: []string{"ricetta", "vino", "prosecco", "cucina"}, Category: "food"},
		{Tokens: []string{"chef", "ricetta", "champagne"}, Category: "food"},
	}
	if err := nb.Train(docs); err != nil {
		t.Fatal(err)
	}
	return &nb
}

func TestPipelineIngest(t *testing.T) {
	rec, err := asr.New(0.1, asr.DefaultErrorProfile(), []string{"goal", "vino"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Recognizer: rec, Classifier: trainedClassifier(t), Repo: NewRepository()}
	it, err := p.Process(RawPodcast{
		ID:        "decanter-001",
		Title:     "Champagne, Cava e Prosecco",
		Program:   "Decanter",
		Duration:  8 * time.Minute,
		Published: t0,
		Speech:    "ricetta vino prosecco cucina chef champagne degustazione vino prosecco",
		Kind:      KindClip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if it.TopCategory() != "food" {
		t.Fatalf("TopCategory = %q, want food", it.TopCategory())
	}
	var sum float64
	for _, w := range it.Categories {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("category mass = %v", sum)
	}
	if p.Repo.Len() != 0 {
		t.Fatal("Process stored the item; the caller decides when it becomes visible")
	}
}

func TestPipelineWiringErrors(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Process(RawPodcast{ID: "x"}); err == nil {
		t.Fatal("unwired pipeline accepted")
	}
	rec, _ := asr.New(0, asr.DefaultErrorProfile(), nil, 1)
	p = &Pipeline{Recognizer: rec, Classifier: &textclass.NaiveBayes{}, Repo: NewRepository()}
	if _, err := p.Process(RawPodcast{ID: "x", Duration: time.Minute, Speech: "ciao"}); err == nil {
		t.Fatal("untrained classifier accepted")
	}
}

// TestViewMatchesLinearScan: for every category and a sweep of cuts —
// before the Unix epoch, inside one second, at an item's exact instant —
// Postings from WindowStart on, filtered by Admits, is the set a scan of
// the items finds, each beside the weight its item gives the category,
// for items added in and out of publish order; every item's resident
// row mirrors its duration, kind and whether it has a geographic scope;
// and a view does not see what is added after it was taken.
func TestViewMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cats := []string{"music", "sport", "zebra", "art"}
	kinds := []Kind{KindClip, KindNews, KindMusic, KindTimeShifted, 4, 255}
	base := time.Date(1969, 12, 31, 23, 59, 58, 0, time.UTC) // straddles the epoch clamp
	r := NewRepository()
	var items []*Item
	add := func(i int, published time.Time) {
		it := &Item{
			ID: fmt.Sprintf("v%03d", i), Kind: kinds[i%len(kinds)], Duration: time.Duration(1+i*7919) * time.Millisecond,
			Published: published, Categories: map[string]float64{},
		}
		if i%3 == 0 {
			it.Geo = &GeoRelevance{Center: torino, Radius: float64(100 * i)}
		}
		for _, c := range rng.Perm(len(cats))[:1+rng.Intn(3)] {
			it.Categories[cats[c]] = rng.Float64()
		}
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	for i := 0; i < 60; i++ { // in publish order, several per second
		add(i, base.Add(time.Duration(i)*300*time.Millisecond))
	}
	for i := 60; i < 120; i++ { // late arrivals
		add(i, base.Add(time.Duration(rng.Intn(18_000))*time.Millisecond))
	}
	var v View
	r.ReadView(&v)
	seen := len(items)
	add(120, base.Add(5*time.Second))
	if v.Len() != seen {
		t.Fatalf("view grew to %d items after it was taken at %d", v.Len(), seen)
	}
	for seq, it := range items[:seen] {
		f, held := v.At(int32(seq)), v.Item(int32(seq))
		if held.ID != it.ID || f.Duration != it.Duration || f.Kind != it.Kind || f.HasGeo != (it.Geo != nil) {
			t.Fatalf("seq %d: row {%s %v %v geo:%v}, item {%s %v %v geo:%v}",
				seq, held.ID, f.Duration, f.Kind, f.HasGeo, it.ID, it.Duration, it.Kind, it.Geo != nil)
		}
	}

	cuts := []time.Time{{}, base, base.Add(18 * time.Second), items[10].Published, items[10].Published.Add(time.Nanosecond)}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, base.Add(time.Duration(rng.Intn(19_000))*time.Millisecond))
	}
	for _, cat := range cats {
		id, ok := v.CategoryID(cat)
		if !ok {
			t.Fatalf("category %q not interned", cat)
		}
		for _, at := range cuts {
			cut := Since(at)
			var got, want []string
			seqs, ws := v.Postings(id, v.WindowStart(cut))
			if len(ws) != len(seqs) {
				t.Fatalf("%s since %v: %d seqs beside %d weights", cat, at, len(seqs), len(ws))
			}
			for i, seq := range seqs {
				held := v.Item(seq)
				if ws[i] != held.Weight(KeyOf(cat)) {
					t.Fatalf("%s since %v: %s filed with weight %v, item has %v", cat, at, held.ID, ws[i], held.Weight(KeyOf(cat)))
				}
				if cut.Admits(&v, seq) {
					got = append(got, held.ID)
				}
			}
			for _, it := range items[:seen] {
				if _, has := it.Categories[cat]; has && !it.Published.Before(at) {
					want = append(want, it.ID)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s since %v:\n got  %v\n want %v", cat, at, got, want)
			}
		}
	}
	// From seq 0 on, the postings hold every item's whole category vector:
	// each (item, category) pair once, in ascending seq order, beside the
	// weight the item's map gives it.
	filed := make([]int, seen)
	for _, cat := range cats {
		id, _ := v.CategoryID(cat)
		seqs, ws := v.Postings(id, 0)
		for i, seq := range seqs {
			it := items[seq]
			if v.Item(seq).ID != it.ID {
				t.Fatalf("%s: seq %d holds %s, item %d added was %s", cat, seq, v.Item(seq).ID, seq, it.ID)
			}
			if i > 0 && seqs[i-1] >= seq {
				t.Fatalf("%s: seq %d filed after %d", cat, seq, seqs[i-1])
			}
			if w, has := it.Categories[cat]; !has || ws[i] != w {
				t.Fatalf("%s: %s filed with weight %v, item has %v", cat, it.ID, ws[i], it.Categories)
			}
			filed[seq]++
		}
	}
	for seq, it := range items[:seen] {
		if filed[seq] != len(it.Categories) {
			t.Fatalf("%s: filed under %d categories, item has %d", it.ID, filed[seq], len(it.Categories))
		}
	}
}

// TestFeaturesRowSize guards the resident row's width. Every node keeps
// one row per item for the catalog's life, so each 8 B added is
// 8 B × items × nodes of live heap — 0.3 MB of the benchmark's
// live_heap_mb at its 20 000 items on leader and follower. The row holds
// no pointer (the item is reached by its seq), so the collector never
// scans the rows.
func TestFeaturesRowSize(t *testing.T) {
	if n := unsafe.Sizeof(Features{}); n > 24 {
		t.Fatalf("content.Features is %d B, want ≤ 24", n)
	}
	if f, ok := pointerField(reflect.TypeFor[Features]()); ok {
		t.Fatalf("content.Features.%s holds a pointer", f)
	}
}

// pointerField returns the first field of a struct type whose value
// holds a pointer the collector would follow.
func pointerField(st reflect.Type) (string, bool) {
	var holds func(reflect.Type) bool
	holds = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Array:
			return t.Len() > 0 && holds(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if holds(t.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			return true
		default:
			return false
		}
	}
	for i := range st.NumField() {
		if holds(st.Field(i).Type) {
			return st.Field(i).Name, true
		}
	}
	return "", false
}

// TestItemSize guards the width of an item the repository holds: every
// node keeps one per catalog item for its life, and its pair count and
// offset and its bitrate fill what would be Kind's padding.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n > 112 {
		t.Fatalf("content.Item is %d B, want ≤ 112", n)
	}
}

// TestChunksAreWholePages guards the chunk sizes against a change in
// Item's or a pair's width: a full chunk that is not a whole number of
// 8 KiB pages is rounded up by the allocator, and every node pays the
// remainder once per chunk. A pair chunk is two arrays, ids and weights.
func TestChunksAreWholePages(t *testing.T) {
	const page = 8 << 10
	if n := unsafe.Sizeof([itemChunk]Item{}); n%page != 0 {
		t.Fatalf("an item chunk is %d B (%d B an item), not a whole number of pages", n, unsafe.Sizeof(Item{}))
	}
	pc := reflect.TypeFor[pairChunk]()
	for i := range pc.NumField() {
		if n := pc.Field(i).Type.Size(); n%page != 0 {
			t.Fatalf("a pair chunk's %s array is %d B, not a whole number of pages", pc.Field(i).Name, n)
		}
	}
}

// TestAddRefusesTooManyCategories: an item carries at most maxCategories
// categories, the most its packed pair count holds; Add and CheckAdd
// refuse one more with errTooManyCategories and leave nothing behind,
// and an item at the limit keeps every weight.
func TestAddRefusesTooManyCategories(t *testing.T) {
	r := NewRepository()
	cats := map[string]float64{}
	for i := 0; len(cats) < maxCategories+1; i++ {
		cats[fmt.Sprintf("many-%03d", i)] = 1 / float64(1+i)
	}
	over := &Item{ID: "over", Duration: time.Minute, Published: t0, Categories: cats}
	if err := r.CheckAdd(over); !errors.Is(err, errTooManyCategories) {
		t.Fatalf("CheckAdd of %d categories: %v", len(cats), err)
	}
	if err := r.Add(over); !errors.Is(err, errTooManyCategories) || !strings.Contains(err.Error(), `"over"`) {
		t.Fatalf("Add of %d categories: %v", len(cats), err)
	}
	if _, ok := r.Get("over"); ok || r.Len() != 0 {
		t.Fatal("a refused item was kept")
	}
	delete(cats, "many-000")
	at := &Item{ID: "at", Duration: time.Minute, Published: t0, Categories: cats}
	if err := r.Add(at); err != nil {
		t.Fatalf("Add of %d categories: %v", len(cats), err)
	}
	held, _ := r.Get("at")
	if got := maps.Collect(held.Weights()); !maps.Equal(got, cats) {
		t.Fatalf("an item at the limit kept %d of its %d categories", len(got), len(cats))
	}
}

// TestChunkReadsWhileAddAppends: while Add copies items and pairs into
// the chunks, readers resolve items by seq — through a View, ItemAt,
// Get and All — and read their categories, at every chunk boundary
// below the view's length and at its tail; Add waits for the readers
// at each boundary, so the reads cross every one. Under -race it is
// the proof that an item, once a reader can reach it by its seq, is
// never written. Each item read has Categories nil and the weights it
// was added with.
func TestChunkReadsWhileAddAppends(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	items := make([]*Item, n)
	for i := range items {
		cats := map[string]float64{}
		for len(cats) < 2+i%3 {
			cats[Categories[rng.Intn(len(Categories))]] = rng.Float64()
		}
		items[i] = &Item{ID: fmt.Sprintf("c%05d", i), Duration: time.Minute, Published: t0.Add(time.Duration(i) * time.Second), Categories: cats}
	}
	// The seqs either side of each chunk boundary below n.
	var edges []int32
	for start := 0; start < n; start += itemChunk {
		if start > 0 {
			edges = append(edges, int32(start-1))
		}
		edges = append(edges, int32(start))
	}
	r := NewRepository()
	check := func(seq int32, it *Item) error {
		if it == nil || it.ID != items[seq].ID {
			return fmt.Errorf("seq %d resolves to %v, added as %s", seq, it, items[seq].ID)
		}
		want := items[seq].Categories
		if it.Categories != nil {
			return fmt.Errorf("item %s holds a map", it.ID)
		}
		k := 0
		for c, w := range it.Weights() {
			if math.Float64bits(w) != math.Float64bits(want[c]) || it.Weight(KeyOf(c)) != w {
				return fmt.Errorf("item %s: %s weighs %v, added with %v", it.ID, c, w, want[c])
			}
			k++
		}
		if k != len(want) {
			return fmt.Errorf("item %s: %d categories, added with %d", it.ID, k, len(want))
		}
		return nil
	}
	read := func(v *View, seq int32) error {
		if err := check(seq, v.Item(seq)); err != nil {
			return err
		}
		if err := check(seq, r.ItemAt(seq)); err != nil {
			return err
		}
		it, _ := r.Get(items[seq].ID)
		return check(seq, it)
	}
	const readers = 3
	var rounds atomic.Int64 // read rounds finished, all readers together
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v View
			for round := 0; ; round++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				r.ReadView(&v)
				m := int32(v.Len())
				err := func() error {
					for _, seq := range edges {
						if seq >= m {
							break
						}
						if err := read(&v, seq); err != nil {
							return err
						}
					}
					for i := int32(0); i < 8 && i < m; i++ {
						if err := read(&v, m-1-i*int32(g+1)*37%m); err != nil {
							return err
						}
					}
					if round%8 == g {
						for seq, it := range r.All() {
							if err := check(int32(seq), it); err != nil {
								return err
							}
						}
					}
					return nil
				}()
				v.Reset()
				if err != nil {
					errs <- err
					return
				}
				rounds.Add(1)
			}
		}(g)
	}
	next := 0 // the next edge Add waits at
	for seq, it := range items {
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
		if next < len(edges) && int32(seq) == edges[next] {
			next++
			for want := rounds.Load() + readers; rounds.Load() < want && len(errs) == 0; {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for seq, it := range r.All() {
		if err := check(int32(seq), it); err != nil {
			t.Fatal(err)
		}
	}
}
