package content

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	if fromB == fromA || fromB.Categories != nil || fromB.rows == fromA.rows {
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
// the rows from WindowStart on, filtered by Admits, find the set a scan
// of the items finds, each row's dot product with that one category
// being the weight its item gives it, for items added in and out of
// publish order; every item's resident row mirrors its duration, kind
// and whether it has a geographic scope and holds its whole category
// vector in name order; and a view does not see what is added after it
// was taken.
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
		var names []string
		for c, w := range held.Weights() {
			if x, has := it.Categories[c]; !has || x != w {
				t.Fatalf("%s: row holds %s at %v, item has %v", it.ID, c, w, it.Categories)
			}
			names = append(names, c)
		}
		if len(names) != len(it.Categories) || !slices.IsSorted(names) {
			t.Fatalf("%s: row holds %v, item has %v", it.ID, names, it.Categories)
		}
	}

	cuts := []time.Time{{}, base, base.Add(18 * time.Second), items[10].Published, items[10].Published.Add(time.Nanosecond)}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, base.Add(time.Duration(rng.Intn(19_000))*time.Millisecond))
	}
	for _, cat := range cats {
		var u Prefs
		u.Set(cat, 1)
		for _, at := range cuts {
			cut := Since(at)
			var got, want []string
			for seq := v.WindowStart(cut); seq < int32(v.Len()); seq++ {
				held, f := v.Item(seq), v.At(seq)
				if dot := f.Dot(&u); dot != held.Weight(KeyOf(cat)) || f.Spills() {
					t.Fatalf("%s since %v: %s's row weighs %v, item has %v", cat, at, held.ID, dot, held.Weight(KeyOf(cat)))
				}
				if _, has := items[seq].Categories[cat]; has && cut.Admits(&v, seq) {
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
}

// TestRowsHoldEveryPair: an item's pairs are its row's and then its
// spilled run's, whatever its width — none, a row's worth, more, and
// categories whose interned id a row's byte cannot hold, before and
// after the others in name order. Weights yields the item's map in name
// order, Weight each weight, Features.Dot plus View.SpillDot the sum a
// loop over the categories both the item and the listener carry adds,
// in name order, to the bit, and the JSON form is the map's.
func TestRowsHoldEveryPair(t *testing.T) {
	var narrow, wide []string
	for i := 0; len(wide) < 8; i++ {
		name := fmt.Sprintf("%c-row-%03d", 'a'+i*11%26, i)
		if k := KeyOf(name); k.id < emptyID {
			narrow = append(narrow, name)
		} else {
			wide = append(wide, name)
		}
	}
	rng := rand.New(rand.NewSource(11))
	r := NewRepository()
	var items []*Item
	for i := range 200 {
		it := item(fmt.Sprintf("w%03d", i), narrow[rng.Intn(len(narrow))], time.Minute, t0)
		for range i % 13 {
			it.Categories[narrow[rng.Intn(len(narrow))]] = rng.NormFloat64()
		}
		if i%3 == 0 {
			it.Categories[wide[rng.Intn(len(wide))]] = rng.NormFloat64()
		}
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	var u Prefs
	prefs := map[string]float64{}
	for _, c := range append(slices.Clone(narrow[:len(narrow)/2]), wide[:4]...) {
		prefs[c] = rng.NormFloat64()
		u.Set(c, prefs[c])
	}
	var v View
	r.ReadView(&v)
	spilled := 0
	for seq, in := range items {
		held, f := v.Item(int32(seq)), v.At(int32(seq))
		names := slices.Sorted(maps.Keys(in.Categories))
		var got []string
		want := 0.0
		for c, w := range held.Weights() {
			if math.Float64bits(w) != math.Float64bits(in.Categories[c]) || held.Weight(KeyOf(c)) != w {
				t.Fatalf("%s: %s weighs %v (Weight %v), added with %v", in.ID, c, w, held.Weight(KeyOf(c)), in.Categories[c])
			}
			got = append(got, c)
			if p, ok := prefs[c]; ok {
				want += p * w
			}
		}
		if !slices.Equal(got, names) {
			t.Fatalf("%s: pairs %v, want %v", in.ID, got, names)
		}
		dot := f.Dot(&u)
		if f.Spills() {
			dot = v.SpillDot(dot, f, &u)
			spilled++
		}
		if math.Float64bits(dot) != math.Float64bits(want) {
			t.Fatalf("%s: dot %v, the name-ordered sum %v", in.ID, dot, want)
		}
		a, _ := json.Marshal(held)
		b, _ := json.Marshal(in)
		if string(a) != string(b) {
			t.Fatalf("%s: held item encodes as\n%s\nadded as\n%s", in.ID, a, b)
		}
	}
	if spilled == 0 || spilled == len(items) {
		t.Fatalf("%d of %d rows spill: the catalog does not cross the row's width", spilled, len(items))
	}
	u = Prefs{}
	for seq := range items {
		if f := v.At(int32(seq)); f.Dot(&u) != 0 || f.Spills() && v.SpillDot(0, f, &u) != 0 {
			t.Fatalf("%s: a zero Prefs weighs it", items[seq].ID)
		}
	}
}

// TestFeaturesRowSize guards the resident row's width. Every node keeps
// one row per item for the catalog's life, so each 8 B added is
// 8 B × items × nodes of live heap — 0.3 MB of the benchmark's
// live_heap_mb at its 20 000 items on leader and follower. A row is one
// cache line: Rank reads one per candidate. It holds no pointer (the
// item is reached by its seq, the spill by the row's chunk), so the
// collector never scans the rows.
func TestFeaturesRowSize(t *testing.T) {
	if n := unsafe.Sizeof(Features{}); n > 64 {
		t.Fatalf("content.Features is %d B, want ≤ 64", n)
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
// node keeps one per catalog item for its life, and its row's place and
// its bitrate fill what would be Kind's padding.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n > 112 {
		t.Fatalf("content.Item is %d B, want ≤ 112", n)
	}
}

// TestChunksAreWholePages guards the chunk sizes against a change in
// Item's or a row's width: a full chunk that is not a whole number of
// 8 KiB pages is rounded up by the allocator, and every node pays the
// remainder once per chunk. A row chunk starts its rows on a cache
// line.
func TestChunksAreWholePages(t *testing.T) {
	const page = 8 << 10
	if n := unsafe.Sizeof([itemChunk]Item{}); n%page != 0 {
		t.Fatalf("an item chunk is %d B (%d B an item), not a whole number of pages", n, unsafe.Sizeof(Item{}))
	}
	if n := unsafe.Sizeof(rowsChunk{}); n%page != 0 {
		t.Fatalf("a row chunk is %d B (%d B a row), not a whole number of pages", n, unsafe.Sizeof(Features{}))
	}
	if off := unsafe.Offsetof(rowsChunk{}.rows); off%64 != 0 {
		t.Fatalf("a row chunk's rows start at %d B, not on a cache line", off)
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

// TestChunkReadsWhileAddAppends: while Add copies items into the item
// chunks and writes their rows, some spilling past four pairs, readers
// resolve items by seq — through a View, ItemAt, Get and All — and read
// their categories, and rank through the View: every row's dot product,
// walked chunk by chunk with Rows, is the one its item's map gives. They
// read at every item- and row-chunk boundary below the view's length
// and at its tail; Add waits for the readers at each boundary, so the
// reads cross every one. Under -race it is the proof that an item or a
// row, once a reader can reach it by its seq, is never written. Each
// item read has Categories nil and the weights it was added with.
func TestChunkReadsWhileAddAppends(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	items := make([]*Item, n)
	var u Prefs
	prefs := map[string]float64{}
	for _, c := range Categories[:20] {
		prefs[c] = rng.NormFloat64()
		u.Set(c, prefs[c])
	}
	dots := make([]float64, n) // each item's dot product with prefs, in name order
	for i := range items {
		width := 1 + i%4
		if i%3 == 0 {
			width = 5 + i%8 // past a row's four pairs
		}
		cats := map[string]float64{}
		for len(cats) < width {
			cats[Categories[rng.Intn(len(Categories))]] = rng.Float64()
		}
		for _, c := range slices.Sorted(maps.Keys(cats)) {
			if p, ok := prefs[c]; ok {
				dots[i] += p * cats[c]
			}
		}
		items[i] = &Item{ID: fmt.Sprintf("c%05d", i), Duration: time.Minute, Published: t0.Add(time.Duration(i) * time.Second), Categories: cats}
	}
	// The seqs either side of each item- and row-chunk boundary below n.
	var edges []int32
	for seq := int32(1); seq < n; seq++ {
		if seq%itemChunk == 0 || seq%rowChunk == 0 {
			edges = append(edges, seq-1, seq)
		}
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
	// rank walks the view's rows as Rank does.
	rank := func(v *View) error {
		for lo, m := int32(0), int32(v.Len()); lo < m; {
			rows := v.Rows(lo)
			for j := range rows {
				f := &rows[j]
				dot := f.Dot(&u)
				if f.Spills() {
					dot = v.SpillDot(dot, f, &u)
				}
				if seq := lo + int32(j); math.Float64bits(dot) != math.Float64bits(dots[seq]) {
					return fmt.Errorf("seq %d: row's dot product %v, its map's %v", seq, dot, dots[seq])
				}
			}
			lo += int32(len(rows))
		}
		return nil
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
					if err := rank(&v); err != nil {
						return err
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
				v = View{}
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
